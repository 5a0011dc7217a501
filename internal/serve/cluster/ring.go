package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// Ring is a consistent-hash ring over node ids. Each node owns a set of
// virtual points on the uint64 circle; a job's routing key
// (core.HashPoint of its canonical config hash) is owned by the first
// point clockwise from it. Identical configs therefore always map to the
// same node — the one whose result cache already holds them — and adding
// or removing one node only remaps the arcs adjacent to its points
// instead of reshuffling the whole key space (the property a modulo
// assignment lacks).
//
// A Ring is immutable after NewRing; membership changes build a new one.
type Ring struct {
	points []ringPoint
	nodes  []string // distinct node ids, sorted
}

type ringPoint struct {
	pos  uint64
	node string
}

// DefaultVirtualNodes is how many points each node projects onto the
// ring when the caller does not choose: enough that ownership shares
// stay within a few percent of uniform for small clusters, small enough
// that building and searching the ring stays trivial.
const DefaultVirtualNodes = 64

// NewRing builds a ring over the given node ids with vnodes virtual
// points per node (DefaultVirtualNodes when <= 0). Duplicate ids are
// collapsed. An empty ring is valid: Owner and Replicas return nothing.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{}
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{pos: pointFor(n, v), node: n})
		}
	}
	sort.Strings(r.nodes)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].pos != r.points[j].pos {
			return r.points[i].pos < r.points[j].pos
		}
		return r.points[i].node < r.points[j].node // deterministic tie-break
	})
	return r
}

// pointFor hashes a node's v-th virtual point onto the circle.
func pointFor(node string, v int) uint64 {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", node, v)))
	return binary.BigEndian.Uint64(sum[:8])
}

// Nodes returns the distinct node ids on the ring, sorted.
func (r *Ring) Nodes() []string { return r.nodes }

// Len returns the number of distinct nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// Owner returns the node owning key — the first point at or clockwise
// from it — or "" on an empty ring.
func (r *Ring) Owner(key uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= key })
	if i == len(r.points) {
		i = 0 // wrap past the top of the circle
	}
	return r.points[i].node
}

// Replicas returns up to max distinct nodes in ring order starting at
// key's owner — the failover chain: if the owner is down, the job
// belongs to the next node clockwise, and so on. max <= 0 means all.
func (r *Ring) Replicas(key uint64, max int) []string {
	if len(r.points) == 0 {
		return nil
	}
	if max <= 0 || max > len(r.nodes) {
		max = len(r.nodes)
	}
	out := make([]string, 0, max)
	seen := make(map[string]bool, max)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= key })
	for n := 0; n < len(r.points) && len(out) < max; n++ {
		p := r.points[(i+n)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// Shares returns the fraction of the key space each node owns — the
// ownership figure /v1/stats surfaces, and the load-balance check the
// harness test asserts stays within sanity bounds.
func (r *Ring) Shares() map[string]float64 {
	shares := make(map[string]float64, len(r.nodes))
	if len(r.points) == 0 {
		return shares
	}
	const whole = float64(1<<63) * 2 // 2^64 as float64
	for i, p := range r.points {
		// The arc (previous point, p] belongs to p's node.
		var arc uint64
		if i == 0 {
			arc = p.pos - r.points[len(r.points)-1].pos // wraps mod 2^64
		} else {
			arc = p.pos - r.points[i-1].pos
		}
		shares[p.node] += float64(arc) / whole
	}
	return shares
}
