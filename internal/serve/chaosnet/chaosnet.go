// Package chaosnet is a deterministic fault-injection transport for
// testing the cluster layer. It wraps an http.RoundTripper and, per
// destination host, can
//
//   - kill    — fail every request (a crashed process), or every
//     request for one path (a cut route the host's other traffic,
//     health probes included, does not notice),
//   - partition — fail requests between specific host pairs while both
//     stay reachable from everyone else (a network split),
//   - delay   — add fixed latency before the request is sent,
//   - drop    — fail a seeded fraction of requests (a lossy link),
//   - duplicate — send a seeded fraction of requests twice (a
//     retransmitting network; the duplicate's response is discarded).
//
// All randomness comes from one seeded PRNG behind a mutex, so a suite
// that replays the same schedule against the same request sequence sees
// the same faults — chaos that reproduces. Faults are keyed by the
// request's destination host (URL host:port); partitions are
// additionally keyed by an origin the test attaches to its clients via
// WithOrigin, since an in-process cluster shares one address space and
// the transport cannot otherwise know who "sent" a request.
//
// The package has no dependencies on the cluster layer: it is an
// http.RoundTripper, and anything that takes an *http.Client can be
// made chaotic.
package chaosnet

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"
)

type originKey struct{}

// WithOrigin returns a context carrying the logical origin host of
// requests made with it. Partition rules match (origin, destination)
// pairs; requests without an origin only match whole-host rules.
func WithOrigin(ctx context.Context, host string) context.Context {
	return context.WithValue(ctx, originKey{}, host)
}

// Transport is the fault-injecting RoundTripper. The zero value is not
// usable; construct with New.
type Transport struct {
	base http.RoundTripper

	mu         sync.Mutex
	rng        *rand.Rand
	killed     map[string]bool
	killedPath map[[2]string]bool // (host, path)
	partitions map[[2]string]bool // unordered pair, stored sorted
	delays     map[string]time.Duration
	dropRate   map[string]float64
	dupRate    map[string]float64

	faults atomic64 // injected failures, for assertions
}

// atomic64 is a tiny mutex-free counter (chaos runs under -race).
type atomic64 struct {
	mu sync.Mutex
	n  int64
}

func (a *atomic64) add() { a.mu.Lock(); a.n++; a.mu.Unlock() }

func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

// New wraps base (http.DefaultTransport if nil) with a fault injector
// driven by the given seed. Same seed, same request sequence, same
// faults.
func New(seed uint64, base http.RoundTripper) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &Transport{
		base:       base,
		rng:        rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		killed:     make(map[string]bool),
		killedPath: make(map[[2]string]bool),
		partitions: make(map[[2]string]bool),
		delays:     make(map[string]time.Duration),
		dropRate:   make(map[string]float64),
		dupRate:    make(map[string]float64),
	}
}

// Faults returns the number of faults injected so far.
func (t *Transport) Faults() int64 { return t.faults.load() }

// Kill makes every request to host fail until Revive.
func (t *Transport) Kill(host string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.killed[host] = true
}

// KillPath makes every request to host for exactly path fail, while the
// host's other paths keep answering.
func (t *Transport) KillPath(host, path string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.killedPath[[2]string{host, path}] = true
}

// Revive undoes Kill.
func (t *Transport) Revive(host string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.killed, host)
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Partition blocks traffic between hosts a and b (both directions).
// Requests must carry an origin (WithOrigin) to be matched.
func (t *Transport) Partition(a, b string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.partitions[pairKey(a, b)] = true
}

// Heal removes a partition.
func (t *Transport) Heal(a, b string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.partitions, pairKey(a, b))
}

// Delay adds fixed latency to every request to host (0 clears).
func (t *Transport) Delay(host string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if d <= 0 {
		delete(t.delays, host)
		return
	}
	t.delays[host] = d
}

// Drop fails a fraction p of requests to host (0 clears).
func (t *Transport) Drop(host string, p float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p <= 0 {
		delete(t.dropRate, host)
		return
	}
	t.dropRate[host] = p
}

// Duplicate re-sends a fraction p of requests to host (0 clears). The
// duplicate is sent after the original returns; its response body is
// drained and discarded. Only requests with a rewindable or nil body
// are duplicated.
func (t *Transport) Duplicate(host string, p float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p <= 0 {
		delete(t.dupRate, host)
		return
	}
	t.dupRate[host] = p
}

// verdict is the decision taken for one request, computed under the
// lock so the PRNG consumption order is deterministic.
type verdict struct {
	fail  error
	delay time.Duration
	dup   bool
}

func (t *Transport) decide(origin, dest, path string) verdict {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.killed[dest] {
		return verdict{fail: fmt.Errorf("chaosnet: host %s is killed", dest)}
	}
	if t.killedPath[[2]string{dest, path}] {
		return verdict{fail: fmt.Errorf("chaosnet: path %s on host %s is killed", path, dest)}
	}
	if origin != "" && t.partitions[pairKey(origin, dest)] {
		return verdict{fail: fmt.Errorf("chaosnet: %s and %s are partitioned", origin, dest)}
	}
	if p := t.dropRate[dest]; p > 0 && t.rng.Float64() < p {
		return verdict{fail: fmt.Errorf("chaosnet: request to %s dropped", dest)}
	}
	v := verdict{delay: t.delays[dest]}
	if p := t.dupRate[dest]; p > 0 && t.rng.Float64() < p {
		v.dup = true
	}
	return v
}

// RoundTrip applies the configured faults, then delegates to the base
// transport.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	origin, _ := req.Context().Value(originKey{}).(string)
	v := t.decide(origin, req.URL.Host, req.URL.Path)
	if v.fail != nil {
		t.faults.add()
		return nil, v.fail
	}
	if v.delay > 0 {
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(v.delay):
		}
	}
	if v.dup {
		// The duplicate goes first and its response is discarded; the
		// original request's body is never touched (the clone reads a
		// fresh body from GetBody, and bodiless requests are trivially
		// replayable).
		if dup := cloneForReplay(req); dup != nil {
			t.faults.add()
			if resp, err := t.base.RoundTrip(dup); err == nil {
				resp.Body.Close()
			}
		}
	}
	return t.base.RoundTrip(req)
}

// cloneForReplay copies a request whose body can be replayed (nil body
// or GetBody available); otherwise returns nil and no duplication
// happens.
func cloneForReplay(req *http.Request) *http.Request {
	if req.Body == nil || req.Body == http.NoBody {
		return req.Clone(req.Context())
	}
	if req.GetBody == nil {
		return nil
	}
	body, err := req.GetBody()
	if err != nil {
		return nil
	}
	c := req.Clone(req.Context())
	c.Body = body
	return c
}

// --- seeded schedules -------------------------------------------------

// Step is one timed action of a chaos schedule.
type Step struct {
	// After is the delay from schedule start (or from the previous
	// step's firing when Sequential) to this step.
	After time.Duration
	// Do applies the step's faults.
	Do func(t *Transport)
}

// Schedule runs steps against t, each at its After offset from start,
// and returns a stop function. Steps fire in order on one goroutine,
// so a schedule is a deterministic script: kill at 100ms, heal at
// 400ms, ... — the same every run.
func Schedule(t *Transport, steps []Step) (stop func()) {
	done := make(chan struct{})
	go func() {
		start := time.Now()
		for _, s := range steps {
			wait := time.Until(start.Add(s.After))
			if wait > 0 {
				select {
				case <-done:
					return
				case <-time.After(wait):
				}
			}
			select {
			case <-done:
				return
			default:
			}
			s.Do(t)
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
