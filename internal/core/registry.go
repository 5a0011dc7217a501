package core

import (
	"fmt"
	"sort"
	"sync"
)

// ComputeFunc is one variant of a kernel: it computes up to nbIter
// iterations and returns how many it actually performed. Returning fewer
// than nbIter signals convergence (the lazy Game of Life stops when the
// whole board is steady); the run loop then terminates early.
type ComputeFunc func(ctx *Ctx, nbIter int) int

// Kernel is a named 2D computation with one or more variants — the unit
// students work on. Init draws the initial image (and allocates any
// kernel-private state via Ctx.SetPriv); Refresh, if non-nil, updates the
// current image from private data structures before a frame is displayed
// (kernels with custom data structures only touch the image when a
// graphical refresh is needed, as §III-D requires). Finalize, if non-nil,
// releases the kernel-private state when the run ends, on every rank and
// on every path out of the run, a failed Init included — EASYPAP's
// <kernel>_finalize hook.
type Kernel struct {
	Name           string
	Description    string
	Init           func(ctx *Ctx) error
	Refresh        func(ctx *Ctx)
	Finalize       func(ctx *Ctx)
	Variants       map[string]ComputeFunc
	DefaultVariant string

	// Codec, when non-nil, serializes the kernel's mid-run state for
	// iteration-prefix checkpointing (see StateCodec). Kernels without a
	// codec simply never produce or consume snapshots.
	Codec StateCodec
}

// VariantNames returns the kernel's variant names, sorted.
func (k *Kernel) VariantNames() []string {
	names := make([]string, 0, len(k.Variants))
	for n := range k.Variants {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var (
	registryMu sync.RWMutex
	registry   = make(map[string]*Kernel)
)

// Register adds a kernel to the global registry (kernels self-register in
// their package init). It panics on duplicate or malformed registrations:
// those are programming errors caught at startup.
func Register(k *Kernel) {
	if k.Name == "" {
		panic("core: kernel with empty name")
	}
	if len(k.Variants) == 0 {
		panic(fmt.Sprintf("core: kernel %q has no variants", k.Name))
	}
	if k.DefaultVariant == "" {
		if _, ok := k.Variants["seq"]; ok {
			k.DefaultVariant = "seq"
		} else {
			k.DefaultVariant = k.VariantNames()[0]
		}
	}
	if _, ok := k.Variants[k.DefaultVariant]; !ok {
		panic(fmt.Sprintf("core: kernel %q default variant %q not registered", k.Name, k.DefaultVariant))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[k.Name]; dup {
		panic(fmt.Sprintf("core: kernel %q registered twice", k.Name))
	}
	registry[k.Name] = k
}

// Lookup finds a registered kernel by name. The not-found error lists the
// registered kernels and, when the name looks like a typo, the nearest
// match — so `easypap --kernel mandle` tells the student about "mandel"
// instead of leaving them to diff strings by eye.
func Lookup(name string) (*Kernel, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	k, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown kernel %q%s (registered: %v)",
			name, didYouMean(name, kernelNamesLocked()), kernelNamesLocked())
	}
	return k, nil
}

// didYouMean returns a " (did you mean ...?)" fragment naming the
// candidate closest to name, or "" when nothing is plausibly close
// (edit distance greater than half the name's length).
func didYouMean(name string, candidates []string) string {
	best, bestDist := "", len(name)/2+1
	for _, c := range candidates {
		if d := editDistance(name, c); d < bestDist {
			best, bestDist = c, d
		}
	}
	if best == "" {
		return ""
	}
	return fmt.Sprintf(" — did you mean %q?", best)
}

// editDistance is the Damerau-Levenshtein (optimal string alignment)
// distance between two short names: insertions, deletions, substitutions
// and adjacent transpositions all cost 1 — "sqe" is one typo away from
// "seq", not two.
func editDistance(a, b string) int {
	prev2 := make([]int, len(b)+1)
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			d := min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				d = min(d, prev2[j-2]+1)
			}
			cur[j] = d
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[len(b)]
}

// KernelNames lists all registered kernels, sorted.
func KernelNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return kernelNamesLocked()
}

func kernelNamesLocked() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// KernelInfo is the machine-readable description of one registered kernel
// — the shared shape of `easypap --list-json` and the daemon's GET
// /v1/kernels, so CLI and service clients parse one format.
type KernelInfo struct {
	Name           string   `json:"name"`
	Description    string   `json:"description,omitempty"`
	DefaultVariant string   `json:"default_variant"`
	Variants       []string `json:"variants"`
}

// KernelList returns the registry as KernelInfo records, sorted by name.
func KernelList() []KernelInfo {
	registryMu.RLock()
	defer registryMu.RUnlock()
	infos := make([]KernelInfo, 0, len(registry))
	for _, name := range kernelNamesLocked() {
		k := registry[name]
		infos = append(infos, KernelInfo{
			Name:           k.Name,
			Description:    k.Description,
			DefaultVariant: k.DefaultVariant,
			Variants:       k.VariantNames(),
		})
	}
	return infos
}
