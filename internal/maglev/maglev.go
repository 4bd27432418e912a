// Package maglev implements the Maglev consistent hashing algorithm
// (Eisenbud et al., NSDI 2016) used by the load balancer to map flows to
// backends, extended with backend weights so the feedback controller can
// shift fractions of traffic between servers.
//
// Each backend owns a permutation of the table slots derived from two
// hashes of its name. Table population walks the permutations round-robin,
// giving each backend a share of slots proportional to its weight, with the
// minimal-disruption property: changing one backend's weight moves only the
// slots whose ownership must change.
//
// A controller that rebuilds its table on every weight shift should hold a
// Builder: it caches the per-backend permutations (which depend only on
// names and table size, never on weights) across rebuilds, so each Build
// pays only for the population walk. One-shot construction goes through
// New, which is a Builder used once.
package maglev

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
)

// DefaultTableSize is a prime large enough that per-backend shares are
// within ~1% of their target for pools up to a few hundred backends. The
// Maglev paper uses 65537 for similar pools.
const DefaultTableSize = 65537

var (
	// ErrNoBackends reports table construction with an empty pool.
	ErrNoBackends = errors.New("maglev: no backends")
	// ErrTableSize reports an invalid (non-positive or non-prime) table size.
	ErrTableSize = errors.New("maglev: table size must be a positive prime")
	// ErrBadWeight reports a non-finite or negative weight.
	ErrBadWeight = errors.New("maglev: weights must be finite and non-negative")
)

// Backend is one member of the pool.
type Backend struct {
	// Name must be unique within the pool; it seeds the slot permutation,
	// so the same name always claims (approximately) the same slots.
	Name string
	// Weight is the relative share of table slots this backend should own.
	// Zero removes the backend from new-flow routing without disturbing
	// other backends' slots more than necessary.
	Weight float64
}

// Table is a Maglev lookup table. It is immutable after construction; the
// controller builds a new table (cheap relative to control intervals) and
// swaps it in. Lookup is a single modulo and array index.
type Table struct {
	size     int
	entries  []int32 // slot -> backend index
	backends []Backend
	counts   []int // slots owned per backend
}

// Builder amortizes table construction across rebuilds. The per-backend
// slot permutations depend only on the backend names and the table size, so
// the Builder computes them once and every Build reuses them; only the
// weight-dependent work (quota assignment and the population walk) runs per
// rebuild. When the weights are unchanged from the previous Build, the
// previous Table is returned directly (tables are immutable, so sharing is
// safe).
//
// A Builder is not safe for concurrent use; the controllers that own one
// are single-threaded per the control.Policy contract.
type Builder struct {
	size  int
	names []string
	perms [][]int32 // full slot permutation per backend

	// Scratch reused across Build calls.
	quota    []int
	next     []int
	active   []int
	rems     []quotaRem
	backends []Backend

	lastWeights []float64
	lastTable   *Table
}

// NewBuilder validates the pool shape and precomputes each backend's slot
// permutation. size must be prime (DefaultTableSize is a good choice);
// names must be non-empty and unique.
func NewBuilder(size int, names []string) (*Builder, error) {
	if size <= 0 || !isPrime(size) {
		return nil, fmt.Errorf("%w: %d", ErrTableSize, size)
	}
	if len(names) == 0 {
		return nil, ErrNoBackends
	}
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			return nil, fmt.Errorf("maglev: duplicate backend name %q", n)
		}
		seen[n] = true
	}
	b := &Builder{
		size:        size,
		names:       append([]string(nil), names...),
		perms:       make([][]int32, len(names)),
		quota:       make([]int, len(names)),
		next:        make([]int, len(names)),
		active:      make([]int, 0, len(names)),
		rems:        make([]quotaRem, 0, len(names)),
		backends:    make([]Backend, len(names)),
		lastWeights: make([]float64, len(names)),
	}
	for i, name := range names {
		offset, skip := permParams(name, size)
		perm := make([]int32, size)
		slot := offset
		for j := range perm {
			perm[j] = int32(slot)
			slot += skip
			if slot >= uint64(size) {
				slot -= uint64(size)
			}
		}
		b.perms[i] = perm
	}
	return b, nil
}

// Size returns the table size this builder produces.
func (b *Builder) Size() int { return b.size }

// NumBackends returns the pool size.
func (b *Builder) NumBackends() int { return len(b.names) }

// Build constructs the table for the given weight vector (one weight per
// name passed to NewBuilder, in order). Weights must be finite and
// non-negative with a positive total. If the weights are identical to the
// previous Build's, the previously built (immutable) Table is returned
// without any work.
func (b *Builder) Build(weights []float64) (*Table, error) {
	if len(weights) != len(b.names) {
		return nil, fmt.Errorf("maglev: %d weights for %d backends", len(weights), len(b.names))
	}
	var totalWeight float64
	for i, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return nil, fmt.Errorf("%w: backend %q weight %v", ErrBadWeight, b.names[i], w)
		}
		totalWeight += w
	}
	if totalWeight <= 0 {
		return nil, fmt.Errorf("%w: total weight is zero", ErrBadWeight)
	}
	if b.lastTable != nil && equalWeights(b.lastWeights, weights) {
		return b.lastTable, nil
	}

	for i := range b.backends {
		b.backends[i] = Backend{Name: b.names[i], Weight: weights[i]}
	}
	t := &Table{
		size:     b.size,
		entries:  make([]int32, b.size),
		backends: append([]Backend(nil), b.backends...),
		counts:   make([]int, len(b.names)),
	}
	b.rems = assignQuotas(b.quota, b.rems, t.backends, totalWeight, b.size)
	b.active = t.populate(b.perms, b.quota, b.next, b.active)

	copy(b.lastWeights, weights)
	b.lastTable = t
	return t, nil
}

// New builds a table of the given size (a prime; DefaultTableSize is a good
// choice) over the backends. Backends with weight zero own no slots; at
// least one backend must have positive weight. Callers that rebuild with
// the same names should hold a Builder instead.
func New(size int, backends []Backend) (*Table, error) {
	if size <= 0 || !isPrime(size) {
		return nil, fmt.Errorf("%w: %d", ErrTableSize, size)
	}
	if len(backends) == 0 {
		return nil, ErrNoBackends
	}
	// Validate weights before names so callers get the same error
	// precedence the pre-Builder implementation had.
	var totalWeight float64
	for _, bk := range backends {
		if math.IsNaN(bk.Weight) || math.IsInf(bk.Weight, 0) || bk.Weight < 0 {
			return nil, fmt.Errorf("%w: backend %q weight %v", ErrBadWeight, bk.Name, bk.Weight)
		}
		totalWeight += bk.Weight
	}
	if totalWeight <= 0 {
		return nil, fmt.Errorf("%w: total weight is zero", ErrBadWeight)
	}
	names := make([]string, len(backends))
	weights := make([]float64, len(backends))
	for i, bk := range backends {
		names[i] = bk.Name
		weights[i] = bk.Weight
	}
	b, err := NewBuilder(size, names)
	if err != nil {
		return nil, err
	}
	return b.Build(weights)
}

// populate fills the table using the weighted Maglev population loop: each
// round, every backend with remaining quota claims its next unclaimed
// preferred slot, in index order. Quotas follow weights via a
// largest-remainder allocation, so slot counts match weight shares to within
// one slot. A round visits only the backends that still have quota, so a
// skewed weight vector costs rounds of the few heavy backends, not rounds of
// the whole pool. next is scratch for the per-backend permutation cursors and
// active for the visiting list; populate returns active for reuse.
func (t *Table) populate(perms [][]int32, quota, next, active []int) []int {
	for i := range next {
		next[i] = 0
	}
	for i := range t.entries {
		t.entries[i] = -1
	}
	active = active[:0]
	for i, q := range quota {
		if q > 0 {
			active = append(active, i)
		}
	}
	filled := 0
	for len(active) > 0 && filled < t.size {
		// Compact in place: kept never runs ahead of the index being read.
		kept := active[:0]
		for _, i := range active {
			if filled == t.size {
				break
			}
			// Walk backend i's permutation to its next free slot. The
			// permutation covers every slot, and quota remaining implies
			// free slots remain, so the walk always terminates.
			perm := perms[i]
			var slot int32
			for {
				slot = perm[next[i]]
				next[i]++
				if t.entries[slot] < 0 {
					break
				}
			}
			t.entries[slot] = int32(i)
			t.counts[i]++
			quota[i]--
			filled++
			if quota[i] > 0 {
				kept = append(kept, i)
			}
		}
		active = kept
	}
	return active
}

// quotaRem is one positive-weight backend's fractional share left over
// after integer truncation.
type quotaRem struct {
	idx  int
	frac float64
}

// assignQuotas distributes size slots among backends proportionally to
// weight using largest remainders, guaranteeing the quotas sum to size and
// that zero-weight backends get zero slots. The leftover after integer
// truncation is strictly less than the number of positive-weight backends,
// so one remainder round always suffices. rems is scratch; assignQuotas
// returns it for reuse.
func assignQuotas(quota []int, rems []quotaRem, backends []Backend, totalWeight float64, size int) []quotaRem {
	rems = rems[:0]
	assigned := 0
	for i, b := range backends {
		exact := float64(size) * b.Weight / totalWeight
		q := int(exact)
		quota[i] = q
		assigned += q
		if b.Weight > 0 {
			rems = append(rems, quotaRem{i, exact - float64(q)})
		}
	}
	for assigned < size {
		best := -1
		for j := range rems {
			if rems[j].frac >= 0 && (best < 0 || rems[j].frac > rems[best].frac) {
				best = j
			}
		}
		if best < 0 {
			// Floating-point drift consumed the remainders; give the rest
			// to the first positive-weight backend.
			for i, b := range backends {
				if b.Weight > 0 {
					quota[i] += size - assigned
					break
				}
			}
			return rems
		}
		quota[rems[best].idx]++
		rems[best].frac = -1
		assigned++
	}
	return rems
}

func equalWeights(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Lookup maps a flow hash to a backend index.
func (t *Table) Lookup(hash uint64) int {
	return int(t.entries[hash%uint64(t.size)])
}

// LookupName maps a flow hash to the backend name.
func (t *Table) LookupName(hash uint64) string {
	return t.backends[t.Lookup(hash)].Name
}

// Size returns the number of slots.
func (t *Table) Size() int { return t.size }

// NumBackends returns the pool size (including zero-weight backends).
func (t *Table) NumBackends() int { return len(t.backends) }

// Backend returns the i-th backend.
func (t *Table) Backend(i int) Backend { return t.backends[i] }

// SlotCount returns how many slots backend i owns.
func (t *Table) SlotCount(i int) int { return t.counts[i] }

// Share returns the fraction of slots owned by backend i.
func (t *Table) Share(i int) float64 {
	return float64(t.counts[i]) / float64(t.size)
}

// Disruption counts the slots whose backend differs between t and o. Tables
// must have equal size and backend lists (by name, in order).
func (t *Table) Disruption(o *Table) (int, error) {
	if t.size != o.size {
		return 0, fmt.Errorf("maglev: size mismatch %d vs %d", t.size, o.size)
	}
	if len(t.backends) != len(o.backends) {
		return 0, fmt.Errorf("maglev: backend count mismatch")
	}
	for i := range t.backends {
		if t.backends[i].Name != o.backends[i].Name {
			return 0, fmt.Errorf("maglev: backend order mismatch at %d", i)
		}
	}
	d := 0
	for i := range t.entries {
		if t.entries[i] != o.entries[i] {
			d++
		}
	}
	return d, nil
}

// permParams derives backend name's permutation offset and skip for a table
// of the given size: offset in [0, size), skip in [1, size).
func permParams(name string, size int) (offset, skip uint64) {
	h1 := hashString(name, 0x9ae16a3b2f90404f)
	h2 := hashString(name, 0xc3a5c85c97cb3127)
	return h1 % uint64(size), h2%uint64(size-1) + 1
}

// hashString is FNV-1a over the string mixed with a seed, giving the two
// independent hash functions Maglev needs for offset and skip.
func hashString(s string, seed uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(seed >> (8 * i))
	}
	_, _ = h.Write(b[:])
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

func isPrime(n int) bool {
	if n < 2 {
		return false
	}
	if n%2 == 0 {
		return n == 2
	}
	for d := 3; d*d <= n; d += 2 {
		if n%d == 0 {
			return false
		}
	}
	return true
}
