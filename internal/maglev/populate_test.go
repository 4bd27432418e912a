package maglev

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// referencePopulate is the population walk as it was before populate learned
// to skip backends with no quota left: every round visits the whole pool.
// It is kept as the reference populate must match slot for slot.
func (t *Table) referencePopulate(perms [][]int32, quota []int, next []int) {
	n := len(t.backends)
	for i := range next {
		next[i] = 0
	}
	for i := range t.entries {
		t.entries[i] = -1
	}
	filled := 0
	for filled < t.size {
		progress := false
		for i := 0; i < n && filled < t.size; i++ {
			if quota[i] == 0 {
				continue
			}
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
			progress = true
		}
		if !progress {
			break
		}
	}
}

// checkWalkMatchesReference builds weights with b and demands the table be
// identical, slot for slot and count for count, to the reference walk over
// the same permutations and quotas.
func checkWalkMatchesReference(t *testing.T, b *Builder, weights []float64) {
	t.Helper()
	got, err := b.Build(weights)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	want := &Table{
		size:     b.size,
		entries:  make([]int32, b.size),
		backends: got.backends,
		counts:   make([]int, len(weights)),
	}
	quota := make([]int, len(weights))
	assignQuotas(quota, nil, want.backends, total, b.size)
	want.referencePopulate(b.perms, quota, make([]int, len(weights)))
	if !slices.Equal(got.entries, want.entries) || !slices.Equal(got.counts, want.counts) {
		t.Fatalf("size %d weights %v: walk differs from the reference (counts %v, reference %v)",
			b.size, weights, got.counts, want.counts)
	}
}

// randomWeights draws a weight vector with some zeros and a wide spread, at
// least one weight positive — the shapes a controller's rebuilds produce.
func randomWeights(rng *rand.Rand, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		switch rng.Intn(4) {
		case 0:
			w[i] = 0
		case 1:
			w[i] = 0.02
		default:
			w[i] = math.Exp(4 * rng.Float64())
		}
	}
	w[rng.Intn(n)] = 1 + rng.Float64()
	return w
}

func TestPopulateMatchesReferenceWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, size := range []int{1021, 4093, 65537} {
		for n := 1; n <= 16; n++ {
			b, err := NewBuilder(size, builderNames(n))
			if err != nil {
				t.Fatal(err)
			}
			trials := 4
			if size == 65537 {
				trials = 1
			}
			for trial := 0; trial < trials; trial++ {
				checkWalkMatchesReference(t, b, randomWeights(rng, n))
			}
		}
	}
}

// FuzzPopulateWalk decodes a byte stream into a pool of 1–16 backends and
// their weights (one byte each, zero allowed, at least one positive) and
// checks the population walk against the reference walk.
func FuzzPopulateWalk(f *testing.F) {
	f.Add([]byte{3, 255, 0, 1})
	f.Add([]byte{13, 250, 5, 5, 5, 0, 0, 1, 1, 1, 200, 3, 3, 3, 9})
	f.Add([]byte{1, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%16
		weights := make([]float64, n)
		positive := false
		for i := range weights {
			if 1+i < len(data) {
				weights[i] = float64(data[1+i])
			}
			positive = positive || weights[i] > 0
		}
		if !positive {
			weights[0] = 1
		}
		b, err := NewBuilder(1021, builderNames(n))
		if err != nil {
			t.Fatal(err)
		}
		checkWalkMatchesReference(t, b, weights)
	})
}

// BenchmarkTableBuildRebuild prices one controller rebuild: a Builder over
// 13 backends and 1021 slots, alternating between two skewed weight vectors
// so the unchanged-weights shortcut never fires.
func BenchmarkTableBuildRebuild(b *testing.B) {
	names := builderNames(13)
	bld, err := NewBuilder(1021, names)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	weights := [2][]float64{randomWeights(rng, len(names)), randomWeights(rng, len(names))}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bld.Build(weights[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}
