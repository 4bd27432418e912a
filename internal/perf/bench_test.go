package perf

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/maglev"
)

func newBenchLA(b *testing.B) *control.LatencyAware {
	b.Helper()
	la, err := control.NewLatencyAware(control.LatencyAwareConfig{
		Backends: []string{"b0", "b1", "b2", "b3"}, Alpha: 0.1, TableSize: 1021,
	})
	if err != nil {
		b.Fatal(err)
	}
	return la
}

// BenchmarkPickParallel measures how concurrent connections reach a
// single-threaded routing policy through the Controller: its published
// snapshot makes every Pick a lock-free table lookup, with no shared
// mutable state on the data plane at all.
func BenchmarkPickParallel(b *testing.B) {
	keys := benchKeys()
	b.Run("controller-snapshot", func(b *testing.B) {
		c := control.NewController(newBenchLA(b), control.ControllerConfig{})
		defer c.Close()
		var workerIDs atomic.Int64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			w := int(workerIDs.Add(1))
			for i := 0; pb.Next(); i++ {
				c.Pick(keys[(i+w)%len(keys)], 0)
			}
		})
	})
	b.Run("controller-route", func(b *testing.B) {
		c := control.NewController(newBenchLA(b), control.ControllerConfig{})
		defer c.Close()
		var workerIDs atomic.Int64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			w := int(workerIDs.Add(1))
			for i := 0; pb.Next(); i++ {
				c.Route(keys[(i+w)%len(keys)], 0)
			}
		})
	})
}

// BenchmarkMaglevRebuild compares a from-scratch table build (what every
// control action used to pay) against the Builder's permutation-cached
// rebuild (what LatencyAware/Proportional now pay per weight shift). The
// permutations — size × backends hash evaluations — dominate the cold
// build; the cached path pays only quota assignment plus the population
// walk.
func BenchmarkMaglevRebuild(b *testing.B) {
	const size = 4093
	names := []string{"b0", "b1", "b2", "b3", "b4", "b5", "b6", "b7"}
	weightsA := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	weightsB := []float64{2, 1, 1, 1, 1, 1, 1, 0.5}

	b.Run("cold", func(b *testing.B) {
		backends := make([]maglev.Backend, len(names))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := weightsA
			if i%2 == 1 {
				w = weightsB
			}
			for j, n := range names {
				backends[j] = maglev.Backend{Name: n, Weight: w[j]}
			}
			if _, err := maglev.New(size, backends); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("permutation-cached", func(b *testing.B) {
		builder, err := maglev.NewBuilder(size, names)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Alternate weights so the depth-1 same-weights cache never
			// short-circuits: every iteration pays a real population walk.
			w := weightsA
			if i%2 == 1 {
				w = weightsB
			}
			if _, err := builder.Build(w); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkControllerObserveSharded is the per-sample cost on the proxy's
// measurement path: fold one latency sample into a shard-local accumulator.
func BenchmarkControllerObserveSharded(b *testing.B) {
	c := control.NewController(control.NewRoundRobin(4), control.ControllerConfig{
		Shards: runtime.GOMAXPROCS(0),
	})
	defer c.Close()
	var workerIDs atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		w := uint64(workerIDs.Add(1))
		for i := 0; pb.Next(); i++ {
			c.ObserveSharded(w, int(w)%4, time.Duration(i), time.Millisecond)
		}
	})
}
