package control

import (
	"testing"
	"time"

	"inbandlb/internal/packet"
)

// recorderPolicy records every ObserveLatency tuple the aggregation layer
// applies, so tests can assert exactly what a drain delivered.
type recorderPolicy struct {
	n       int
	backs   []int
	nows    []time.Duration
	samples []time.Duration
}

func (p *recorderPolicy) Name() string                           { return "recorder" }
func (p *recorderPolicy) NumBackends() int                       { return p.n }
func (p *recorderPolicy) Pick(packet.FlowKey, time.Duration) int { return 0 }
func (p *recorderPolicy) FlowClosed(int, time.Duration)          {}
func (p *recorderPolicy) ObserveLatency(b int, now, s time.Duration) {
	p.backs = append(p.backs, b)
	p.nows = append(p.nows, now)
	p.samples = append(p.samples, s)
}

// TestTickZeroSampleShards: a tick that finds samples in only one shard
// must skip the empty shards entirely — no ObserveLatency for untouched
// backends, zero-valued TickStats for them, and Delivered advancing by
// exactly the drained count. A fully quiet tick applies nothing.
func TestTickZeroSampleShards(t *testing.T) {
	pol := &recorderPolicy{n: 3}
	c := NewController(pol, ControllerConfig{Shards: 4})
	defer c.Close()

	// All samples for backend 1 via shard 0; shards 1..3 and backends 0,2
	// stay empty.
	c.ObserveSharded(0, 1, 10*time.Millisecond, 2*time.Millisecond)
	c.ObserveSharded(0, 1, 12*time.Millisecond, 4*time.Millisecond)
	c.Tick(20 * time.Millisecond)

	if len(pol.backs) != 1 || pol.backs[0] != 1 {
		t.Fatalf("policy observed backends %v, want exactly [1]", pol.backs)
	}
	if pol.samples[0] != 3*time.Millisecond {
		t.Errorf("batched mean = %v, want 3ms", pol.samples[0])
	}
	if pol.nows[0] != 12*time.Millisecond {
		t.Errorf("applied at %v, want the newest sample time 12ms", pol.nows[0])
	}
	stats := c.LastTick()
	for _, b := range []int{0, 2} {
		if stats[b] != (TickStat{}) {
			t.Errorf("backend %d with no samples has non-zero TickStat %+v", b, stats[b])
		}
	}
	if stats[1].Count != 2 {
		t.Errorf("backend 1 count = %d, want 2", stats[1].Count)
	}
	if got := c.Delivered(); got != 2 {
		t.Errorf("Delivered = %d, want 2", got)
	}

	// Quiet tick: nothing drained, nothing applied, counter unchanged.
	c.Tick(30 * time.Millisecond)
	if len(pol.backs) != 1 {
		t.Errorf("quiet tick applied %d extra observations", len(pol.backs)-1)
	}
	if got := c.Delivered(); got != 2 {
		t.Errorf("Delivered after quiet tick = %d, want 2", got)
	}
}

// TestTickSingleSampleMinMax: with one sample in the tick, min, max, and
// mean must all equal that sample — the degenerate-dispersion case the
// detector's outlier math depends on.
func TestTickSingleSampleMinMax(t *testing.T) {
	pol := &recorderPolicy{n: 2}
	c := NewController(pol, ControllerConfig{Shards: 2})
	defer c.Close()

	c.ObserveSharded(1, 0, 5*time.Millisecond, 700*time.Microsecond)
	c.Tick(6 * time.Millisecond)

	s := c.LastTick()[0]
	if s.Count != 1 {
		t.Fatalf("count = %d, want 1", s.Count)
	}
	if s.Min != s.Max || s.Min != 700*time.Microsecond || s.Mean != 700*time.Microsecond {
		t.Errorf("min/mean/max = %v/%v/%v, want 700µs each", s.Min, s.Mean, s.Max)
	}
	if s.Last != 5*time.Millisecond {
		t.Errorf("last = %v, want 5ms", s.Last)
	}
}

// TestTickCrossShardMerge: cells for the same backend drained from
// different shards must merge into one count-weighted summary.
func TestTickCrossShardMerge(t *testing.T) {
	pol := &recorderPolicy{n: 2}
	c := NewController(pol, ControllerConfig{Shards: 2})
	defer c.Close()

	c.ObserveSharded(0, 0, 10*time.Millisecond, 1*time.Millisecond)
	c.ObserveSharded(1, 0, 11*time.Millisecond, 3*time.Millisecond)
	c.ObserveSharded(1, 0, 12*time.Millisecond, 5*time.Millisecond)
	c.Tick(20 * time.Millisecond)

	s := c.LastTick()[0]
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.Min != 1*time.Millisecond || s.Max != 5*time.Millisecond {
		t.Errorf("min/max = %v/%v, want 1ms/5ms", s.Min, s.Max)
	}
	if s.Mean != 3*time.Millisecond {
		t.Errorf("mean = %v, want 3ms", s.Mean)
	}
	if s.Last != 12*time.Millisecond {
		t.Errorf("last = %v, want 12ms", s.Last)
	}
}

// TestControllerRestartCounters: replacing a Controller (the restart story
// — same policy, fresh control plane) must restart Delivered and the
// snapshot generation from zero while the policy keeps its learned state.
// A controller whose counters survived a restart would double-count the
// samples its predecessor already applied.
func TestControllerRestartCounters(t *testing.T) {
	la := newTestLatencyAware(t)
	c1 := NewController(la, ControllerConfig{Shards: 2})
	for i := 0; i < 5; i++ {
		c1.ObserveSharded(uint64(i), i%4, time.Duration(i+1)*time.Millisecond, time.Millisecond)
	}
	c1.Tick(10 * time.Millisecond)
	if got := c1.Delivered(); got != 5 {
		t.Fatalf("first controller Delivered = %d, want 5", got)
	}
	gen1 := c1.Generation()
	if gen1 == 0 {
		t.Fatal("first controller never published a snapshot")
	}
	c1.Close()

	updatesBefore := la.Updates()
	c2 := NewController(la, ControllerConfig{Shards: 2})
	defer c2.Close()
	if got := c2.Delivered(); got != 0 {
		t.Errorf("fresh controller Delivered = %d, want 0", got)
	}
	if got := c2.Generation(); got != 1 {
		t.Errorf("fresh controller generation = %d, want 1 (the construction publish)", got)
	}
	if la.Updates() < updatesBefore {
		t.Errorf("policy lost table state across restart: %d < %d", la.Updates(), updatesBefore)
	}
	c2.ObserveSharded(0, 0, 20*time.Millisecond, time.Millisecond)
	c2.ObserveSharded(1, 1, 21*time.Millisecond, time.Millisecond)
	c2.Tick(22 * time.Millisecond)
	if got := c2.Delivered(); got != 2 {
		t.Errorf("restarted controller Delivered = %d, want 2 (own samples only)", got)
	}
}
