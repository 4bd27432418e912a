package core

import (
	"net/netip"
	"testing"
	"time"

	"inbandlb/internal/packet"
)

func flowN(n int) packet.FlowKey {
	return packet.NewFlowKey(
		netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.1.0.1"),
		uint16(10000+n), 11211, packet.ProtoTCP)
}

func TestFlowTableTracksPerFlow(t *testing.T) {
	ft, err := NewFlowTable(FlowTableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Two flows with different RTTs must produce independent estimates.
	now := time.Duration(0)
	for b := 0; b < 2000; b++ {
		for p := 0; p < 4; p++ {
			ft.Observe(flowN(1), now+time.Duration(p)*5*time.Microsecond)
		}
		for p := 0; p < 4; p++ {
			ft.Observe(flowN(2), now+time.Duration(p)*5*time.Microsecond)
		}
		now += 500 * time.Microsecond
	}
	if ft.Len() != 2 {
		t.Fatalf("tracked flows = %d, want 2", ft.Len())
	}
	e1 := ft.Estimator(flowN(1))
	e2 := ft.Estimator(flowN(2))
	if e1 == nil || e2 == nil || e1 == e2 {
		t.Fatal("per-flow estimators not independent")
	}
	if ft.Estimator(flowN(99)) != nil {
		t.Error("estimator for unknown flow")
	}
}

func TestFlowTableEvictionOnFull(t *testing.T) {
	ft, err := NewFlowTable(FlowTableConfig{MaxFlows: 3})
	if err != nil {
		t.Fatal(err)
	}
	ft.Observe(flowN(0), 0)
	ft.Observe(flowN(1), time.Millisecond)
	ft.Observe(flowN(2), 2*time.Millisecond)
	ft.Observe(flowN(3), 3*time.Millisecond) // evicts flow 0 (oldest)
	if ft.Len() != 3 {
		t.Fatalf("len = %d, want 3", ft.Len())
	}
	if ft.Evictions() != 1 {
		t.Errorf("evictions = %d, want 1", ft.Evictions())
	}
	if ft.Estimator(flowN(0)) != nil {
		t.Error("oldest flow not evicted")
	}
	if ft.Estimator(flowN(3)) == nil {
		t.Error("new flow not admitted")
	}
}

// TestFlowTableEvictionTieBreak: among flows idle equally long the
// smallest key goes, whatever order the map iterates in.
func TestFlowTableEvictionTieBreak(t *testing.T) {
	for run := 0; run < 20; run++ {
		ft, err := NewFlowTable(FlowTableConfig{MaxFlows: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{3, 1, 2, 0} {
			ft.Observe(flowN(n), time.Millisecond)
		}
		ft.Observe(flowN(9), 2*time.Millisecond)
		if ft.Estimator(flowN(0)) != nil {
			t.Fatalf("run %d: evicted a flow other than the smallest key", run)
		}
	}
}

func TestFlowTableSweep(t *testing.T) {
	ft, err := NewFlowTable(FlowTableConfig{IdleTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ft.Observe(flowN(0), 0)
	ft.Observe(flowN(1), 1500*time.Millisecond)
	removed := ft.Sweep(2 * time.Second)
	if removed != 1 {
		t.Errorf("swept %d flows, want 1", removed)
	}
	if ft.Estimator(flowN(0)) != nil || ft.Estimator(flowN(1)) == nil {
		t.Error("sweep removed the wrong flow")
	}
}

func TestFlowTableForget(t *testing.T) {
	ft, _ := NewFlowTable(FlowTableConfig{})
	ft.Observe(flowN(0), 0)
	ft.Forget(flowN(0))
	if ft.Len() != 0 {
		t.Error("Forget did not remove the flow")
	}
	ft.Forget(flowN(0)) // idempotent
}

func TestFlowTableBadConfig(t *testing.T) {
	if _, err := NewFlowTable(FlowTableConfig{
		Ensemble: EnsembleConfig{Timeouts: []time.Duration{5, 4}},
	}); err == nil {
		t.Error("bad ensemble config accepted")
	}
}

func TestFlowTableProducesSamples(t *testing.T) {
	ft, _ := NewFlowTable(FlowTableConfig{})
	got := 0
	now := time.Duration(0)
	for b := 0; b < 2000; b++ {
		for p := 0; p < 4; p++ {
			if _, ok := ft.Observe(flowN(0), now+time.Duration(p)*5*time.Microsecond); ok {
				got++
			}
		}
		now += 500 * time.Microsecond
	}
	if got == 0 {
		t.Error("flow table produced no samples")
	}
}

func BenchmarkFlowTableObserve(b *testing.B) {
	ft, _ := NewFlowTable(FlowTableConfig{})
	keys := make([]packet.FlowKey, 64)
	for i := range keys {
		keys[i] = flowN(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := time.Duration(0)
	for i := 0; i < b.N; i++ {
		now += 5 * time.Microsecond
		ft.Observe(keys[i%len(keys)], now)
	}
}

// TestFlowTableReusesDroppedEstimators: a forgotten flow's estimator is
// handed to the next new flow reset, with its OnEpoch hook cleared, so the
// new flow's samples are those of a fresh estimator.
func TestFlowTableReusesDroppedEstimators(t *testing.T) {
	ft, err := NewFlowTable(FlowTableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// A flow long enough to finish epochs and move its cliff choice.
	now := time.Duration(0)
	for b := 0; b < 3000; b++ {
		ft.Observe(flowN(1), now)
		ft.Observe(flowN(1), now+5*time.Microsecond)
		now += 700 * time.Microsecond
	}
	old := ft.Estimator(flowN(1))
	hooked := 0
	old.OnEpoch = func(time.Duration, []uint64, int) { hooked++ }
	ft.Forget(flowN(1))

	fresh := MustEnsemble(EnsembleConfig{})
	for b := 0; b < 3000; b++ {
		at := now + time.Duration(b)*300*time.Microsecond
		for p := 0; p < 3; p++ {
			got, gotOK := ft.Observe(flowN(2), at+time.Duration(p)*7*time.Microsecond)
			want, wantOK := fresh.Observe(at + time.Duration(p)*7*time.Microsecond)
			if got != want || gotOK != wantOK {
				t.Fatalf("batch %d packet %d: reused estimator gave (%v, %v), a fresh one (%v, %v)",
					b, p, got, gotOK, want, wantOK)
			}
		}
	}
	if ft.Estimator(flowN(2)) != old {
		t.Error("the new flow did not reuse the forgotten flow's estimator")
	}
	if hooked != 0 {
		t.Errorf("the forgotten flow's OnEpoch hook ran %d times for the new flow", hooked)
	}
}
