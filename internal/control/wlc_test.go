package control

import (
	"testing"
	"time"

	"inbandlb/internal/core"
	"inbandlb/internal/packet"
)

func testKey(i int) packet.FlowKey {
	return packet.FlowKey{
		SrcIP:   [4]byte{10, 0, byte(i >> 8), byte(i)},
		DstIP:   [4]byte{192, 0, 2, 1},
		SrcPort: uint16(1024 + i),
		DstPort: 80,
		Proto:   6,
	}
}

// TestWLCLeastConnWithoutSignal: before any latency sample every cost
// reduces to occupancy, so picks rotate round-robin-fairly.
func TestWLCLeastConnWithoutSignal(t *testing.T) {
	w := NewWeightedLeastConn(3, testLatencyCfg())
	open := bindOpen(w, 3)
	counts := make([]int, 3)
	for i := 0; i < 9; i++ {
		counts[open.pick(w, testKey(i), 0)]++
	}
	for i, c := range counts {
		if c != 3 {
			t.Errorf("backend %d picked %d of 9 times without signal, want 3", i, c)
		}
	}
}

// TestWLCAvoidsSlowBackend: equal occupancy (unbound, so every backend
// reads as empty), one 5x-slower backend — the latency weighting must push
// picks elsewhere.
func TestWLCAvoidsSlowBackend(t *testing.T) {
	w := NewWeightedLeastConn(3, testLatencyCfg())
	now := time.Millisecond
	for i := 0; i < 20; i++ {
		now += time.Millisecond
		w.ObserveLatency(0, now, time.Millisecond)
		w.ObserveLatency(1, now, 200*time.Microsecond)
		w.ObserveLatency(2, now, 200*time.Microsecond)
	}
	counts := make([]int, 3)
	for i := 0; i < 30; i++ {
		counts[w.Pick(testKey(i), now)]++
	}
	if counts[0] != 0 {
		t.Errorf("5x-slower backend still picked %d of 30 times at equal occupancy", counts[0])
	}
}

// TestWLCOccupancyCounterbalancesLatency: without closes, the slow
// backend's low occupancy eventually undercuts the fast backends' rising
// counts — least-connections pressure keeps it from starving forever.
func TestWLCOccupancyCounterbalancesLatency(t *testing.T) {
	w := NewWeightedLeastConn(2, testLatencyCfg())
	now := time.Millisecond
	for i := 0; i < 20; i++ {
		now += time.Millisecond
		w.ObserveLatency(0, now, time.Millisecond)
		w.ObserveLatency(1, now, 200*time.Microsecond)
	}
	open := bindOpen(w, 2)
	counts := make([]int, 2)
	for i := 0; i < 40; i++ {
		counts[open.pick(w, testKey(i), now)]++
	}
	if counts[0] == 0 {
		t.Error("slow backend never picked: occupancy term is dead")
	}
	if counts[0] >= counts[1] {
		t.Errorf("slow backend picked %d >= fast %d", counts[0], counts[1])
	}
}

// TestWLCBindOccupancy: picks cost against the bound source (the LB's
// connection table in production) and nothing else: the policy keeps no
// count of its own, so its picks alone never move it, and unbinding
// reads every backend as empty.
func TestWLCBindOccupancy(t *testing.T) {
	w := NewWeightedLeastConn(2, testLatencyCfg())
	external := []int{100, 0} // backend 0 looks saturated externally
	w.BindOccupancy(func(b int) int { return external[b] })
	for i := 0; i < 10; i++ {
		if b := w.Pick(testKey(i), 0); b != 1 {
			t.Fatalf("pick %d chose saturated backend %d", i, b)
		}
	}
	external[0], external[1] = 0, 100
	if b := w.Pick(testKey(10), 0); b != 0 {
		t.Fatalf("pick chose %d after the source moved its load to 1", b)
	}
	w.BindOccupancy(nil) // unbound: every backend empty, the tie goes to 0
	external[0] = 1000
	if b := w.Pick(testKey(11), 0); b != 0 {
		t.Errorf("unbound pick = %d, want 0", b)
	}
}

func testLatencyCfg() (c core.ServerLatencyConfig) { return }
