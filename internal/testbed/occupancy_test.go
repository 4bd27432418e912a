package testbed

import (
	"testing"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/core"
)

// TestClusterOccupancyMirrorsConnTable: the LB's per-backend open-flow
// counters must always sum to the connection-table size — they are the
// live occupancy signal BindOccupancy hands to wlc, so drift here silently
// skews every weighted-least-connections decision.
func TestClusterOccupancyMirrorsConnTable(t *testing.T) {
	wlc := control.NewWeightedLeastConn(2, core.ServerLatencyConfig{})
	c, err := NewCluster(defaultClusterConfig(wlc, 2))
	if err != nil {
		t.Fatal(err)
	}

	// Audit at a cadence that catches mid-run states, not just the drained
	// end state.
	const horizon = 300 * time.Millisecond
	c.Sim.Every(10*time.Millisecond, 10*time.Millisecond, func() bool {
		total := 0
		for b := 0; b < 2; b++ {
			open := c.LB.OpenConns(b)
			if open < 0 {
				t.Errorf("t=%v: backend %d open count %d negative", c.Sim.Now(), b, open)
			}
			total += open
		}
		if total != c.LB.ConnCount() {
			t.Errorf("t=%v: per-backend open %d != conn table %d", c.Sim.Now(), total, c.LB.ConnCount())
		}
		return c.Sim.Now() < horizon
	})
	c.Run(horizon)

	if c.Client.Stats().Responses == 0 {
		t.Fatal("no responses: the audit never saw live flows")
	}
	// The wlc policy was auto-bound to the flow table at construction, so
	// its view of occupancy is exactly the LB's counters.
	for b := 0; b < 2; b++ {
		if got, want := wlc.Occupancy(b), c.LB.OpenConns(b); got != want {
			t.Errorf("backend %d: wlc occupancy %d != LB open %d", b, got, want)
		}
	}
}

// TestL7RequestPicksChargeNoConnection: with layer-7 routing every keyed
// request is dispatched by its own Pick, and a stateful policy counts a
// connection on each. Those picks must be undone, and a flow's own charge
// released against the backend that took it even after a request moved the
// flow elsewhere, so once the workload drains the policy counts exactly the
// connections the LB still holds — with L7 as without it.
func TestL7RequestPicksChargeNoConnection(t *testing.T) {
	for _, l7 := range []bool{false, true} {
		lc := control.NewLeastConn(4)
		cfg := defaultClusterConfig(lc, 4)
		cfg.L7 = l7
		cfg.Workload.Connections = 8
		cfg.Workload.Keys = 64
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Run(200 * time.Millisecond)
		c.Client.Stop()
		c.Sim.Run()
		if c.Client.Stats().Responses < 1000 {
			t.Fatalf("L7=%v: only %d responses", l7, c.Client.Stats().Responses)
		}
		active := 0
		for b := 0; b < 4; b++ {
			active += lc.Active(b)
		}
		if active != c.LB.ConnCount() || active == 0 {
			t.Errorf("L7=%v: leastconn counts %d active connections, the LB holds %d",
				l7, active, c.LB.ConnCount())
		}
	}
}
