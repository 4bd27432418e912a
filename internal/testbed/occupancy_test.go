package testbed

import (
	"testing"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/core"
	"inbandlb/internal/packet"
)

// TestClusterOccupancyMirrorsConnTable: the LB's per-backend open-flow
// counters must always sum to the connection-table size and never go
// negative — they are the only occupancy there is, bound into every
// occupancy policy at lb.New (here wlc), so drift here silently skews every
// weighted-least-connections decision.
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
}

// TestL7RequestPicksChargeNoConnection: with layer-7 routing every keyed
// request is dispatched by its own Pick, but a request's pick opens no flow
// and a retargeted flow carries its open count along, so the LB's
// per-backend counts sum to the connection table with L7 as without it;
// and at every audit the bound leastconn picks the emptiest backend the
// table shows.
func TestL7RequestPicksChargeNoConnection(t *testing.T) {
	const n = 4
	for _, l7 := range []bool{false, true} {
		lc := control.NewLeastConn(n)
		cfg := defaultClusterConfig(lc, n)
		cfg.L7 = l7
		cfg.Workload.Connections = 8
		cfg.Workload.Keys = 64
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}

		// Audit at a cadence that catches mid-run states, not just the
		// drained end state.
		const horizon = 200 * time.Millisecond
		c.Sim.Every(10*time.Millisecond, 10*time.Millisecond, func() bool {
			total, emptiest := 0, 0
			for b := 0; b < n; b++ {
				open := c.LB.OpenConns(b)
				if open < 0 {
					t.Errorf("L7=%v t=%v: backend %d open count %d negative", l7, c.Sim.Now(), b, open)
				}
				if open < c.LB.OpenConns(emptiest) {
					emptiest = b
				}
				total += open
			}
			if total != c.LB.ConnCount() {
				t.Errorf("L7=%v t=%v: per-backend open %d != conn table %d", l7, c.Sim.Now(), total, c.LB.ConnCount())
			}
			if got := lc.Pick(packet.FlowKey{}, c.Sim.Now()); got != emptiest {
				t.Errorf("L7=%v t=%v: leastconn picks %d, the table's emptiest backend is %d", l7, c.Sim.Now(), got, emptiest)
			}
			return c.Sim.Now() < horizon
		})
		c.Run(horizon)
		c.Client.Stop()
		c.Sim.Run()

		if c.Client.Stats().Responses < 1000 {
			t.Fatalf("L7=%v: only %d responses: the audit never saw live flows", l7, c.Client.Stats().Responses)
		}
	}
}
