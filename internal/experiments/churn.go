package experiments

import (
	"fmt"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/server"
	"inbandlb/internal/tcpsim"
	"inbandlb/internal/testbed"
)

// AblationChurn (ABL-CHURN) stresses the LB's connection table, which holds
// each flow's estimator: a fixed population of concurrent connections
// against a sweep of MaxConns capacities. When the table is smaller than the
// live flow set, every packet of an untracked flow evicts someone else's
// entry, estimator and all — the evicted flow's next packet is a "first
// packet" again and yields no sample. Undersized tables therefore collapse
// the measurement, which is why real deployments must size flow state for
// the live connection count (or fall back to the SharedLadder design).
func AblationChurn(seed int64, duration time.Duration) *Result {
	res := newResult("abl-churn")
	res.Header = []string{"max_flows", "live_conns", "samples", "samples_per_response_pct", "evictions"}
	if duration <= 0 {
		duration = 2 * time.Second
	}
	const conns = 64
	for _, maxFlows := range []int{8, 32, 64, 256} {
		pol, err := control.NewMaglevStatic(serverNames(2), 1021)
		if err != nil {
			res.addNote("setup failed: %v", err)
			return res
		}
		cluster, err := testbed.NewCluster(testbed.ClusterConfig{
			Seed:   seed,
			Policy: pol,
			Servers: []server.Config{
				{Workers: 16, Service: server.Deterministic(150 * time.Microsecond)},
				{Workers: 16, Service: server.Deterministic(150 * time.Microsecond)},
			},
			MaxConns: maxFlows,
			Workload: tcpsim.RequestConfig{
				Connections: conns, Pipeline: 1,
				// Keep per-flow gaps (~750–950µs) strictly inside one
				// ladder rung (512µs, 1024µs) so sampling loss isolates
				// the table-churn effect rather than rung straddling.
				ThinkTime: 400 * time.Microsecond, ThinkJitter: 200 * time.Microsecond,
				GetFraction: 0.5,
			},
		})
		if err != nil {
			res.addNote("setup failed: %v", err)
			return res
		}
		cluster.Run(duration)
		st := cluster.LB.Stats()
		responses := cluster.Client.Stats().Responses
		perResp := 0.0
		if responses > 0 {
			perResp = 100 * float64(st.Samples) / float64(responses)
		}
		res.addRow(fmt.Sprintf("%d", maxFlows), fmt.Sprintf("%d", conns),
			fmt.Sprintf("%d", st.Samples), fmt.Sprintf("%.1f", perResp),
			fmt.Sprintf("%d", st.Evicted))
		res.Metrics[fmt.Sprintf("samples_per_resp_pct_m%d", maxFlows)] = perResp
		res.Metrics[fmt.Sprintf("evictions_m%d", maxFlows)] = float64(st.Evicted)
	}
	res.addNote("a flow table smaller than the live connection set thrashes: every admission evicts live estimator state and samples collapse")
	return res
}
