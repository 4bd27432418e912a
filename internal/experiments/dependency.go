package experiments

import (
	"fmt"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/faults"
	"inbandlb/internal/netsim"
	"inbandlb/internal/server"
	"inbandlb/internal/stats"
	"inbandlb/internal/tcpsim"
	"inbandlb/internal/testbed"
)

// AblationDependency (ABL-DEP, open question 3) contrasts two failure
// modes that look identical in the LB's per-server latency signal:
//
//   - "server-slow": one server's own path degrades by 1 ms — shifting
//     traffic helps, and the controller fixes the tail.
//   - "dependency-slow": a downstream service shared by ALL servers
//     degrades by 1 ms — every server looks slow, shifting cannot help,
//     and the controller burns table updates without improving anything.
//
// The experiment quantifies both: post-injection p95 relative to static
// Maglev, and the number of (futile) control actions.
func AblationDependency(seed int64, duration time.Duration) *Result {
	res := newResult("abl-dependency")
	res.Header = []string{"scenario", "policy", "p95_pre_ms", "p95_post_ms", "shifts_post"}
	if duration <= 0 {
		duration = 4 * time.Second
	}
	injectAt := duration / 2
	for _, scenario := range []string{"server-slow", "dependency-slow"} {
		for _, policyName := range []string{"maglev", "latency-aware"} {
			pre, post, shifts, err := runDependencyLeg(seed, duration, injectAt, scenario, policyName)
			if err != nil {
				res.addNote("%s/%s failed: %v", scenario, policyName, err)
				continue
			}
			res.addRow(scenario, policyName, msStr(pre), msStr(post), fmt.Sprintf("%d", shifts))
			key := scenario + "_" + policyName
			res.Metrics["post_p95_ms_"+key] = float64(post) / 1e6
			res.Metrics["shifts_"+key] = float64(shifts)
		}
	}
	res.addNote("a slow shared dependency defeats traffic shifting: every server inherits its latency (§5 Q3)")
	return res
}

func runDependencyLeg(seed int64, duration, injectAt time.Duration,
	scenario, policyName string) (pre, post time.Duration, shifts uint64, err error) {
	names := serverNames(2)
	var pol control.Policy
	var la *control.LatencyAware
	switch policyName {
	case "maglev":
		pol, err = control.NewMaglevStatic(names, 4093)
	case "latency-aware":
		la, err = control.NewLatencyAware(control.LatencyAwareConfig{
			Backends: names, Alpha: 0.10, TableSize: 4093,
			MinWeight: 0.02, Cooldown: time.Millisecond, HysteresisRatio: 1.15,
		})
		pol = la
	default:
		err = fmt.Errorf("unknown policy %q", policyName)
	}
	if err != nil {
		return 0, 0, 0, err
	}

	servers := make([]server.Config, 2)
	schedules := []faults.Schedule{faults.None, faults.None}
	for i := range servers {
		servers[i] = server.Config{
			Name: names[i], Workers: 8,
			Service: server.LogNormal{Median: 150 * time.Microsecond, Sigma: 0.25},
		}
	}
	cfg := testbed.ClusterConfig{
		Seed: seed, Policy: pol, Servers: servers, ServerPathSchedules: schedules,
		Workload: tcpsim.RequestConfig{
			Connections: 8, Pipeline: 1, RequestsPerConn: 100,
			ReopenDelay: 500 * time.Microsecond,
			ThinkTime:   50 * time.Microsecond, ThinkJitter: 50 * time.Microsecond,
			GetFraction: 0.5,
		},
	}
	switch scenario {
	case "server-slow":
		schedules[0] = faults.Step{Start: injectAt, Extra: time.Millisecond}
		// A healthy (fast, well-provisioned) dependency keeps the two
		// scenarios' topologies identical apart from the failure locus.
		cfg.SharedDependency = &server.DependencyConfig{
			Name: "dep", Workers: 64, Service: server.Deterministic(20 * time.Microsecond),
		}
		cfg.DependencyFraction = 0.5
	case "dependency-slow":
		cfg.SharedDependency = &server.DependencyConfig{
			Name: "dep", Workers: 64, Service: server.Deterministic(20 * time.Microsecond),
			Injected: faults.Step{Start: injectAt, Extra: time.Millisecond},
		}
		cfg.DependencyFraction = 0.5
	default:
		return 0, 0, 0, fmt.Errorf("unknown scenario %q", scenario)
	}

	cluster, err := testbed.NewCluster(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	if la != nil {
		la.OnUpdate = func(now time.Duration, _ []float64) {
			if now >= injectAt {
				shifts++
			}
		}
	}
	preHist := stats.NewDefaultHistogram()
	postHist := stats.NewDefaultHistogram()
	cluster.Client.OnResponse = func(now time.Duration, op netsim.Op, lat time.Duration) {
		switch {
		case now >= injectAt/2 && now < injectAt:
			preHist.Record(lat)
		case now >= injectAt+(duration-injectAt)/4:
			postHist.Record(lat)
		}
	}
	cluster.Run(duration)
	return preHist.Quantile(0.95), postHist.Quantile(0.95), shifts, nil
}
