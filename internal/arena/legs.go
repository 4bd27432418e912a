package arena

import (
	"fmt"
	"hash/fnv"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/dst"
	"inbandlb/internal/faults"
	"inbandlb/internal/netsim"
	"inbandlb/internal/packet"
	"inbandlb/internal/server"
	"inbandlb/internal/stats"
	"inbandlb/internal/tcpsim"
	"inbandlb/internal/testbed"
)

func serverNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("server-%d", i)
	}
	return names
}

// buildPolicy constructs one contender with the arena's shared spec:
// identical floors, intervals, and seeds, so the only degree of freedom
// between runs is the policy itself.
func buildPolicy(name string, n int, seed int64) (control.Policy, error) {
	return control.BuildPolicy(name, control.PolicySpec{
		Backends:  serverNames(n),
		TableSize: 4093,
		MinWeight: 0.05,
		Interval:  2 * time.Millisecond,
		Seed:      seed,
	})
}

// runDSTLeg sweeps the policy through DSTSeeds randomized scenarios with
// every invariant oracle armed, replaying the first det seeds twice to
// prove same-seed digest equality.
func runDSTLeg(policy string, base int64, seeds, det int) (DSTLeg, error) {
	leg := DSTLeg{Seeds: seeds, DeterminismSeeds: det, Deterministic: true}
	sweep := fnv.New64a()
	for i := 0; i < seeds; i++ {
		seed := base + int64(i)
		sc := dst.Generate(seed)
		sc.Policy = policy
		rep, err := dst.Run(sc)
		if err != nil {
			return leg, fmt.Errorf("seed %d: %w", seed, err)
		}
		leg.Requests += rep.Stats.Sent
		leg.Timeouts += rep.Stats.Timeouts
		leg.Violations += rep.Total
		if rep.Failed() {
			leg.FailedSeeds = append(leg.FailedSeeds, seed)
		}
		var buf [8]byte
		for b := 0; b < 8; b++ {
			buf[b] = byte(rep.Digest >> (8 * b))
		}
		sweep.Write(buf[:])
		if i < det {
			rep2, err := dst.Run(sc)
			if err != nil {
				return leg, fmt.Errorf("seed %d replay: %w", seed, err)
			}
			if rep2.Digest != rep.Digest {
				leg.Deterministic = false
			}
			leg.SeedDigests = append(leg.SeedDigests, fmt.Sprintf("%016x", rep.Digest))
		}
	}
	leg.SweepDigest = fmt.Sprintf("%016x", sweep.Sum64())
	return leg, nil
}

// arenaDetector is the passive detector tuned for the outage leg's 2 ms
// ticks, mirroring the standalone outage experiment so arena numbers stay
// comparable to it.
func arenaDetector(seed int64) control.DetectorConfig {
	return control.DetectorConfig{
		Enabled:          true,
		FailureThreshold: 3,
		StarvationTicks:  8,
		MinPoolSamples:   4,
		BackoffInitial:   200 * time.Millisecond,
		BackoffMax:       time.Second,
		HalfOpenFraction: 1.0 / 16,
		HalfOpenTicks:    100,
		SlowStartInitial: 0.25,
		SlowStartTicks:   25,
		Seed:             seed,
	}
}

// runOutageLeg blackholes server 0 for the middle third of the run and
// measures how the policy (under the shared passive detector) rides it
// out: overall p99, adaptation lag until new-flow share collapses off the
// dead server, client-visible timeouts, and routing disruption.
func runOutageLeg(policy string, seed int64, duration time.Duration) (OutageLeg, error) {
	const (
		servers      = 3
		ctrlInterval = 2 * time.Millisecond
		lagWindow    = 50 * time.Millisecond
	)
	leg := OutageLeg{}
	outageAt := duration / 3
	outageEnd := 2 * duration / 3

	pol, err := buildPolicy(policy, servers, seed)
	if err != nil {
		return leg, err
	}
	ctrl := control.NewController(pol, control.ControllerConfig{
		Shards:   1, // single-goroutine sim: results must not follow GOMAXPROCS
		Interval: ctrlInterval,
		Detector: arenaDetector(seed),
	})

	sched := faults.Outage{Start: outageAt, End: outageEnd, Blackhole: true}
	srvCfgs := make([]server.Config, servers)
	for i := range srvCfgs {
		srvCfgs[i] = server.Config{
			Name:    fmt.Sprintf("server-%d", i),
			Workers: 8,
			Service: server.LogNormal{Median: 150 * time.Microsecond, Sigma: 0.25},
		}
	}
	srvCfgs[0].ConnFaults = sched

	cluster, err := testbed.NewCluster(testbed.ClusterConfig{
		Seed:            seed,
		Policy:          ctrl,
		Servers:         srvCfgs,
		ControlInterval: ctrlInterval,
		Workload: tcpsim.RequestConfig{
			Connections:     16,
			RequestsPerConn: 50,
			RequestTimeout:  250 * time.Millisecond,
			ReopenDelay:     500 * time.Microsecond,
			ThinkTime:       50 * time.Microsecond,
			ThinkJitter:     50 * time.Microsecond,
			GetFraction:     0.5,
		},
	})
	if err != nil {
		return leg, err
	}

	// Adaptation lag: sample per-backend new-flow counts in 50 ms windows.
	// The pre-fault share of server 0 is its healthy baseline; the lag is
	// how long after the outage begins until a window's share falls to
	// half that baseline — the moment the policy+detector pipeline has
	// actually diverted new traffic, whatever mechanism did it.
	var (
		prevNew   []uint64
		preShares []float64
		lag       = time.Duration(-1)
	)
	cluster.Sim.Every(lagWindow, lagWindow, func() bool {
		now := cluster.Sim.Now()
		cur := cluster.LB.Stats().NewPerBack
		if prevNew != nil {
			var d0, total uint64
			for i, v := range cur {
				d := v - prevNew[i]
				total += d
				if i == 0 {
					d0 = d
				}
			}
			if total >= 5 {
				share := float64(d0) / float64(total)
				if now <= outageAt && now > duration/12 {
					preShares = append(preShares, share)
				}
				if lag < 0 && now > outageAt {
					base := 1.0 / float64(servers)
					if len(preShares) > 0 {
						base = 0
						for _, s := range preShares {
							base += s
						}
						base /= float64(len(preShares))
					}
					if base > 0.01 && share <= base/2 {
						lag = now - outageAt
					}
				}
			}
		}
		prevNew = cur
		return now < duration
	})

	// Routing disruption: periodically audit how many pinned flows the
	// current table would send elsewhere. Pick on a published snapshot is
	// a pure read; stateful policies have no table, so the audit is
	// skipped and their disruption is carried by fallbacks alone.
	var movedSum float64
	var movedSamples int
	cluster.Sim.Every(500*time.Millisecond, 500*time.Millisecond, func() bool {
		now := cluster.Sim.Now()
		if ctrl.Snapshot() != nil {
			total, moved := cluster.LB.AffinityAudit(func(k packet.FlowKey) int {
				return ctrl.Pick(k, now)
			})
			if total > 0 {
				movedSum += float64(moved) / float64(total)
				movedSamples++
			}
		}
		return now < duration
	})

	hist := stats.NewDefaultHistogram()
	cluster.Client.OnResponse = func(now time.Duration, op netsim.Op, lat time.Duration) {
		hist.Record(lat)
	}

	cluster.Run(duration)

	cs := cluster.Client.Stats()
	ls := cluster.LB.Stats()
	leg.P99Ms = float64(hist.Quantile(0.99)) / 1e6
	leg.Timeouts = cs.Timeouts
	leg.Responses = cs.Responses
	if ls.NewFlows > 0 {
		leg.FallbacksPer1k = 1000 * float64(ls.Fallbacks) / float64(ls.NewFlows)
	}
	if movedSamples > 0 {
		leg.MovedFrac = movedSum / float64(movedSamples)
	}
	if lag < 0 {
		lag = outageEnd - outageAt // never adapted: worst case, the full fault
	}
	leg.AdaptLagMs = float64(lag) / 1e6
	return leg, nil
}

// runFig3Leg replays the paper's Fig-3 shape — +1 ms injected on one
// LB→server path at the midpoint of a two-server memcached-like run — and
// measures steady-state p99 before and after, plus how long the windowed
// p95 stays inflated past 1.3× its pre-injection level.
func runFig3Leg(policy string, seed int64, duration time.Duration) (Fig3Leg, error) {
	const (
		servers   = 2
		lagWindow = 50 * time.Millisecond
	)
	leg := Fig3Leg{}
	injectAt := duration / 2

	pol, err := buildPolicy(policy, servers, seed)
	if err != nil {
		return leg, err
	}

	schedules := make([]faults.Schedule, servers)
	schedules[0] = faults.Step{Start: injectAt, Extra: time.Millisecond}
	for i := 1; i < servers; i++ {
		schedules[i] = faults.None
	}

	srvCfgs := make([]server.Config, servers)
	for i := range srvCfgs {
		srvCfgs[i] = server.Config{
			Name:    fmt.Sprintf("server-%d", i),
			Workers: 8,
			Service: server.Bimodal{
				Fast:  server.LogNormal{Median: 150 * time.Microsecond, Sigma: 0.25},
				Slow:  server.Uniform{Low: 400 * time.Microsecond, High: 900 * time.Microsecond},
				PSlow: 0.02,
			},
		}
	}

	cluster, err := testbed.NewCluster(testbed.ClusterConfig{
		Seed:                seed,
		Policy:              pol,
		Servers:             srvCfgs,
		ServerPathSchedules: schedules,
		Workload: tcpsim.RequestConfig{
			Connections:     8,
			Pipeline:        1,
			RequestsPerConn: 100,
			RequestTimeout:  250 * time.Millisecond,
			ReopenDelay:     500 * time.Microsecond,
			ThinkTime:       50 * time.Microsecond,
			ThinkJitter:     50 * time.Microsecond,
			GetFraction:     0.5,
		},
	})
	if err != nil {
		return leg, err
	}

	window := stats.NewWindowedHistogram(10, lagWindow)
	preHist := stats.NewDefaultHistogram()
	postHist := stats.NewDefaultHistogram()
	postFrom := injectAt + (duration-injectAt)/4
	cluster.Client.OnResponse = func(now time.Duration, op netsim.Op, lat time.Duration) {
		if op != netsim.OpGet {
			return
		}
		window.Record(now, lat)
		if now >= injectAt/2 && now < injectAt {
			preHist.Record(lat)
		}
		if now >= postFrom {
			postHist.Record(lat)
		}
	}

	// Adaptation lag: first 50 ms window after injection (plus a settling
	// allowance for the step to reach the window at all) whose p95 is back
	// within 1.3× of the pre-injection p95.
	var (
		preP95 = time.Duration(-1)
		lag    = time.Duration(-1)
	)
	cluster.Sim.Every(lagWindow, lagWindow, func() bool {
		now := cluster.Sim.Now()
		if now > injectAt+2*lagWindow && lag < 0 {
			if preP95 < 0 {
				preP95 = preHist.Quantile(0.95)
			}
			limit := preP95 + preP95*3/10
			if floor := preP95 + 300*time.Microsecond; limit < floor {
				limit = floor
			}
			if window.Count(now) > 0 && window.Quantile(now, 0.95) <= limit {
				lag = now - injectAt
			}
		}
		return now < duration
	})

	cluster.Run(duration)

	cs := cluster.Client.Stats()
	leg.PreP99Ms = float64(preHist.Quantile(0.99)) / 1e6
	leg.PostP99Ms = float64(postHist.Quantile(0.99)) / 1e6
	leg.Timeouts = cs.Timeouts
	leg.Responses = cs.Responses
	if lag < 0 {
		lag = duration - injectAt // p95 never recovered inside the run
	}
	leg.AdaptLagMs = float64(lag) / 1e6
	return leg, nil
}
