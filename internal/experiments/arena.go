package experiments

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/dst"
	"inbandlb/internal/netsim"
	"inbandlb/internal/packet"
	"inbandlb/internal/stats"
)

// ArenaConfig parameterizes the policy tournament (`lbsim -exp arena`).
type ArenaConfig struct {
	// Seed is the shared base seed (the -seed flag; 0 means 1). The DST
	// leg sweeps Seed..Seed+Seeds-1; the outage and Fig-3 legs seed their
	// simulators with it directly, so every policy sees identical worlds.
	Seed int64
	// Seeds is the DST sweep width per policy (0 = 50).
	Seeds int
	// OutDir, when non-empty, receives ARENA_<rev>.json.
	OutDir string
	// Rev tags the JSON output (git describe; "dev" fallback).
	Rev string
}

// arenaPlan sizes the rest of a tournament. lbsim runs defaultArenaPlan;
// the tests shrink it to keep the arena test-sized.
type arenaPlan struct {
	// determinismSeeds is how many of the sweep's first seeds are
	// replayed a second time to prove digest equality (capped at the
	// sweep width).
	determinismSeeds int
	// policies are the registered policy names to race.
	policies []string
	// outage is the simulated length of the outage leg (the blackhole
	// covers the middle third); fig3 that of the Fig-3 leg (+1 ms is
	// injected at the midpoint).
	outage, fig3 time.Duration
}

// defaultArenaPlan races the standard field: the four adaptive policies
// the conformance kit certifies. Static maglev is deliberately absent —
// it disqualifies itself on adaptation lag and would only pad the table.
var defaultArenaPlan = arenaPlan{
	determinismSeeds: 8,
	policies:         []string{"latency-aware", "knapsack", "p2c", "wlc"},
	outage:           12 * time.Second,
	fig3:             8 * time.Second,
}

// arenaScoreWeights is the fixed scoring rubric: each metric is min-max
// normalized across qualified policies and the weighted deficit is
// subtracted from a perfect 100.
var arenaScoreWeights = map[string]float64{
	"p99":        0.35,
	"lag":        0.25,
	"disruption": 0.15,
	"timeouts":   0.25,
}

// arenaDSTLeg is one policy's sweep through the randomized scenario set.
type arenaDSTLeg struct {
	Seeds            int      `json:"seeds"`
	Requests         uint64   `json:"requests"`
	Timeouts         uint64   `json:"timeouts"`
	Violations       int      `json:"violations"`
	FailedSeeds      []int64  `json:"failed_seeds,omitempty"`
	SweepDigest      string   `json:"sweep_digest"`
	DeterminismSeeds int      `json:"determinism_seeds"`
	Deterministic    bool     `json:"deterministic"`
	SeedDigests      []string `json:"seed_digests"`
}

// arenaOutageLeg is one policy's run through the mid-run blackhole.
type arenaOutageLeg struct {
	P99Ms          float64 `json:"p99_ms"`
	AdaptLagMs     float64 `json:"adapt_lag_ms"`
	Timeouts       uint64  `json:"timeouts"`
	Responses      uint64  `json:"responses"`
	FallbacksPer1k float64 `json:"fallbacks_per_1k_flows"`
	// MovedFrac is the mean fraction of live flows whose current table
	// pick disagrees with their pinned backend, sampled during the run.
	// Only meaningful for table-building policies; 0 for the rest (their
	// routing is per-flow, so "table churn" has no analogue).
	MovedFrac float64 `json:"affinity_moved_frac"`
}

// arenaFig3Leg is one policy's run through the paper's +1 ms latency step.
type arenaFig3Leg struct {
	PreP99Ms   float64 `json:"pre_p99_ms"`
	PostP99Ms  float64 `json:"post_p99_ms"`
	AdaptLagMs float64 `json:"adapt_lag_ms"`
	Timeouts   uint64  `json:"timeouts"`
	Responses  uint64  `json:"responses"`
}

// arenaResult is one contender's full scorecard.
type arenaResult struct {
	Policy string         `json:"policy"`
	DST    arenaDSTLeg    `json:"dst"`
	Outage arenaOutageLeg `json:"outage"`
	Fig3   arenaFig3Leg   `json:"fig3"`

	// Scored composites (raw, before normalization).
	P99Ms      float64 `json:"metric_p99_ms"`
	LagMs      float64 `json:"metric_lag_ms"`
	Disruption float64 `json:"metric_disruption"`
	Timeouts   float64 `json:"metric_timeouts"`

	Score float64 `json:"score"`
	Rank  int     `json:"rank"`
	// Disqualified marks a policy whose DST sweep violated an oracle or
	// failed same-seed digest equality: its score is forced to 0 and it
	// ranks below every qualified contender regardless of latency.
	Disqualified bool `json:"disqualified"`
}

// arenaTournament is the full arena outcome, serialized verbatim to
// results/arena/ARENA_<rev>.json.
type arenaTournament struct {
	Rev      string             `json:"rev"`
	Seed     int64              `json:"seed"`
	DSTSeeds int                `json:"dst_seeds"`
	Weights  map[string]float64 `json:"score_weights"`
	// Policies are in rank order (Rank 1 first).
	Policies []arenaResult `json:"policies"`
}

// Arena races every registered contender through the shared gauntlet and
// renders the scored leaderboard. The JSON artifact carries the full
// per-leg detail; the table is the human summary EXPERIMENTS.md commits.
func Arena(cfg ArenaConfig) *Result {
	res := newResult("arena")
	tour, err := runArena(cfg, defaultArenaPlan)
	if err != nil {
		res.addNote("tournament failed: %v", err)
		return res
	}

	res.Header = []string{"rank", "policy", "score", "p99_ms", "lag_ms", "disrupt", "timeouts", "dst_seeds", "violations", "deterministic", "sweep_digest"}
	for _, p := range tour.Policies {
		score := fmt.Sprintf("%.1f", p.Score)
		if p.Disqualified {
			score = "DQ"
		}
		res.addRow(fmt.Sprintf("%d", p.Rank), p.Policy, score,
			fmt.Sprintf("%.3f", p.P99Ms), fmt.Sprintf("%.1f", p.LagMs),
			fmt.Sprintf("%.2f", p.Disruption), fmt.Sprintf("%.0f", p.Timeouts),
			fmt.Sprintf("%d", p.DST.Seeds), fmt.Sprintf("%d", p.DST.Violations),
			fmt.Sprintf("%v", p.DST.Deterministic), p.DST.SweepDigest)

		prefix := p.Policy
		res.Metrics[prefix+"_score"] = p.Score
		res.Metrics[prefix+"_p99_ms"] = p.P99Ms
		res.Metrics[prefix+"_lag_ms"] = p.LagMs
		res.Metrics[prefix+"_disruption"] = p.Disruption
		res.Metrics[prefix+"_timeouts"] = p.Timeouts
		res.Metrics[prefix+"_dst_violations"] = float64(p.DST.Violations)
	}
	res.addNote("score = 100·(1 − Σ wᵢ·norm): p99 %.2f, adaptation lag %.2f, disruption %.2f, timeouts %.2f; DST violation or digest divergence disqualifies",
		arenaScoreWeights["p99"], arenaScoreWeights["lag"],
		arenaScoreWeights["disruption"], arenaScoreWeights["timeouts"])
	res.addNote("every policy swept seeds %d..%d; first %d seeds replayed twice for digest equality",
		tour.Seed, tour.Seed+int64(tour.DSTSeeds)-1, tour.Policies[0].DST.DeterminismSeeds)

	if cfg.OutDir != "" {
		path, err := writeArenaJSON(tour, cfg.OutDir)
		if err != nil {
			res.addNote("writing arena JSON: %v", err)
		} else {
			res.addNote("full scorecards written to %s", path)
		}
	}
	return res
}

// runArena races every policy of the plan through all three legs and
// scores the field. Results are deterministic in (cfg, plan).
func runArena(cfg ArenaConfig, plan arenaPlan) (*arenaTournament, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Seeds <= 0 {
		cfg.Seeds = 50
	}
	if cfg.Rev == "" {
		cfg.Rev = "dev"
	}
	det := min(plan.determinismSeeds, cfg.Seeds)
	t := &arenaTournament{
		Rev:      cfg.Rev,
		Seed:     cfg.Seed,
		DSTSeeds: cfg.Seeds,
		Weights:  arenaScoreWeights,
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "arena: "+format+"\n", args...)
	}
	for _, name := range plan.policies {
		pr := arenaResult{Policy: name}
		var err error
		pr.DST, err = arenaDST(name, cfg.Seed, cfg.Seeds, det)
		if err != nil {
			return nil, fmt.Errorf("arena: %s dst leg: %w", name, err)
		}
		logf("%s: dst %d seeds, %d violations, deterministic=%v",
			name, pr.DST.Seeds, pr.DST.Violations, pr.DST.Deterministic)
		pr.Outage, err = arenaOutage(name, cfg.Seed, plan.outage)
		if err != nil {
			return nil, fmt.Errorf("arena: %s outage leg: %w", name, err)
		}
		logf("%s: outage p99 %.3f ms, lag %.1f ms, %d timeouts",
			name, pr.Outage.P99Ms, pr.Outage.AdaptLagMs, pr.Outage.Timeouts)
		pr.Fig3, err = arenaFig3(name, cfg.Seed, plan.fig3)
		if err != nil {
			return nil, fmt.Errorf("arena: %s fig3 leg: %w", name, err)
		}
		logf("%s: fig3 post p99 %.3f ms, lag %.1f ms",
			name, pr.Fig3.PostP99Ms, pr.Fig3.AdaptLagMs)
		t.Policies = append(t.Policies, pr)
	}
	scoreField(t.Policies)
	sort.SliceStable(t.Policies, func(i, j int) bool {
		a, b := &t.Policies[i], &t.Policies[j]
		if a.Disqualified != b.Disqualified {
			return !a.Disqualified
		}
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.Policy < b.Policy
	})
	for i := range t.Policies {
		t.Policies[i].Rank = i + 1
	}
	return t, nil
}

// scoreField computes the composite metrics and min-max-normalized scores.
func scoreField(field []arenaResult) {
	for i := range field {
		p := &field[i]
		p.P99Ms = (p.Outage.P99Ms + p.Fig3.PostP99Ms) / 2
		p.LagMs = (p.Outage.AdaptLagMs + p.Fig3.AdaptLagMs) / 2
		// Fallback rate and moved-flow fraction measure the same harm —
		// flows that lost their pinned backend — on different scales;
		// moved fraction is rescaled to per-mille to match.
		p.Disruption = p.Outage.FallbacksPer1k + 1000*p.Outage.MovedFrac
		p.Timeouts = float64(p.Outage.Timeouts + p.Fig3.Timeouts)
		p.Disqualified = p.DST.Violations > 0 || !p.DST.Deterministic
	}
	norm := func(get func(*arenaResult) float64) func(*arenaResult) float64 {
		lo, hi := 0.0, 0.0
		first := true
		for i := range field {
			if field[i].Disqualified {
				continue
			}
			v := get(&field[i])
			if first || v < lo {
				lo = v
			}
			if first || v > hi {
				hi = v
			}
			first = false
		}
		return func(p *arenaResult) float64 {
			if hi <= lo {
				return 0
			}
			return (get(p) - lo) / (hi - lo)
		}
	}
	nP99 := norm(func(p *arenaResult) float64 { return p.P99Ms })
	nLag := norm(func(p *arenaResult) float64 { return p.LagMs })
	nDis := norm(func(p *arenaResult) float64 { return p.Disruption })
	nTo := norm(func(p *arenaResult) float64 { return p.Timeouts })
	for i := range field {
		p := &field[i]
		if p.Disqualified {
			p.Score = 0
			continue
		}
		deficit := arenaScoreWeights["p99"]*nP99(p) +
			arenaScoreWeights["lag"]*nLag(p) +
			arenaScoreWeights["disruption"]*nDis(p) +
			arenaScoreWeights["timeouts"]*nTo(p)
		p.Score = 100 * (1 - deficit)
	}
}

// writeArenaJSON persists the tournament as dir/ARENA_<rev>.json and
// returns the path.
func writeArenaJSON(t *arenaTournament, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("ARENA_%s.json", t.Rev))
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// buildContender constructs one contender with the arena's shared spec:
// identical floors, intervals, and seeds, so the only degree of freedom
// between runs is the policy itself.
func buildContender(name string, n int, seed int64) (control.Policy, error) {
	return control.BuildPolicy(name, control.PolicySpec{
		Backends:  serverNames(n),
		TableSize: 4093,
		MinWeight: 0.05,
		Interval:  2 * time.Millisecond,
		Seed:      seed,
	})
}

// arenaDST sweeps the policy through seeds randomized scenarios with
// every invariant oracle armed, replaying the first det seeds twice to
// prove same-seed digest equality.
func arenaDST(policy string, base int64, seeds, det int) (arenaDSTLeg, error) {
	leg := arenaDSTLeg{Seeds: seeds, DeterminismSeeds: det, Deterministic: true}
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

// arenaLagWindow is the window both scored legs measure adaptation lag in.
const arenaLagWindow = 50 * time.Millisecond

// arenaOutage runs the policy through the OUTAGE cluster under the
// shared passive detector and measures how it rides the blackhole out:
// overall p99, adaptation lag until new-flow share collapses off the
// dead server, client-visible timeouts, and routing disruption.
func arenaOutage(policy string, seed int64, duration time.Duration) (arenaOutageLeg, error) {
	leg := arenaOutageLeg{}
	pol, err := buildContender(policy, faultServers, seed)
	if err != nil {
		return leg, err
	}
	cluster, ctrl, sched, err := outageCluster(seed, duration, pol, true)
	if err != nil {
		return leg, err
	}
	outageAt, outageEnd := sched.Start, sched.End

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
	cluster.Sim.Every(arenaLagWindow, arenaLagWindow, func() bool {
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
					base := 1.0 / float64(faultServers)
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
	// current table would send elsewhere. Only a TableSource's Pick is a
	// pure read of its published table; a stateful policy's Pick would
	// advance its state (p2c draws from its rng), so for those the audit is
	// skipped and disruption is carried by fallbacks alone.
	_, hasTable := pol.(control.TableSource)
	var movedSum float64
	var movedSamples int
	cluster.Sim.Every(500*time.Millisecond, 500*time.Millisecond, func() bool {
		now := cluster.Sim.Now()
		if hasTable {
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

// arenaFig3 runs the policy through the Fig. 3 cluster, with the +1 ms
// step at the midpoint, and measures steady-state p99 before and after,
// plus how long the windowed p95 stays inflated past 1.3× its
// pre-injection level.
func arenaFig3(policy string, seed int64, duration time.Duration) (arenaFig3Leg, error) {
	leg := arenaFig3Leg{}
	injectAt := duration / 2
	pol, err := buildContender(policy, fig3Servers, seed)
	if err != nil {
		return leg, err
	}
	cluster, err := fig3Cluster(seed, injectAt, pol)
	if err != nil {
		return leg, err
	}

	window := stats.NewWindowedHistogram(10, arenaLagWindow)
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
	cluster.Sim.Every(arenaLagWindow, arenaLagWindow, func() bool {
		now := cluster.Sim.Now()
		if now > injectAt+2*arenaLagWindow && lag < 0 {
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
