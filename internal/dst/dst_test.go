package dst

import (
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/netsim"
	"inbandlb/internal/testbed"
)

// The repro contract: a violation anywhere prints
//
//	go test ./internal/dst -run 'TestDST$' -dst.seed=N [-dst.keep=i,j] [-dst.mutate]
//
// and that exact command replays the exact failing run, because the
// scenario is a pure function of the seed and the harness runs entirely
// on the simulated clock.
var (
	seedFlag   = flag.Int64("dst.seed", -1, "run a single DST scenario by seed")
	keepFlag   = flag.String("dst.keep", "", "comma-separated fault indices to keep (with -dst.seed)")
	mutateFlag = flag.Bool("dst.mutate", false, "run with the deliberately broken controller")
	sweepFlag  = flag.Int("dst.sweep", 60, "number of seeds TestDSTSweep covers")
	baseFlag   = flag.Int64("dst.base", 1, "first seed of the sweep")
	policyFlag = flag.String("dst.policy", "", "registered policy to sweep (empty = latency-aware)")
	congFlag   = flag.Bool("dst.congestion", false, "replay a GenerateCongestion scenario (with -dst.seed)")
	congSweep  = flag.Int("dst.congsweep", 40, "number of seeds TestDSTCongestionSweep covers")
)

// seedRun is one scenario's outcome: its report, and the failure lines a
// test prints for it, in order. fatal ends the test.
type seedRun struct {
	rep    *Report
	errors []string
	fatal  string
}

// runSeed executes one scenario under the named policy (empty = default),
// shrinks on failure, and reports the minimal repro. keep (nil = all)
// selects a fault subset first.
func runSeed(t *testing.T, seed int64, keep []int, policy string, mutated, congestion bool) *Report {
	t.Helper()
	return report(t, execSeed(seed, keep, policy, mutated, congestion))
}

// report prints r's failure lines on t and returns its report.
func report(t *testing.T, r seedRun) *Report {
	t.Helper()
	for _, e := range r.errors {
		t.Error(e)
	}
	if r.fatal != "" {
		t.Fatal(r.fatal)
	}
	return r.rep
}

// execSeed is runSeed without a testing.T, so seeds can run on several
// goroutines and still report in seed order.
func execSeed(seed int64, keep []int, policy string, mutated, congestion bool) (r seedRun) {
	gen := Generate
	if congestion {
		gen = GenerateCongestion
	}
	sc := gen(seed)
	sc.Policy = policy
	if keep != nil {
		sub := make([]FaultSpec, len(keep))
		for i, k := range keep {
			if k < 0 || k >= len(sc.Faults) {
				r.fatal = fmt.Sprintf("seed %d: -dst.keep index %d outside schedule of %d faults", seed, k, len(sc.Faults))
				return r
			}
			sub[i] = sc.Faults[k]
		}
		sc.Faults = sub
		sc.finalize()
	}
	runner := Run
	if mutated {
		trigger, ok := MutationTrigger(gen(seed))
		if !ok {
			r.fatal = fmt.Sprintf("seed %d: no latency fault tall enough for -dst.mutate", seed)
			return r
		}
		runner = func(s Scenario) (*Report, error) { return RunMutated(s, Mutate(trigger)) }
	}
	rep, err := runner(sc)
	if err != nil {
		r.fatal = fmt.Sprintf("seed %d: %v", seed, err)
		return r
	}
	r.rep = rep
	if !rep.Failed() {
		return r
	}
	errorf := func(format string, args ...any) { r.errors = append(r.errors, fmt.Sprintf(format, args...)) }
	for _, v := range rep.Violations {
		errorf("seed %d: %v", seed, v)
	}
	if shrunk := Shrink(sc, runner); shrunk != nil {
		kept := shrunk.Kept
		if keep != nil { // map back through the subset we started from
			orig := make([]int, len(kept))
			for i, k := range kept {
				orig[i] = keep[k]
			}
			kept = orig
		}
		errorf("seed %d: shrunk to %d fault(s) in %d runs; minimal schedule:", seed, len(shrunk.Kept), shrunk.Runs)
		for _, f := range shrunk.Scenario.Faults {
			errorf("  %v", f)
		}
		errorf("repro: %s", ReproLine(seed, policy, kept, mutated, congestion))
	} else {
		errorf("repro: %s", ReproLine(seed, policy, nil, mutated, congestion))
	}
	return r
}

// sweep runs seeds base … base+n-1 on GOMAXPROCS workers and hands each
// outcome to visit in seed order, as soon as it and every earlier seed are
// done. Scenarios share no state, so a seed's report does not depend on
// which worker ran it or alongside what.
func sweep(n int, base int64, run func(seed int64) seedRun, visit func(seedRun)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	done := make([]chan seedRun, n)
	for i := range done {
		done[i] = make(chan seedRun, 1)
	}
	next := make(chan int)
	go func() {
		for i := 0; i < n; i++ {
			next <- i
		}
		close(next)
	}()
	for w := 0; w < workers; w++ {
		go func() {
			for i := range next {
				done[i] <- run(base + int64(i))
			}
		}()
	}
	for i := range done {
		visit(<-done[i])
	}
}

// TestDST replays a single seed when -dst.seed is given (the repro path)
// and otherwise smoke-runs a handful of fixed seeds.
func TestDST(t *testing.T) {
	if *seedFlag >= 0 {
		var keep []int
		if *keepFlag != "" {
			for _, part := range strings.Split(*keepFlag, ",") {
				k, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil {
					t.Fatalf("bad -dst.keep %q: %v", *keepFlag, err)
				}
				keep = append(keep, k)
			}
			if keep == nil {
				keep = []int{}
			}
		}
		rep := runSeed(t, *seedFlag, keep, *policyFlag, *mutateFlag, *congFlag)
		t.Logf("seed %d: digest=%016x violations=%d stats=%+v",
			*seedFlag, rep.Digest, rep.Total, rep.Stats)
		return
	}
	for seed := int64(1); seed <= 8; seed++ {
		rep := runSeed(t, seed, nil, *policyFlag, false, false)
		if rep.Stats.Responses == 0 {
			t.Errorf("seed %d: workload produced no responses", seed)
		}
	}
}

// TestDSTSweep is the wide randomized gate: -dst.sweep seeds (default 60,
// a thousand in the nightly job), every oracle on every tick, run across
// GOMAXPROCS workers and reported in seed order.
func TestDSTSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping seed sweep in -short mode")
	}
	var requests, violations uint64
	sweep(*sweepFlag, *baseFlag, func(seed int64) seedRun {
		return execSeed(seed, nil, *policyFlag, false, false)
	}, func(r seedRun) {
		rep := report(t, r)
		requests += rep.Stats.Sent
		violations += uint64(rep.Total)
	})
	t.Logf("swept %d seeds (policy %q): %d requests, %d violations",
		*sweepFlag, *policyFlag, requests, violations)
}

// TestDSTPolicyMatrix runs a small seed slice under every arena policy, so
// the default test gate exercises each policy against every oracle; the
// nightly cross-policy matrix widens the per-policy seed count via
// -dst.policy and -dst.sweep.
func TestDSTPolicyMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping policy matrix in -short mode")
	}
	for _, policy := range []string{"latency-aware", "proportional", "knapsack", "p2c", "wlc"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				rep := runSeed(t, seed, nil, policy, false, false)
				if rep.Stats.Responses == 0 {
					t.Errorf("seed %d policy %s: workload produced no responses", seed, policy)
				}
			}
		})
	}
}

// raceEnabled is set under the race detector (race_test.go), which slows
// every simulated run about tenfold.
var raceEnabled bool

// TestDSTFaultFreeNoEjections: with the fault schedule removed, no policy
// ever ejects a backend. Silence counts as evidence only when Route sent
// the backend a flow, so a minority-share backend that is merely quiet
// stays in, at the sweep's full width.
func TestDSTFaultFreeNoEjections(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping fault-free sweep in -short mode")
	}
	if raceEnabled {
		// Each run is single-threaded and TestDSTSweep race-checks the
		// sweep's workers; 240 runs under -race would take minutes. CI
		// runs this test without -race in its own step.
		t.Skip("skipping fault-free sweep under the race detector")
	}
	for _, policy := range []string{"latency-aware", "proportional", "knapsack", "p2c", "wlc"} {
		t.Run(policy, func(t *testing.T) {
			sweep(*sweepFlag, *baseFlag, func(seed int64) seedRun {
				sc := Generate(seed)
				sc.Policy = policy
				sc.Faults = nil
				rep, err := Run(sc)
				if err != nil {
					return seedRun{fatal: fmt.Sprintf("seed %d: %v", seed, err)}
				}
				r := seedRun{rep: rep}
				if rep.Stats.Ejections != 0 || rep.Failed() {
					r.errors = append(r.errors, fmt.Sprintf("seed %d: %d ejections, %d violations %v on a fault-free run",
						seed, rep.Stats.Ejections, rep.Total, rep.Violations))
				}
				return r
			}, func(r seedRun) { report(t, r) })
		})
	}
}

// TestDSTPrecisionOracle gives the precision oracle teeth: on a fault-free
// seed a hair-trigger detector (one silent tick starves a routed backend,
// one tick above the pool median is an outlier) ejects healthy backends,
// and the oracle must blame nothing on a fault that is not there.
func TestDSTPrecisionOracle(t *testing.T) {
	sc := Generate(1)
	sc.Faults = nil
	hairTrigger := func(c *control.DetectorConfig) {
		c.StarvationTicks, c.OutlierFactor, c.OutlierTicks = 1, 1.01, 1
	}
	for _, tc := range []struct {
		name string
		tune func(*control.DetectorConfig)
	}{{"real", nil}, {"hair-trigger", hairTrigger}} {
		rep, err := RunOpts(sc, RunOptions{detector: tc.tune})
		if err != nil {
			t.Fatal(err)
		}
		caught := oracleFired(rep, "precision")
		if caught != (tc.tune != nil) {
			t.Errorf("%s: precision oracle fired=%v (ejections %d, violations %v)",
				tc.name, caught, rep.Stats.Ejections, rep.Violations)
		}
	}
}

// recallSeed has a blackhole that keeps being routed new flows while the
// rest of the pool streams samples.
const recallSeed = 8

// TestDSTRecallOracle gives the recall oracle teeth: the real detector
// starves the blackholed backend out in time, and a detector that never
// starves anyone out leaves it Healthy past the bound.
func TestDSTRecallOracle(t *testing.T) {
	sc := Generate(recallSeed)
	neverStarve := func(c *control.DetectorConfig) { c.StarvationTicks = 1 << 30 }
	for _, tc := range []struct {
		name string
		tune func(*control.DetectorConfig)
	}{{"real", nil}, {"never-starve", neverStarve}} {
		rep, err := RunOpts(sc, RunOptions{detector: tc.tune})
		if err != nil {
			t.Fatal(err)
		}
		if caught := oracleFired(rep, "recall"); caught != (tc.tune != nil) {
			t.Errorf("%s: recall oracle fired=%v (violations %v)", tc.name, caught, rep.Violations)
		}
	}
}

// oracleFired reports whether rep recorded a violation of the named oracle.
func oracleFired(rep *Report, oracle string) bool {
	for _, v := range rep.Violations {
		if v.Oracle == oracle {
			return true
		}
	}
	return false
}

// TestDSTDeterminism pins the replay contract: the same seed must yield
// byte-identical trace digests and identical counters, run to run.
func TestDSTDeterminism(t *testing.T) {
	for _, seed := range []int64{7, 42, 1001} {
		sc := Generate(seed)
		sc.Policy = *policyFlag
		a, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if a.Digest != b.Digest {
			t.Errorf("seed %d: digests differ across runs: %016x vs %016x", seed, a.Digest, b.Digest)
		}
		if a.Stats != b.Stats {
			t.Errorf("seed %d: stats differ across runs:\n%+v\n%+v", seed, a.Stats, b.Stats)
		}
	}
}

// goldenDigests pins the report digest of the benchmark's sim_dst
// population — Generate seeds 1…12, every third GenerateCongestion — from
// one commit to the next, with one aggregator shard. A change to netsim,
// tcpsim, server, lb or control that moves one of them reordered or
// changed a simulated event; only a change that means to alter simulated
// behaviour may edit this table. Last re-pinned when the detector's only
// starvation evidence became the flows Route counts and the registry began
// applying the shipped hysteresis default: ejections (and weight shifts)
// changed the traces.
var goldenDigests = [...]uint64{
	0x36b703503c3d26e1, 0xae897af5ea15782f, 0x7ea25d4debe9ef04, 0x6c3b33784f4a5732,
	0x05ba1eb187d04b37, 0xa058d6a50e466db3, 0xc57cd6769ca5427e, 0xa0a585f2c085b7c0,
	0x8048512dda295880, 0x3dc673336e252f0a, 0xe19b98cc36230fc0, 0x2d14b412c706da52,
}

// TestDSTGoldenDigests is the order-preservation oracle for the simulator:
// TestDSTDeterminism compares two runs of one binary, this compares every
// binary with the pinned table. CI runs it under GOMAXPROCS=1 and 4, so it also
// holds the digest independent of the host's core count.
func TestDSTGoldenDigests(t *testing.T) {
	for i, want := range goldenDigests {
		seed := int64(i + 1)
		sc := Generate(seed)
		if seed%3 == 0 {
			sc = GenerateCongestion(seed)
		}
		rep, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Failed() {
			t.Errorf("seed %d: %d violation(s), first: %v", seed, rep.Total, rep.Violations[0])
		}
		if rep.Digest != want {
			t.Errorf("seed %d: digest %016x, golden %016x (sent %d)", seed, rep.Digest, want, rep.Stats.Sent)
		}
	}
}

// TestDSTPacketOwnershipOracle gives the packet-ownership oracle teeth: the
// same scenario passes as built and fails on that oracle alone when an
// endpoint takes one pooled packet and neither sends nor releases it.
func TestDSTPacketOwnershipOracle(t *testing.T) {
	sc := Generate(1)
	leak := func(c *testbed.Cluster) {
		c.Sim.Schedule(time.Millisecond, func() {
			c.Sim.NewPacket(netsim.Packet{Kind: netsim.KindAck})
		})
	}
	for _, tc := range []struct {
		name string
		wire func(*testbed.Cluster)
		want int
	}{{"clean", nil, 0}, {"leak", leak, 1}} {
		rep, err := RunOpts(sc, RunOptions{wire: tc.wire})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.Total != tc.want {
			t.Fatalf("%s: %d violations %v, want %d", tc.name, rep.Total, rep.Violations, tc.want)
		}
		if tc.want > 0 && rep.Violations[0].Oracle != "packet-ownership" {
			t.Errorf("%s: caught by %v, want the packet-ownership oracle", tc.name, rep.Violations[0])
		}
	}
}

// TestDSTGeneratorBounds property-checks the generator itself over many
// seeds without running the simulator: documented ranges, fault windows
// inside the band, and the always-routable protected backend.
func TestDSTGeneratorBounds(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		sc := Generate(seed)
		if sc.Backends < 2 || sc.Backends > 16 {
			t.Fatalf("seed %d: %d backends outside [2,16]", seed, sc.Backends)
		}
		if len(sc.Faults) == 0 || len(sc.Faults) > 5 {
			t.Fatalf("seed %d: %d faults outside [1,5]", seed, len(sc.Faults))
		}
		connFaulted := make(map[int]bool)
		for _, f := range sc.Faults {
			if f.Start < warmupEnd || f.End > faultUntil || f.End <= f.Start {
				t.Fatalf("seed %d: fault window %v outside [%v,%v)", seed, f, warmupEnd, faultUntil)
			}
			if f.Server < 0 || f.Server >= sc.Backends {
				t.Fatalf("seed %d: fault %v targets unknown server", seed, f)
			}
			if f.Kind != FaultLatencyStep {
				connFaulted[f.Server] = true
			}
		}
		if len(connFaulted) >= sc.Backends {
			t.Fatalf("seed %d: every backend connection-faulted; pool can be emptied", seed)
		}
		if sc.Duration <= sc.CleanFrom || sc.CleanFrom <= sc.LastFaultEnd {
			t.Fatalf("seed %d: inconsistent timeline %v/%v/%v", seed, sc.LastFaultEnd, sc.CleanFrom, sc.Duration)
		}
		if sc.Workload.RequestTimeout < 20*sc.ServiceMedian[0] {
			t.Fatalf("seed %d: request timeout %v too tight", seed, sc.Workload.RequestTimeout)
		}
	}
}

// mutationSeed is a seed whose generated schedule consists of latency-step
// faults tall enough to arm BrokenWeights (found by findMutationSeed's
// scan; the generator is deterministic, so it stays valid until Generate
// changes, and findMutationSeed re-scans automatically if it does). The
// shrunk counterexample it yields is recorded in EXPERIMENTS.md.
const mutationSeed = 719

// TestDSTMutationSmoke proves the oracles have teeth: a deliberately
// broken weight update (BrokenWeights) must be caught, the clean run must
// not be, and the shrinker must reduce the schedule to the single latency
// fault the corruption depends on.
func TestDSTMutationSmoke(t *testing.T) {
	seed := findMutationSeed(t)
	sc := Generate(seed)
	trigger, ok := MutationTrigger(sc)
	if !ok {
		t.Fatalf("seed %d no longer suitable for mutation (generator changed?)", seed)
	}

	clean, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Failed() {
		t.Fatalf("clean run of seed %d violates oracles: %v", seed, clean.Violations)
	}

	runner := func(s Scenario) (*Report, error) { return RunMutated(s, Mutate(trigger)) }
	broken, err := runner(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !broken.Failed() {
		t.Fatalf("mutated run of seed %d not caught by any oracle", seed)
	}
	caught := false
	for _, v := range broken.Violations {
		if v.Oracle == "snapshot-weights" {
			caught = true
			break
		}
	}
	if !caught {
		t.Fatalf("broken weights not caught by the snapshot-weights oracle: %v", broken.Violations)
	}

	shrunk := Shrink(sc, runner)
	if shrunk == nil {
		t.Fatal("shrinker could not reproduce the mutated failure")
	}
	if len(shrunk.Kept) != 1 {
		t.Fatalf("expected a 1-fault minimal schedule, got %d: %v", len(shrunk.Kept), shrunk.Scenario.Faults)
	}
	if k := shrunk.Scenario.Faults[0].Kind; k != FaultLatencyStep {
		t.Fatalf("minimal schedule kept a %v fault; corruption is latency-armed", k)
	}
	t.Logf("mutation caught and shrunk to %v in %d runs; repro: %s",
		shrunk.Scenario.Faults[0], shrunk.Runs, ReproLine(seed, "", shrunk.Kept, true, false))
}

// TestDSTKnapsackMutationSmoke is the knapsack solver's teeth check: the
// same seed runs clean under the real solver, but with BrokenKnapsack's
// de-normalizing projection armed by the latency excursion, the
// snapshot-weights oracle must fire.
func TestDSTKnapsackMutationSmoke(t *testing.T) {
	seed := findMutationSeed(t)
	sc := Generate(seed)
	sc.Policy = "knapsack"
	trigger, ok := MutationTrigger(sc)
	if !ok {
		t.Fatalf("seed %d no longer suitable for mutation (generator changed?)", seed)
	}

	clean, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Failed() {
		t.Fatalf("clean knapsack run of seed %d violates oracles: %v", seed, clean.Violations)
	}

	broken, err := RunMutated(sc, MutateKnapsack(trigger))
	if err != nil {
		t.Fatal(err)
	}
	if !broken.Failed() {
		t.Fatalf("mutated knapsack run of seed %d not caught by any oracle", seed)
	}
	caught := false
	for _, v := range broken.Violations {
		if v.Oracle == "snapshot-weights" {
			caught = true
			break
		}
	}
	if !caught {
		t.Fatalf("broken knapsack weights not caught by the snapshot-weights oracle: %v", broken.Violations)
	}
}

// findMutationSeed scans for a seed whose schedule is all latency steps
// with at least one tall enough to arm the mutation — deterministic, so
// the scan cost is paid once and the result cached for the process.
func findMutationSeed(t *testing.T) int64 {
	t.Helper()
	suitable := func(seed int64) bool {
		sc := Generate(seed)
		if len(sc.Faults) < 2 || sc.Workload.Pipeline != 1 {
			return false
		}
		for _, f := range sc.Faults {
			if f.Kind != FaultLatencyStep {
				return false
			}
		}
		_, ok := MutationTrigger(sc)
		return ok
	}
	if suitable(mutationSeed) {
		return mutationSeed
	}
	for seed := int64(1); seed < 4000; seed++ {
		if suitable(seed) {
			t.Logf("mutationSeed %d stale; scanned to %d (update the constant)", mutationSeed, seed)
			return seed
		}
	}
	t.Fatal("no mutation-suitable seed in scan range")
	return -1
}

// TestDSTShrunkRegression pins the counterexample the mutation smoke test
// shrinks to (see EXPERIMENTS.md "DST"): the minimal one-fault schedule
// must keep tripping the snapshot-weights oracle forever.
func TestDSTShrunkRegression(t *testing.T) {
	seed := findMutationSeed(t)
	sc := Generate(seed)
	trigger, ok := MutationTrigger(sc)
	if !ok {
		t.Fatalf("seed %d no longer suitable (generator changed?)", seed)
	}
	// Reduce to the single tallest latency fault — the shape the shrinker
	// converges to — and require the oracle to fire on it alone.
	best, bestIdx := time.Duration(0), -1
	for i, f := range sc.Faults {
		if f.Kind == FaultLatencyStep && f.Extra > best {
			best, bestIdx = f.Extra, i
		}
	}
	sc.Faults = []FaultSpec{sc.Faults[bestIdx]}
	sc.finalize()
	rep, err := RunMutated(sc, Mutate(trigger))
	if err != nil {
		t.Fatal(err)
	}
	caught := false
	for _, v := range rep.Violations {
		if v.Oracle == "snapshot-weights" {
			caught = true
		}
	}
	if !caught {
		t.Fatalf("regression: minimal schedule no longer caught (violations: %v)", rep.Violations)
	}
}

// TestDSTCongestionSweep sweeps GenerateCongestion seeds — the six
// congestion fault kinds under every oracle, including the distress
// conservation and ejection-attribution rules. Beyond zero violations it
// requires the sweep to have actually exercised the channel: some run must
// emit distress, and the LB must have observed some of it.
func TestDSTCongestionSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping congestion sweep in -short mode")
	}
	var requests, violations, emitted, observed, congEj uint64
	sweep(*congSweep, *baseFlag, func(seed int64) seedRun {
		return execSeed(seed, nil, *policyFlag, false, true)
	}, func(r seedRun) {
		rep := report(t, r)
		requests += rep.Stats.Sent
		violations += uint64(rep.Total)
		emitted += rep.Stats.Retransmits + rep.Stats.DupAcks + rep.Stats.ZeroWindows
		observed += rep.Stats.CongObserved
		congEj += rep.Stats.CongEjections
	})
	if emitted == 0 {
		t.Errorf("no run in %d seeds emitted any transport distress; fault kinds are inert", *congSweep)
	}
	if observed == 0 {
		t.Errorf("client emitted %d distress signals but the LB tracker observed none", emitted)
	}
	t.Logf("swept %d congestion seeds (policy %q): %d requests, %d violations, "+
		"%d distress signals emitted, %d observed, %d congestion ejections",
		*congSweep, *policyFlag, requests, violations, emitted, observed, congEj)
}

// TestDSTCongestionDeterminism pins the replay contract for the congestion
// generator: same seed, byte-identical digest and counters.
func TestDSTCongestionDeterminism(t *testing.T) {
	for _, seed := range []int64{7, 42, 1001} {
		sc := GenerateCongestion(seed)
		sc.Policy = *policyFlag
		a, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if a.Digest != b.Digest {
			t.Errorf("seed %d: digests differ across runs: %016x vs %016x", seed, a.Digest, b.Digest)
		}
		if a.Stats != b.Stats {
			t.Errorf("seed %d: stats differ across runs:\n%+v\n%+v", seed, a.Stats, b.Stats)
		}
	}
}

// TestDSTCongestionGeneratorBounds property-checks GenerateCongestion:
// documented parameter ranges, windows inside the fault band, only the six
// congestion kinds, the at-most-one constraints, and a protected backend
// that no collapse or autoscale ever starves.
func TestDSTCongestionGeneratorBounds(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		sc := GenerateCongestion(seed)
		if !sc.Congestion {
			t.Fatalf("seed %d: Congestion flag unset", seed)
		}
		if rto := sc.Workload.RetransmitTimeout; rto < 15*time.Millisecond || rto > 30*time.Millisecond {
			t.Fatalf("seed %d: RetransmitTimeout %v outside [15ms,30ms]", seed, rto)
		}
		if age := sc.Workload.DupAckAge; age < 5*time.Millisecond || age > 10*time.Millisecond {
			t.Fatalf("seed %d: DupAckAge %v outside [5ms,10ms]", seed, age)
		}
		if zb := sc.Workload.ZeroWindowBurst; zb < 6 || zb > 10 {
			t.Fatalf("seed %d: ZeroWindowBurst %d outside [6,10]", seed, zb)
		}
		if sc.Workload.RetransmitTimeout >= sc.Workload.RequestTimeout {
			t.Fatalf("seed %d: RTO %v not below RequestTimeout %v",
				seed, sc.Workload.RetransmitTimeout, sc.Workload.RequestTimeout)
		}
		if len(sc.Faults) == 0 || len(sc.Faults) > 4 {
			t.Fatalf("seed %d: %d faults outside [1,4]", seed, len(sc.Faults))
		}
		hot, auto := 0, 0
		starved := make(map[int]bool)
		for _, f := range sc.Faults {
			if f.Start < warmupEnd || f.End > faultUntil || f.End <= f.Start {
				t.Fatalf("seed %d: fault window %v outside [%v,%v)", seed, f, warmupEnd, faultUntil)
			}
			if f.Server < 0 || f.Server >= sc.Backends {
				t.Fatalf("seed %d: fault %v targets unknown server", seed, f)
			}
			switch f.Kind {
			case FaultBandwidthCollapse:
				if f.Rate < 20e3 || f.Rate > 80e3 {
					t.Fatalf("seed %d: collapse rate %.0f outside [20k,80k]", seed, f.Rate)
				}
				starved[f.Server] = true
			case FaultIncast:
				if f.Extra < 2*time.Millisecond || f.Extra > 8*time.Millisecond {
					t.Fatalf("seed %d: incast hold %v outside [2ms,8ms]", seed, f.Extra)
				}
			case FaultQueueRamp:
				if f.Extra < 1500*time.Microsecond || f.Extra > 6*time.Millisecond {
					t.Fatalf("seed %d: ramp extra %v outside [1.5ms,6ms]", seed, f.Extra)
				}
				if f.Rise <= 0 || f.Rise > (f.End-f.Start)/2 {
					t.Fatalf("seed %d: ramp rise %v outside (0, window/2]", seed, f.Rise)
				}
			case FaultHotKey:
				hot++
				if f.Fraction < 0.1 || f.Fraction > 0.3 || f.Factor < 4 || f.Factor > 8 {
					t.Fatalf("seed %d: hot-key params %v out of range", seed, f)
				}
			case FaultHerd:
			case FaultAutoscale:
				auto++
				starved[f.Server] = true
			default:
				t.Fatalf("seed %d: non-congestion kind %v in congestion schedule", seed, f.Kind)
			}
		}
		if hot > 1 || auto > 1 {
			t.Fatalf("seed %d: %d hot-key and %d autoscale faults (max 1 each)", seed, hot, auto)
		}
		if len(starved) >= sc.Backends {
			t.Fatalf("seed %d: every backend collapse/autoscale-targeted; pool can be starved", seed)
		}
	}
}

// TestMedianSelectsSortedMiddle holds the estimator-bounds oracle's
// in-place selection to the element a sort puts at len/2, on inputs with
// runs of duplicates, sorted and reversed orders, and a single element.
func TestMedianSelectsSortedMiddle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(300)
		s := make([]time.Duration, n)
		spread := 1 + rng.Intn(n+5)
		for i := range s {
			s[i] = time.Duration(rng.Intn(spread))
		}
		switch trial % 3 {
		case 1:
			slices.Sort(s)
		case 2:
			slices.Sort(s)
			slices.Reverse(s)
		}
		want := slices.Clone(s)
		slices.Sort(want)
		if got := median(s); got != want[n/2] {
			t.Fatalf("trial %d (n=%d): median %v, sorted middle %v", trial, n, got, want[n/2])
		}
	}
}
