package experiments

import (
	"fmt"
	"time"

	"inbandlb/internal/dst"
)

// DSTConfig parameterizes the ad-hoc deterministic-simulation seed sweep
// (`lbsim -exp dst`): dstSeeds scenarios starting at Base, every invariant
// oracle checked on every tick. The nightly CI job runs the same sweep
// through `go test ./internal/dst` with a few hundred seeds.
type DSTConfig struct {
	// Base is the first seed (the -seed flag).
	Base int64
}

const (
	// dstSeeds is the sweep width: a quick interactive pass.
	dstSeeds = 25
	// dstMaxRepro bounds how many failing seeds are shrunk and reported.
	dstMaxRepro = 3
)

// DST sweeps randomized simulation scenarios and reports violations with
// minimized repro lines. A clean sweep is the standing correctness gate:
// conservation, snapshot sanity, estimator bounds, and liveness held on
// every control tick of every scenario.
func DST(cfg DSTConfig) *Result {
	res := newResult("dst")
	res.Header = []string{"seed", "backends", "faults", "requests", "timeouts", "ejections", "violations", "digest"}

	var requests, violations uint64
	var failed, shrunk int
	var simTime time.Duration
	for i := 0; i < dstSeeds; i++ {
		seed := cfg.Base + int64(i)
		sc := dst.Generate(seed)
		rep, err := dst.Run(sc)
		if err != nil {
			res.addNote("seed %d: harness error: %v", seed, err)
			failed++
			continue
		}
		requests += rep.Stats.Sent
		violations += uint64(rep.Total)
		simTime += sc.Duration
		if rep.Failed() {
			failed++
			res.addRow(fmt.Sprintf("%d", seed), fmt.Sprintf("%d", sc.Backends),
				fmt.Sprintf("%d", len(sc.Faults)), fmt.Sprintf("%d", rep.Stats.Sent),
				fmt.Sprintf("%d", rep.Stats.Timeouts), fmt.Sprintf("%d", rep.Stats.Ejections),
				fmt.Sprintf("%d", rep.Total), fmt.Sprintf("%016x", rep.Digest))
			res.addNote("seed %d first violation: %v", seed, rep.Violations[0])
			if shrunk < dstMaxRepro {
				shrunk++
				if sr := dst.Shrink(sc, dst.Run); sr != nil {
					res.addNote("seed %d shrunk to %d fault(s) in %d runs; repro: %s",
						seed, len(sr.Kept), sr.Runs, dst.ReproLine(seed, sc.Policy, sr.Kept, false, false))
				}
			}
		}
	}
	if failed == 0 {
		res.addRow(fmt.Sprintf("%d..%d", cfg.Base, cfg.Base+int64(dstSeeds)-1),
			"-", "-", fmt.Sprintf("%d", requests), "-", "-", "0", "-")
	}
	res.Metrics["seeds"] = float64(dstSeeds)
	res.Metrics["failed_seeds"] = float64(failed)
	res.Metrics["violations"] = float64(violations)
	res.Metrics["requests"] = float64(requests)
	res.addNote("swept %d seeds (%v simulated): %d requests, %d violating seed(s)",
		dstSeeds, simTime.Round(time.Millisecond), requests, failed)
	return res
}
