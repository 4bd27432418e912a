package experiments

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// Golden metrics recorded by running Fig2b and Fig3 on the pre-rewrite
// simulator (container/heap event queue, boxed estimator ladder) at commit
// a8b52f5, seeds 1–3. The event-queue rewrite and the estimator
// flattening must be behaviorally invisible: same seed → bit-identical
// event order → these exact numbers. A mismatch means the rewrite changed
// simulation behavior, not just its speed.
var goldenFig2b = map[int64]map[string]float64{
	1: {
		"pre_median_us":        1120,
		"post_median_us":       2720,
		"truth_pre_median_us":  1120,
		"truth_post_median_us": 2720,
		"adaptation_lag_ms":    0.217406,
	},
	2: {
		"pre_median_us":        1120,
		"post_median_us":       2720,
		"truth_pre_median_us":  1120,
		"truth_post_median_us": 2720,
		"adaptation_lag_ms":    1.101962,
	},
	3: {
		"pre_median_us":        1120,
		"post_median_us":       2720,
		"truth_pre_median_us":  1120,
		"truth_post_median_us": 2720,
		"adaptation_lag_ms":    0.026797,
	},
}

var goldenFig3 = map[int64]map[string]float64{
	1: {"aware_post_p95_ms": 0.472, "maglev_post_p95_ms": 1.44},
	2: {"aware_post_p95_ms": 0.456, "maglev_post_p95_ms": 1.44},
	3: {"aware_post_p95_ms": 0.456, "maglev_post_p95_ms": 1.44},
}

// TestGoldenDeterminismAcrossQueueRewrite replays the golden scenarios and
// demands exact metric equality with the pre-rewrite recordings.
func TestGoldenDeterminismAcrossQueueRewrite(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulations")
	}
	for seed, want := range goldenFig2b {
		res := Fig2b(Fig2Config{Seed: seed, Duration: 2 * time.Second, StepAt: time.Second})
		for k, v := range want {
			if got := res.Metrics[k]; math.Abs(got-v) > 1e-9 {
				t.Errorf("fig2b seed %d: %s = %v, golden recording %v", seed, k, got, v)
			}
		}
	}
	for seed, want := range goldenFig3 {
		res := Fig3(Fig3Config{Seed: seed, Duration: 2 * time.Second, InjectAt: time.Second})
		for k, v := range want {
			if got := res.Metrics[k]; math.Abs(got-v) > 1e-9 {
				t.Errorf("fig3 seed %d: %s = %v, golden recording %v", seed, k, got, v)
			}
		}
	}
}

// TestAblationChurnAndHandshakeGoldens pins the abl-churn and abl-handshake
// rows of results/lbsim_all.txt (seed 42, default durations). Both
// experiments run every packet through the LB's per-flow state: the churn
// sweep caps that state below the live connection set, and the handshake
// leg swaps the ensemble estimator for the one-sample SYN stamp. A change
// to how the LB keeps per-flow state that moves either table is a change
// in simulated behavior, not a refactor.
func TestAblationChurnAndHandshakeGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulations")
	}
	for _, tc := range []struct {
		res  *Result
		want [][]string
	}{
		{AblationChurn(42, 0), [][]string{
			{"8", "64", "0", "0.0", "150642"},
			{"32", "64", "1", "0.0", "150617"},
			{"64", "64", "150586", "100.0", "0"},
			{"256", "64", "150586", "100.0", "0"},
		}},
		{AblationHandshake(42, 0), [][]string{
			{"ensemble", "72901", "0.440", "1.444"},
			{"handshake", "728", "0.432", "pre-drained"},
		}},
	} {
		if !reflect.DeepEqual(tc.res.Rows, tc.want) {
			t.Errorf("%s rows:\n got %q\nwant %q", tc.res.Name, tc.res.Rows, tc.want)
		}
	}
}
