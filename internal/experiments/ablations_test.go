package experiments

import (
	"reflect"
	"testing"
	"time"
)

// Ablations run at reduced duration in tests; the assertions target shape,
// not absolute values.

func TestAblationEpoch(t *testing.T) {
	res := AblationEpoch(5, time.Second)
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	// The paper's E=64ms must produce a usable post-step estimate.
	if err := res.Metrics["post_err_pct_E64"]; err > 30 {
		t.Errorf("E=64ms post-step error %.1f%% too high", err)
	}
}

func TestAblationLadder(t *testing.T) {
	res := AblationLadder(5, time.Second)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	// k=3 tops out at 256µs < the intra/inter boundary needed post-step
	// (RTT ≈ 2.6ms): its post-step error must exceed the k=7 ladder's.
	if res.Metrics["post_err_pct_k3"] <= res.Metrics["post_err_pct_k7"] {
		t.Errorf("k=3 error %.1f%% not worse than k=7 error %.1f%%",
			res.Metrics["post_err_pct_k3"], res.Metrics["post_err_pct_k7"])
	}
	if res.Metrics["post_err_pct_k7"] > 30 {
		t.Errorf("k=7 post-step error %.1f%% too high", res.Metrics["post_err_pct_k7"])
	}
}

func TestAblationAlpha(t *testing.T) {
	res := AblationAlpha(5, 2*time.Second)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	// All alphas must eventually beat the static post-injection p95
	// (~1.4ms); even α=2% drains within the test window given shift-per-ms.
	for _, a := range []int{5, 10, 20, 40} {
		if p95 := res.Metrics[intKey("post_p95_ms_a", a)]; p95 > 1.2 {
			t.Errorf("alpha=%d%%: post p95 %.3fms did not recover", a, p95)
		}
	}
}

func intKey(prefix string, n int) string {
	return prefix + itoa(n)
}

func TestAblationViolations(t *testing.T) {
	res := AblationViolations(5, time.Second)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	base := res.Metrics["err_pct_baseline"]
	if base > 15 {
		t.Errorf("baseline error %.1f%% too high", base)
	}
	// Each violation must measurably inflate error versus the clean
	// response latency: delayed ACKs add hold time (~one serialization
	// gap), pacing and app limits destroy the batch structure outright.
	if e := res.Metrics["err_pct_delayed-ack(2)"]; e < base+5 {
		t.Errorf("delayed-ack error %.1f%% not above baseline %.1f%%+5", e, base)
	}
	for _, sc := range []string{"pacing(400us)", "app-limited"} {
		if e := res.Metrics["err_pct_"+sc]; e < 25 {
			t.Errorf("%s error %.1f%%, want > 25%% (batch structure destroyed)", sc, e)
		}
	}
}

func TestAblationFarClients(t *testing.T) {
	res := AblationFarClients(5, time.Second)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	near := res.Metrics["uncontrollable_pct_10µs"]
	far := res.Metrics["uncontrollable_pct_2ms"]
	if far <= near {
		t.Errorf("uncontrollable share should grow with distance: near %.1f%%, far %.1f%%", near, far)
	}
	if far < 50 {
		t.Errorf("2ms-away client: uncontrollable share %.1f%%, want > 50%%", far)
	}
}

func TestPolicyComparison(t *testing.T) {
	res := PolicyComparison(5, 2*time.Second)
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	// Feedback policies must beat the latency-blind ones on p95 with a
	// permanently degraded server.
	blind := res.Metrics["p95_us_maglev"]
	aware := res.Metrics["p95_us_latency-aware"]
	p2c := res.Metrics["p95_us_p2c"]
	if aware >= blind*0.75 {
		t.Errorf("latency-aware p95 %.0fµs not clearly below maglev %.0fµs", aware, blind)
	}
	if p2c >= blind {
		t.Errorf("p2c p95 %.0fµs not below maglev %.0fµs", p2c, blind)
	}
}

func TestAblationPoolScale(t *testing.T) {
	res := AblationPoolScale(5, 2*time.Second)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	// The slow server's new-flow share must end well below its fair share.
	for _, n := range []int{2, 4, 8} {
		fair := 100.0 / float64(n)
		got := res.Metrics[intKey("slow_share_pct_n", n)]
		if got > fair*0.8 {
			t.Errorf("n=%d: slow server share %.1f%% not well below fair %.1f%%", n, got, fair)
		}
	}
}

func TestAblationMultiLB(t *testing.T) {
	res := AblationMultiLB(5, 2*time.Second)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	// Every configuration still recovers (p95 below the injected 1ms+base).
	for _, k := range []int{1, 2, 4, 8} {
		if p95 := res.Metrics[intKey("p95_us_k", k)]; p95 > 1200 {
			t.Errorf("k=%d LBs: post p95 %.0fµs did not recover", k, p95)
		}
	}
	// More LBs means more independent controllers shifting.
	if res.Metrics["shifts_k8"] <= res.Metrics["shifts_k1"] {
		t.Errorf("shifts did not grow with LB count: k1=%v k8=%v",
			res.Metrics["shifts_k1"], res.Metrics["shifts_k8"])
	}
}

func TestAblationControllers(t *testing.T) {
	res := AblationControllers(5, 3*time.Second)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	maglev := res.Metrics["post_p95_ms_maglev"]
	for _, name := range []string{"latency-aware", "proportional"} {
		post := res.Metrics["post_p95_ms_"+name]
		if post >= maglev*0.75 {
			t.Errorf("%s post p95 %.3fms not clearly below maglev %.3fms", name, post, maglev)
		}
		if _, ok := res.Metrics["reaction_ms_"+name]; !ok {
			t.Errorf("%s never reacted to the injection", name)
		}
	}
}

func TestAblationUtilization(t *testing.T) {
	res := AblationUtilization(5, time.Second)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	// No cross traffic: near-exact estimates.
	if e := res.Metrics["err_pct_u0"]; e > 15 {
		t.Errorf("0%% utilization error %.1f%%", e)
	}
	// Heavy cross traffic degrades the error tail well beyond the clean case.
	if res.Metrics["p95_err_pct_u80"] <= res.Metrics["p95_err_pct_u0"] {
		t.Errorf("p95 error did not grow with utilization: u0=%.1f%% u80=%.1f%%",
			res.Metrics["p95_err_pct_u0"], res.Metrics["p95_err_pct_u80"])
	}
}

func TestAblationAffinity(t *testing.T) {
	res := AblationAffinity(5, 2*time.Second)
	if res.Metrics["table_updates"] < 2 {
		t.Fatal("controller never shifted; audit meaningless")
	}
	// The shift moves weight, so a stateless lookup would remap a visible
	// fraction of live connections at some audit point.
	if res.Metrics["peak_counterfactual_remap_pct"] <= 0 {
		t.Error("no counterfactual remaps observed despite weight churn")
	}
	// Sanity: a 2-server pool cannot remap more than everything.
	if res.Metrics["peak_counterfactual_remap_pct"] > 100 {
		t.Errorf("peak remap %.1f%% > 100%%", res.Metrics["peak_counterfactual_remap_pct"])
	}
}

func TestAblationSharedLadder(t *testing.T) {
	res := AblationSharedLadder(5, 2*time.Second)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	perFlow := res.Metrics["err_pct_per-flow"]
	shared := res.Metrics["err_pct_shared"]
	// Per-flow estimators are stuck at the initial rung on flows shorter
	// than an epoch: large error. The shared ladder converges.
	if perFlow < 40 {
		t.Errorf("per-flow error %.1f%%; premise (short flows defeat per-flow epochs) not visible", perFlow)
	}
	if shared > 20 {
		t.Errorf("shared-ladder error %.1f%%, want < 20%%", shared)
	}
	if shared >= perFlow {
		t.Errorf("shared (%.1f%%) not better than per-flow (%.1f%%)", shared, perFlow)
	}
}

func TestAblationChurn(t *testing.T) {
	res := AblationChurn(5, time.Second)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	// A table sized for the live set (or larger) samples nearly every
	// response; an 8-slot table against 64 live flows thrashes.
	healthy := res.Metrics["samples_per_resp_pct_m256"]
	starved := res.Metrics["samples_per_resp_pct_m8"]
	if healthy < 80 {
		t.Errorf("well-sized table sampled only %.1f%% of responses", healthy)
	}
	if starved > healthy/2 {
		t.Errorf("undersized table sampled %.1f%%, want far below %.1f%%", starved, healthy)
	}
	if res.Metrics["evictions_m8"] == 0 {
		t.Error("no evictions under an undersized table")
	}
	if res.Metrics["evictions_m256"] != 0 {
		t.Error("evictions despite ample capacity")
	}
}

// TestAblationChurnReproducible: an undersized table evicts among flows
// idle equally long on every admission, so the experiment replays from its
// seed only if eviction does not depend on map iteration order.
func TestAblationChurnReproducible(t *testing.T) {
	a := AblationChurn(1, 500*time.Millisecond)
	b := AblationChurn(1, 500*time.Millisecond)
	if !reflect.DeepEqual(a.Metrics, b.Metrics) {
		t.Errorf("same seed, different metrics:\n%v\n%v", a.Metrics, b.Metrics)
	}
}

func TestAblationL7(t *testing.T) {
	res := AblationL7(5, 2*time.Second)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	l4 := res.Metrics["hit_rate_pct_l4"]
	l7 := res.Metrics["hit_rate_pct_l7"]
	if l7 < l4+15 {
		t.Errorf("L7 hit rate %.1f%% not clearly above L4's %.1f%%", l7, l4)
	}
	// The median is the discriminating latency metric: with hit rates in
	// the 40–80%% range the p95 sits on the miss path for both modes.
	if res.Metrics["p50_us_l7"] >= res.Metrics["p50_us_l4"] {
		t.Errorf("L7 p50 %.0fµs not below L4 p50 %.0fµs",
			res.Metrics["p50_us_l7"], res.Metrics["p50_us_l4"])
	}
}

func TestAblationHandshake(t *testing.T) {
	res := AblationHandshake(5, 3*time.Second)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	// Both signals must eventually steer traffic off the degraded server.
	for _, mode := range []string{"ensemble", "handshake"} {
		if p95 := res.Metrics["post_p95_ms_"+mode]; p95 > 1.2 {
			t.Errorf("%s: post p95 %.3fms did not recover", mode, p95)
		}
		_, reacted := res.Metrics["reaction_ms_"+mode]
		_, preDrained := res.Metrics["pre_drained_"+mode]
		if !reacted && !preDrained {
			t.Errorf("%s neither reacted nor was pre-drained", mode)
		}
	}
	// The dense signal must not exhibit the sparse signal's pre-injection
	// drain instability.
	if _, unstable := res.Metrics["pre_drained_ensemble"]; unstable {
		t.Error("ensemble signal drained a healthy server before injection")
	}
	// The general estimator produces vastly more samples than one-per-SYN.
	if res.Metrics["samples_ensemble"] < 5*res.Metrics["samples_handshake"] {
		t.Errorf("ensemble samples (%v) not ≫ handshake samples (%v)",
			res.Metrics["samples_ensemble"], res.Metrics["samples_handshake"])
	}
}

func TestRequestClientHandshake(t *testing.T) {
	// Covered in depth by AblationHandshake; this asserts the SYN/SYN-ACK
	// sequencing: no request may leave before the SYN-ACK returns.
	res := AblationHandshake(7, time.Second)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestAblationSignal(t *testing.T) {
	res := AblationSignal(5, 3*time.Second)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	// The quantile-driven controller must put more traffic on the steady
	// server than the EWMA-driven one, and achieve a better client p95.
	if res.Metrics["steady_share_pct_p95"] <= res.Metrics["steady_share_pct_ewma"] {
		t.Errorf("p95 signal steady share %.1f%% not above ewma's %.1f%%",
			res.Metrics["steady_share_pct_p95"], res.Metrics["steady_share_pct_ewma"])
	}
	if res.Metrics["client_p95_us_p95"] >= res.Metrics["client_p95_us_ewma"] {
		t.Errorf("p95-signal client p95 %.0fµs not below ewma-signal %.0fµs",
			res.Metrics["client_p95_us_p95"], res.Metrics["client_p95_us_ewma"])
	}
}
