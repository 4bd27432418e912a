package experiments

import (
	"net/netip"
	"time"

	"inbandlb/internal/core"
	"inbandlb/internal/faults"
	"inbandlb/internal/netsim"
	"inbandlb/internal/packet"
	"inbandlb/internal/stats"
	"inbandlb/internal/tcpsim"
	"inbandlb/internal/testbed"
	"inbandlb/internal/trace"
)

// Fig2Config parameterizes the Fig. 2 reproduction: a backlogged
// window-limited TCP flow observed at a mid-path tap, with the true RTT
// stepping up mid-run.
type Fig2Config struct {
	Seed     int64
	Duration time.Duration
	// StepAt is when the true RTT increases (paper: t = 3 s).
	StepAt time.Duration
	// Ensemble configures Fig. 2(b)'s Algorithm 2.
	Ensemble core.EnsembleConfig
	// Trace, when non-nil, records every packet observed at the tap
	// (exportable as CSV or pcap via internal/trace).
	Trace *trace.Recorder
}

// The Fig. 2 flow and its step.
const (
	// fig2StepExtra is the one-way delay added at StepAt, applied on the
	// tap→server link so it is part of the LB-controllable delay.
	fig2StepExtra = 1600 * time.Microsecond
	// fig2RefTimeout is a well-placed δ (between the intra-batch gap and
	// the inter-batch pause) whose sample count serves as the per-epoch
	// count of true RTTs — the paper's E/T_LB yardstick.
	fig2RefTimeout = 400 * time.Microsecond
	// fig2Window segments of fig2SegSize bytes shape the flow.
	fig2Window  = 4
	fig2SegSize = 1500
	// fig2LinkRate is 12.5 MB/s (100 Mb/s): a 1500 B segment serializes
	// in 120 µs, so δ = 64 µs sits below the intra-batch gap (too low)
	// while the inter-batch pause stays well above 120 µs.
	fig2LinkRate = 12.5e6
)

// fig2FixedTimeouts are the δ values for Fig. 2(a) (paper: 64 µs, 1024 µs).
var fig2FixedTimeouts = []time.Duration{64 * time.Microsecond, 1024 * time.Microsecond}

func (c *Fig2Config) applyDefaults() {
	if c.Duration <= 0 {
		c.Duration = 6 * time.Second
	}
	if c.StepAt <= 0 {
		c.StepAt = c.Duration / 2
	}
}

// pathForFig2 assembles the Fig. 2 topology: base RTT 1 ms (250+250 one-way
// out, 500 back), occasional client hiccups so that too-large timeouts
// produce their characteristic sparse, too-large samples.
func pathForFig2(cfg Fig2Config) *testbed.Path {
	return testbed.NewPath(testbed.PathConfig{
		Seed:           cfg.Seed,
		ClientToTap:    250 * time.Microsecond,
		TapToServer:    250 * time.Microsecond,
		ServerToClient: 500 * time.Microsecond,
		LinkRate:       fig2LinkRate,
		RTTSchedule:    faults.Step{Start: cfg.StepAt, Extra: fig2StepExtra},
		Bulk: tcpsim.BulkConfig{
			Flow: packet.NewFlowKey(
				netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.1.0.1"),
				40000, 5001, packet.ProtoTCP),
			Window:     fig2Window,
			SegSize:    fig2SegSize,
			HiccupProb: 0.01,
			HiccupMin:  2 * time.Millisecond,
			HiccupMax:  6 * time.Millisecond,
		},
	})
}

// phaseStats summarizes estimator samples against ground truth in one phase.
type phaseStats struct {
	count  int
	values []time.Duration
}

func (p *phaseStats) add(v time.Duration) {
	p.count++
	p.values = append(p.values, v)
}

func (p *phaseStats) median() time.Duration {
	return stats.ExactQuantile(p.values, 0.5)
}

// Fig2a reproduces Fig. 2(a): FIXEDTIMEOUT with fixed δ values against the
// client's ground truth. Expected shape: the low δ floods with samples near
// the intra-batch gap; the high δ yields few, too-large samples before the
// step and roughly-correct ones after.
func Fig2a(cfg Fig2Config) *Result {
	cfg.applyDefaults()
	res := newResult("fig2a")
	path := pathForFig2(cfg)

	truth := stats.NewSeries("T_client")
	var truthPre, truthPost phaseStats
	path.Sender.GroundTruth = func(now, rtt time.Duration) {
		truth.AddDuration(now, rtt)
		if now < cfg.StepAt {
			truthPre.add(rtt)
		} else {
			truthPost.add(rtt)
		}
	}

	type ftRun struct {
		est       *core.FixedTimeout
		series    *stats.Series
		pre, post phaseStats
	}
	runs := make([]*ftRun, len(fig2FixedTimeouts))
	for i, d := range fig2FixedTimeouts {
		runs[i] = &ftRun{
			est:    core.NewFixedTimeout(d),
			series: stats.NewSeries("T_LB δ=" + d.String()),
		}
	}
	// Reference estimator: counts true batches (one per RTT), the paper's
	// E/T_LB baseline for judging over- and under-sampling.
	ref := &ftRun{est: core.NewFixedTimeout(fig2RefTimeout)}
	all := make([]*ftRun, 0, len(runs)+1)
	all = append(all, runs...)
	all = append(all, ref)
	path.OnTapPacket = func(now time.Duration, p *netsim.Packet) {
		if cfg.Trace != nil {
			cfg.Trace.Record(now, p)
		}
		for _, r := range all {
			if s, ok := r.est.Observe(now); ok {
				if r.series != nil {
					r.series.AddDuration(now, s)
				}
				if now < cfg.StepAt {
					r.pre.add(s)
				} else {
					r.post.add(s)
				}
			}
		}
	}

	path.Run(cfg.Duration)

	res.Series = append(res.Series, truth)
	res.Header = []string{"series", "phase", "samples", "median_us", "truth_median_us", "truth_count"}
	addPhase := func(name string, ph, tr *phaseStats) {
		res.addRow(name, phaseName(tr == &truthPre), itoa(ph.count), usStr(ph.median()), usStr(tr.median()), itoa(tr.count))
	}
	for _, r := range runs {
		res.Series = append(res.Series, r.series)
		addPhase(r.series.Name, &r.pre, &truthPre)
		addPhase(r.series.Name, &r.post, &truthPost)
	}

	res.addRow("T_LB δ="+fig2RefTimeout.String()+" (ref)", "pre-step", itoa(ref.pre.count), usStr(ref.pre.median()), usStr(truthPre.median()), itoa(truthPre.count))

	// Shape metrics for benches and tests. The reference estimator's
	// count approximates the number of true RTT batches per phase.
	low, high := runs[0], runs[len(runs)-1]
	res.Metrics["low_delta_pre_count"] = float64(low.pre.count)
	res.Metrics["high_delta_pre_count"] = float64(high.pre.count)
	res.Metrics["ref_pre_count"] = float64(ref.pre.count)
	res.Metrics["ref_pre_median_us"] = float64(ref.pre.median()) / 1e3
	res.Metrics["truth_pre_count"] = float64(truthPre.count)
	res.Metrics["low_delta_pre_median_us"] = float64(low.pre.median()) / 1e3
	res.Metrics["high_delta_post_median_us"] = float64(high.post.median()) / 1e3
	res.Metrics["truth_pre_median_us"] = float64(truthPre.median()) / 1e3
	res.Metrics["truth_post_median_us"] = float64(truthPost.median()) / 1e3

	res.addNote("low δ floods: %d samples vs ~%d true RTT batches pre-step (median %v vs truth %v)",
		low.pre.count, ref.pre.count, low.pre.median(), truthPre.median())
	res.addNote("high δ starves: %d samples pre-step, median %v (too large)",
		high.pre.count, high.pre.median())
	return res
}

// Fig2b reproduces Fig. 2(b): ENSEMBLETIMEOUT tracking the ground truth
// across the RTT step via sample-cliff detection.
func Fig2b(cfg Fig2Config) *Result {
	cfg.applyDefaults()
	res := newResult("fig2b")
	path := pathForFig2(cfg)

	truth := stats.NewSeries("T_client")
	var truthPre, truthPost phaseStats

	est := core.MustEnsemble(cfg.Ensemble)
	estSeries := stats.NewSeries("T_LB ensemble")
	chosenSeries := stats.NewSeries("chosen δ")
	var firstGoodAfterStep time.Duration = -1
	est.OnEpoch = func(now time.Duration, counts []uint64, chosen int) {
		chosenSeries.AddDuration(now, est.CurrentTimeout())
	}

	var pre, post phaseStats
	var postErr []float64
	var lastTruth time.Duration
	path.Sender.GroundTruth = func(now, rtt time.Duration) {
		lastTruth = rtt
		truth.AddDuration(now, rtt)
		if now < cfg.StepAt {
			truthPre.add(rtt)
		} else {
			truthPost.add(rtt)
		}
	}
	path.OnTapPacket = func(now time.Duration, p *netsim.Packet) {
		s, ok := est.Observe(now)
		if !ok {
			return
		}
		estSeries.AddDuration(now, s)
		if now < cfg.StepAt {
			pre.add(s)
		} else {
			post.add(s)
			if lastTruth > 0 {
				e := relErr(s, lastTruth)
				postErr = append(postErr, e)
				if firstGoodAfterStep < 0 && e < 0.25 {
					firstGoodAfterStep = now
				}
			}
		}
	}

	path.Run(cfg.Duration)

	res.Series = append(res.Series, truth, estSeries, chosenSeries)
	res.Header = []string{"phase", "samples", "median_us", "truth_median_us", "truth_count"}
	res.addRow("pre-step", itoa(pre.count), usStr(pre.median()), usStr(truthPre.median()), itoa(truthPre.count))
	res.addRow("post-step", itoa(post.count), usStr(post.median()), usStr(truthPost.median()), itoa(truthPost.count))

	res.Metrics["pre_median_us"] = float64(pre.median()) / 1e3
	res.Metrics["post_median_us"] = float64(post.median()) / 1e3
	res.Metrics["truth_pre_median_us"] = float64(truthPre.median()) / 1e3
	res.Metrics["truth_post_median_us"] = float64(truthPost.median()) / 1e3
	if firstGoodAfterStep >= 0 {
		lag := firstGoodAfterStep - cfg.StepAt
		res.Metrics["adaptation_lag_ms"] = float64(lag) / 1e6
		res.addNote("first accurate sample %v after the RTT step", lag)
	} else {
		res.addNote("estimator never re-converged after the step")
	}
	res.addNote("pre-step median error %.1f%%, post-step median error %.1f%%",
		100*relErr(pre.median(), truthPre.median()),
		100*relErr(post.median(), truthPost.median()))
	return res
}

func relErr(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	e := float64(a-b) / float64(b)
	if e < 0 {
		e = -e
	}
	return e
}

func phaseName(pre bool) string {
	if pre {
		return "pre-step"
	}
	return "post-step"
}

func itoa(n int) string { return fmtInt(n) }
