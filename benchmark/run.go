package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// A measured run splits its --seconds into this many back-to-back windows
// against the same warmed processes and reports the median window: one
// scheduler hiccup then costs one window, not the run.
const measureWindows = 5

// setupRepeats is how many times a run sets the system up; setup_s is the
// median, the last set-up is the one measured.
const setupRepeats = 9

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one workload's measured (end-to-end) or traced (per-layer)
// run.
type runResult struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Windows holds each end-to-end metric's per-window values; the
	// metric is their median and compare reads their spread.
	Windows  map[string][]float64 `json:"windows,omitempty"`
	Problems []string             `json:"problems,omitempty"`
	Ledger   []ledgerRow          `json:"ledger,omitempty"`
	Seconds  float64              `json:"run_seconds"` // wall time of the whole run
	// Steal is the host-stolen share of CPU time in each measured window, %:
	// what to look at first when a run is an outlier.
	Steal []float64 `json:"host_steal_pct,omitempty"`
	// MaxUS is the slowest op of each measured window: a stall too rare to
	// reach p95 still shows here and in ops_per_s.
	MaxUS []float64 `json:"max_us,omitempty"`
}

func (res *runResult) problem(format string, args ...any) {
	res.Problems = append(res.Problems, fmt.Sprintf(format, args...))
	res.Correct = false
}

func newResult(workload string, traced bool, defs []metricDef) *runResult {
	r := &runResult{Workload: workload, Traced: traced, Correct: true,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Unit: d.Unit}
	}
	return r
}

// set records a metric the catalogue defines; an unknown name is a bug.
func (res *runResult) set(name string, v float64) {
	m, ok := res.Metrics[name]
	if !ok {
		panic("metric not in catalogue: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.Value = v
	res.Metrics[name] = m
}

// setWindows records an end-to-end metric as the median of its windows.
func (res *runResult) setWindows(name string, vals []float64) {
	if res.Windows == nil {
		res.Windows = make(map[string][]float64)
	}
	res.Windows[name] = vals
	res.set(name, median(vals))
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// run measures one workload, end to end or traced.
func (r *rig) run(w workload, seed int64, seconds float64, traced bool, f faults) (*runResult, error) {
	begin := time.Now()
	if err := r.startSpinners(); err != nil {
		return nil, err
	}
	var res *runResult
	var err error
	switch {
	case w.sim && traced:
		res, err = r.simTraced(w, seed, seconds)
	case w.sim:
		res, err = r.simE2E(w, seed, seconds)
	case traced:
		res, err = r.liveTraced(w, seed, seconds, f)
	default:
		res, err = r.liveE2E(w, seed, seconds, f)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if left := r.stopAll(); left != nil {
		res.problem("%v", left)
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.problem("no op was attempted")
	}
	res.Seconds = time.Since(begin).Seconds()
	return res, nil
}

// liveE2E is the measured leg: set up setupRepeats times, then warm up and
// run measureWindows windows with tracing off.
func (r *rig) liveE2E(w workload, seed int64, seconds float64, f faults) (*runResult, error) {
	res := newResult(w.Name, false, endToEnd)
	data := newDataset(seed, w.keys, w.valueSize)
	var env *liveEnv
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if env != nil {
			env.stop()
		}
		e, d, err := r.startLive(w, data, f)
		if err != nil {
			return nil, err
		}
		env = e
		setups = append(setups, d.Seconds())
	}
	defer env.stop()
	res.setWindows("setup_s", setups)

	idle, err := env.openFleet(w.idleConns)
	if err != nil {
		return nil, err
	}
	defer idle.close()
	if w.delays[1] != 0 {
		if err := env.setDelays(w.delays[0], w.delays[1]); err != nil {
			return nil, err
		}
	}
	swap := env.swapper(w, func(err error) { res.problem("%v", err) })
	l := leg{
		spec: w.spec(env.proxyAddr, data, seed, false),
		warm: w.warm, windows: measureWindows,
		windowLen: time.Duration(seconds / measureWindows * float64(time.Second)),
		pid:       env.proxy.pid,
		place:     env.placer(w),
	}
	if swap != nil {
		l.onWindow = func(i int) { swap(i % 2) }
	}
	lr, err := l.run()
	if err != nil {
		return nil, err
	}
	idle.close()

	var ops, p50, p95, cpu, rss, steal []float64
	for i := range lr.windows {
		win := &lr.windows[i]
		res.Attempted += win.attempted
		res.Failed += win.failed
		n := float64(win.ops())
		ops = append(ops, n/win.seconds)
		p50 = append(p50, quantileUS(win.lat, 0.50))
		p95 = append(p95, quantileUS(win.lat, 0.95))
		cpu = append(cpu, ratio(win.procEnd.cpuUS()-win.proc.cpuUS(), n))
		rss = append(rss, float64(win.procEnd.hwmKiB)/1024)
		steal = append(steal, win.stealPct)
		res.MaxUS = append(res.MaxUS, quantileUS(win.lat, 1))
	}
	res.setWindows("ops_per_s", ops)
	res.setWindows("p50_us", p50)
	res.setWindows("p95_us", p95)
	res.setWindows("cpu_us_per_op", cpu)
	res.setWindows("rss_mib", rss)
	// Peak RSS is read at the end of the first window: set-up, the idle
	// fleet, warm-up and a window of traffic are all in it. Later readings
	// (kept in Windows) climb with the collector's cycle, not with the
	// workload: with 4000 goroutine stacks live, idle_fleet's heap may
	// double before the next collection, and where in that climb a 10 s run
	// ends moved the last reading from 59 to 82 MiB between identical runs,
	// the first one from 50 to 55.
	res.set("rss_mib", rss[0])
	res.Steal = steal
	res.checkLeg(lr)

	_, _, problems := env.quiesce(f)
	for _, p := range problems {
		res.problem("%s", p)
	}
	env.stop()
	if w.audit {
		if err := env.verifyAudit(); err != nil {
			res.problem("%v", err)
		}
	}
	return res, nil
}

// checkLeg turns a leg's failures into problems of the run.
func (res *runResult) checkLeg(lr *legResult) {
	if lr.mismatch > 0 {
		res.problem("%d GET values differed from what the key must hold", lr.mismatch)
	}
	if lr.firstErr != nil {
		res.problem("first failed op: %v", lr.firstErr)
	}
	for i := range lr.windows {
		if lr.windows[i].ops() == 0 {
			res.problem("window %d completed no op", i)
		}
	}
}

// simE2E measures the sim child: passes over the fixed scenario population
// are its windows.
func (r *rig) simE2E(w workload, seed int64, seconds float64) (*runResult, error) {
	res := newResult(w.Name, false, endToEnd)
	var setups []float64
	for i := 0; i < setupRepeats-1; i++ {
		run, err := r.runSim(seed, 0, w.scenarios, false, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, run.setup.Seconds())
	}
	run, err := r.runSim(seed, seconds, w.scenarios, false, true)
	if err != nil {
		return nil, err
	}
	res.setWindows("setup_s", append(setups, run.setup.Seconds()))
	res.simMetrics(run)
	return res, nil
}

func (res *runResult) simMetrics(run *simRun) {
	var ops, p50, p95 []float64
	var sent uint64
	for _, p := range run.report.Passes {
		sent += p.Sent
		ops = append(ops, ratio(float64(p.Sent), p.Seconds))
		s := append([]float64(nil), p.USPerReq...)
		sort.Float64s(s)
		if len(s) > 0 {
			p50 = append(p50, s[len(s)/2])
			p95 = append(p95, s[int(0.95*float64(len(s)))])
		}
	}
	res.Attempted = int64(sent)
	res.Failed = int64(run.report.Violations)
	res.setWindows("ops_per_s", ops)
	res.setWindows("p50_us", p50)
	res.setWindows("p95_us", p95)
	res.setWindows("cpu_us_per_op", []float64{ratio(run.cpuUS, float64(sent))})
	res.setWindows("rss_mib", []float64{float64(run.hwmKiB) / 1024})
	res.Steal = []float64{run.stealPct}
	if run.report.Violations > 0 {
		res.problem("%d oracle violations: %s", run.report.Violations, strings.Join(run.report.Detail, "; "))
	}
	if !digestStable(run.report.Passes) {
		res.problem("scenario digests differ between passes over the same scenarios")
	}
}

func digestStable(passes []simPass) bool {
	for _, p := range passes[1:] {
		if p.DigestXor != passes[0].DigestXor {
			return false
		}
	}
	return len(passes) >= 2
}

// driverLine is the contract's last line of standard output.
func (res *runResult) driverLine() string {
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// print writes every metric by name with its unit, windows' min and max
// beside each median.
func (res *runResult) print(w *bufio.Writer) {
	leg, defs := "measured", endToEnd
	if res.Traced {
		leg, defs = "traced", perLayer
	}
	fmt.Fprintf(w, "%s  [%s leg, %.1f s]  attempted=%d failed=%d error_rate=%.6f correct=%v\n",
		res.Workload, leg, res.Seconds, res.Attempted, res.Failed,
		ratio(float64(res.Failed), float64(res.Attempted)), res.Correct)
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Fprintf(w, "  %-34s %14.4f %-6s", d.Name, m.Value, m.Unit)
		if win := res.Windows[d.Name]; len(win) > 1 {
			s := append([]float64(nil), win...)
			sort.Float64s(s)
			fmt.Fprintf(w, "  (median of %d windows, min %.4f max %.4f)", len(s), s[0], s[len(s)-1])
		}
		fmt.Fprintln(w)
	}
	if len(res.Steal) > 0 {
		fmt.Fprintf(w, "  host steal per window, %%: %.1f\n", res.Steal)
	}
	if len(res.MaxUS) > 0 {
		fmt.Fprintf(w, "  slowest op per window, us: %.0f\n", res.MaxUS)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	if len(res.Ledger) > 0 {
		printLedger(w, res)
	}
}

// writeSpans writes the traced run's spans, one JSON object per line.
func (r *rig) writeSpans(workload string, spans []span) error {
	f, err := os.Create(filepath.Join(r.outDir, "trace_"+workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
