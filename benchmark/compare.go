package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// quartileSpread is the distance between the first and third quartile as a
// share of the median, quartiles as Python's statistics.quantiles(v, n=4)
// gives them: the figure the driver holds each bound against.
func quartileSpread(v []float64) float64 {
	n := len(v)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		d := float64(i*(n+1) - j*4)
		j = min(max(j, 1), n-1)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return ratio(q(3)-q(1), math.Abs(median(s)))
}

func readSuite(path string) (*suiteResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// measured gathers a workload's measured runs: how many there are, how many
// ops failed, and per end-to-end metric the median over the runs and its
// spread — between the runs when there are several, between the windows of
// the one run otherwise.
type measuredRuns struct {
	runs      int
	correct   bool
	attempted int64
	failed    int64
	value     map[string]float64
	spread    map[string]float64
}

func (s *suiteResult) measured(workload string) *measuredRuns {
	m := &measuredRuns{correct: true, value: make(map[string]float64), spread: make(map[string]float64)}
	perRun := make(map[string][]float64)
	var last *runResult
	for _, r := range s.Runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		m.runs++
		m.correct = m.correct && r.Correct
		m.attempted += r.Attempted
		m.failed += r.Failed
		for _, d := range endToEnd {
			perRun[d.Name] = append(perRun[d.Name], r.Metrics[d.Name].Value)
		}
		last = r
	}
	if m.runs == 0 {
		return nil
	}
	for _, d := range endToEnd {
		m.value[d.Name] = median(perRun[d.Name])
		if m.runs > 1 {
			m.spread[d.Name] = quartileSpread(perRun[d.Name])
		} else {
			m.spread[d.Name] = quartileSpread(last.Windows[d.Name])
		}
	}
	return m
}

// compareMain prints one row per workload × end-to-end metric: both
// medians, B's change as a share of A, the bound, and a verdict. worse means
// B is beyond the bound; unresolved means either side spreads wider than the
// bound (between its runs, or between its windows when it has one run), so
// the row proves nothing. Exit 1 on any worse.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := readSuite(args[0])
	if err == nil {
		var b *suiteResult
		if b, err = readSuite(args[1]); err == nil {
			return compareSuites(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark compare:", err)
	return 2
}

func compareSuites(a, b *suiteResult) int {
	fmt.Printf("A: rev %s dirty=%v seed %d   B: rev %s dirty=%v seed %d   (medians over each side's measured runs; deltas are shares of A)\n",
		a.Meta.GitRev, a.Meta.Dirty, a.Meta.Seed, b.Meta.GitRev, b.Meta.Dirty, b.Meta.Seed)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tdelta\tof base (A)\tbound\tspread A\tspread B\tverdict")
	worse, unresolved := 0, 0
	for _, w := range workloads {
		ra, rb := a.measured(w.Name), b.measured(w.Name)
		if ra == nil || rb == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\t-\t-\tmissing\n", w.Name)
			unresolved++
			continue
		}
		if ra.failed != rb.failed || !ra.correct || !rb.correct {
			verdict := "ok"
			if !rb.correct || rb.failed > ra.failed {
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(tw, "%s\tfailed ops\t%d of %d\t%d of %d\t\t\t\t\t\t%s\n", w.Name,
				ra.failed, ra.attempted, rb.failed, rb.attempted, verdict)
		}
		for _, d := range endToEnd {
			va, vb := ra.value[d.Name], rb.value[d.Name]
			bound := a.Bounds[d.Name]
			change := ratio(vb-va, math.Abs(va))
			bad := change
			if d.Better == "higher" {
				bad = -change
			}
			sa, sb := ra.spread[d.Name], rb.spread[d.Name]
			verdict := "ok"
			switch {
			case bad > bound:
				verdict = "worse"
				worse++
			case (sa > bound || sb > bound) && d.Name != "setup_s":
				// setup_s is a few samples of tens of milliseconds: its spread
				// is printed, only its median is judged.
				verdict = "unresolved"
				unresolved++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%+.2f%%\t%.4f %s\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				w.Name, d.Name, va, vb, 100*change, va, d.Unit, 100*bound, 100*sa, 100*sb, verdict)
		}
	}
	tw.Flush()
	fmt.Printf("%d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return 1
	}
	return 0
}

// Bound floors: a bound is never tighter than this however steady the
// calibration runs were.
var boundFloor = map[string]float64{
	"ops_per_s": 0.05, "p50_us": 0.05, "cpu_us_per_op": 0.05, "rss_mib": 0.05,
	"p95_us": 0.10, "setup_s": 0.25,
}

// maxBound is the widest bound the benchmark contract allows.
const maxBound = 0.25

type calibrationCell struct {
	Median float64   `json:"median"`
	Spread float64   `json:"quartile_spread"`
	Values []float64 `json:"values"`
}

type calibration struct {
	Meta   meta                                  `json:"meta"`
	Sets   int                                   `json:"sets"`
	Cells  map[string]map[string]calibrationCell `json:"workloads"`
	Bounds map[string]float64                    `json:"suggested_bounds"`
	Notes  []string                              `json:"notes,omitempty"`
}

// calibrateMain runs n measured sets on this commit (seeds seed…seed+n−1)
// and writes each workload × metric's run-to-run quartile spread. The
// suggested bound is max(floor, 3 × the widest spread) capped at maxBound:
// the driver accepts a benchmark whose spreads stay under a third of their
// bounds.
func (r *rig) calibrateMain(n int, seed int64, seconds float64) int {
	cal := calibration{Meta: r.meta(seed, seconds), Sets: n,
		Cells: make(map[string]map[string]calibrationCell), Bounds: make(map[string]float64)}
	values := make(map[string]map[string][]float64)
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			res, err := r.run(w, seed+int64(i), seconds, false, faults{})
			if err != nil {
				_ = r.stopAll()
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: set %d %s not correct: %v\n", i, w.Name, res.Problems)
				return 1
			}
			if values[w.Name] == nil {
				values[w.Name] = make(map[string][]float64)
			}
			for _, d := range endToEnd {
				values[w.Name][d.Name] = append(values[w.Name][d.Name], res.Metrics[d.Name].Value)
			}
			fmt.Printf("set %d/%d %-14s ops_per_s %.1f p50_us %.1f p95_us %.1f\n", i+1, n, w.Name,
				res.Metrics["ops_per_s"].Value, res.Metrics["p50_us"].Value, res.Metrics["p95_us"].Value)
		}
	}
	for _, d := range endToEnd {
		widest := 0.0
		for _, w := range workloads {
			v := values[w.Name][d.Name]
			cell := calibrationCell{Median: median(v), Spread: quartileSpread(v), Values: v}
			if cal.Cells[w.Name] == nil {
				cal.Cells[w.Name] = make(map[string]calibrationCell)
			}
			cal.Cells[w.Name][d.Name] = cell
			widest = max(widest, cell.Spread)
			if cell.Spread > 0.10 && d.Name != "setup_s" {
				cal.Notes = append(cal.Notes, fmt.Sprintf(
					"%s %s spreads %.1f%% over %d runs; were the noise independent from window to window, run_seconds of about %.0f would bring it under 10%% (host drift slower than a run does not average out: read the runs' host steal first)",
					w.Name, d.Name, 100*cell.Spread, n, seconds*math.Pow(cell.Spread/0.10, 2)))
			}
		}
		cal.Bounds[d.Name] = math.Round(100*min(maxBound, max(boundFloor[d.Name], 3*widest))) / 100
	}
	b, err := json.MarshalIndent(&cal, "", " ")
	path := filepath.Join(r.root, "benchmark", "CALIBRATION.json")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("suggested bounds %v written to %s\n", cal.Bounds, path)
	for _, n := range cal.Notes {
		fmt.Println("note:", n)
	}
	return 0
}
