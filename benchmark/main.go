// Command benchmark is the repository's end-to-end load rig and per-layer
// cost ledger. It builds cmd/memcached and cmd/lbproxy from the checkout,
// runs them as separate processes on the loopback interface, drives six
// named workloads against them, verifies every answer and prints every
// metric by name with its unit. See README.md.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run, last stdout line is the result JSON
//	benchmark -seed N [-sets M]                                all six workloads, measured (M times) and traced, with the ledger
//	benchmark -calibrate N                                     N measured sets, spreads to CALIBRATION.json
//	benchmark compare A.json B.json                            two result files, row by row against the bounds
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "simchild":
			os.Exit(simChildMain(os.Args[2:]))
		case "spin":
			os.Exit(spinMain())
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload and end with the result JSON line (empty: run all six)")
	seed := fs.Int64("seed", 1, "workload seed: keys, values and request order all derive from it")
	seconds := fs.Float64("seconds", 0, "measured seconds per run (0: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
	calibrate := fs.Int("calibrate", 0, "run this many measured sets and write their spreads to CALIBRATION.json")
	out := fs.String("out", "", "suite: write the results JSON here (default benchmark/out/results_seed<N>.json)")
	sets := fs.Int("sets", 1, "suite: measure every workload this many times (seeds seed, seed+1, …); compare reads the median")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	r, err := newRig()
	if err == nil {
		err = r.pinGenerator()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	r.killOnSignal()
	defer func() {
		if p := recover(); p != nil {
			_ = r.stopAll()
			panic(p)
		}
	}()
	spec, err := readSpec(r.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	buildTook, err := r.build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("build_s %.3f s (ungated: depends on the build cache)\n", buildTook.Seconds())

	switch {
	case *calibrate > 0:
		return r.calibrateMain(*calibrate, *seed, *seconds)
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: no workload %q\n", *name)
			return 2
		}
		res, err := r.run(w, *seed, *seconds, *trace == 1, faults{})
		if err != nil {
			_ = r.stopAll()
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		stdout := bufio.NewWriter(os.Stdout)
		res.print(stdout)
		fmt.Fprintln(stdout, res.driverLine())
		stdout.Flush()
		return 0
	default:
		return r.suiteMain(spec, *seed, *seconds, *sets, *out)
	}
}

// benchSpec is BENCHMARK.json: the contract this program is held to.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if s.RunSeconds < 1 {
		return nil, fmt.Errorf("BENCHMARK.json: run_seconds %d", s.RunSeconds)
	}
	return &s, nil
}

func (s *benchSpec) bounds() map[string]float64 {
	out := make(map[string]float64)
	for _, m := range s.EndToEnd {
		if m.Bound != nil {
			out[m.Name] = *m.Bound
		}
	}
	return out
}

// meta says what the numbers were measured on.
type meta struct {
	GitRev     string  `json:"git_rev"`
	Dirty      bool    `json:"dirty"`
	NProc      int     `json:"nproc"`
	Kernel     string  `json:"kernel"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	RunSeconds float64 `json:"run_seconds"`
	Link       string  `json:"link"`
	When       string  `json:"when"`
}

func (r *rig) meta(seed int64, seconds float64) meta {
	m := meta{
		GitRev: "unknown", NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, RunSeconds: seconds,
		Link: "loopback, not a real link", When: time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = r.root
		b, err := cmd.Output()
		return strings.TrimSpace(string(b)), err
	}
	if rev, err := git("rev-parse", "--short", "HEAD"); err == nil {
		m.GitRev = rev
		if st, err := git("status", "--porcelain"); err == nil {
			m.Dirty = st != ""
		}
	}
	return m
}

// suiteResult is the file compare reads.
type suiteResult struct {
	Meta   meta               `json:"meta"`
	Bounds map[string]float64 `json:"bounds"`
	Runs   []*runResult       `json:"runs"`
}

// suiteMain runs every workload's measured leg (sets times, on consecutive
// seeds), then its traced leg, and prints everything. It exits non-zero if
// any run was not correct.
func (r *rig) suiteMain(spec *benchSpec, seed int64, seconds float64, sets int, out string) int {
	suite := suiteResult{Meta: r.meta(seed, seconds), Bounds: spec.bounds()}
	stdout := bufio.NewWriter(os.Stdout)
	defer stdout.Flush()
	fmt.Fprintf(stdout, "rev %s dirty=%v nproc=%d kernel=%s %s GOMAXPROCS=%d seed=%d %s\n",
		suite.Meta.GitRev, suite.Meta.Dirty, suite.Meta.NProc, suite.Meta.Kernel,
		suite.Meta.GoVersion, suite.Meta.GOMAXPROCS, seed, suite.Meta.Link)
	begin := time.Now()
	bad := 0
	for leg := 0; leg <= sets; leg++ { // legs 0…sets-1 are measured, the last is traced
		traced := leg == sets
		for _, w := range workloads {
			runSeed := seed
			if !traced {
				runSeed += int64(leg)
			}
			res, err := r.run(w, runSeed, seconds, traced, faults{})
			if err != nil {
				_ = r.stopAll()
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			res.print(stdout)
			stdout.Flush()
			if !res.Correct {
				bad++
			}
			suite.Runs = append(suite.Runs, res)
		}
	}
	fmt.Fprintf(stdout, "total %.1f s, %d of %d runs not correct\n", time.Since(begin).Seconds(), bad, len(suite.Runs))
	if out == "" {
		out = filepath.Join(r.outDir, fmt.Sprintf("results_seed%d.json", seed))
	}
	b, err := json.MarshalIndent(&suite, "", " ")
	if err == nil {
		err = os.WriteFile(out, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "results written to %s\n", out)
	if bad > 0 {
		return 1
	}
	return 0
}
