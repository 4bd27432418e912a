package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"inbandlb/internal/dst"
)

// The sim_dst workload runs in a child process of this same binary, so the
// simulated dataplane is measured from outside like the live one: the
// parent reads the child's /proc accounting and the child only runs
// scenarios and reports what they did.

// simScenarios is the fixed population one pass runs: dst seeds 1…12, every
// third generated with the congestion channel. The benchmark's --seed only
// orders them, so every run does the same work and runs compare.
const simScenarios = 12

func simScenario(i int64) dst.Scenario {
	if i%3 == 0 {
		return dst.GenerateCongestion(i)
	}
	return dst.Generate(i)
}

// simPass is one pass over the population.
type simPass struct {
	Seconds   float64   `json:"seconds"`
	Sent      uint64    `json:"sent"`
	USPerReq  []float64 `json:"us_per_req"` // per scenario: wall µs ÷ requests it simulated
	DigestXor uint64    `json:"digest_xor"`
}

type simReport struct {
	Passes     []simPass `json:"passes"`
	Violations int       `json:"violations"`
	Detail     []string  `json:"detail,omitempty"`
	Spans      []span    `json:"spans,omitempty"`
}

// simChildMain is the child: generate, warm up, say ready, wait for go, run
// passes for the given time (two at least, so digests can be compared),
// report, wait for stdin to close.
func simChildMain(args []string) int {
	fs := flag.NewFlagSet("simchild", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "orders the scenario population")
	seconds := fs.Float64("seconds", 10, "measure for this long")
	scenarios := fs.Int("scenarios", simScenarios, "population size")
	trace := fs.Bool("trace", false, "record a span per scenario")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	order := rand.New(rand.NewSource(*seed)).Perm(*scenarios)
	scs := make([]dst.Scenario, *scenarios)
	for i := range scs {
		scs[i] = simScenario(int64(order[i] + 1))
	}
	// Warm-up (heap grown, lazy set-up done) on the same scenario whatever
	// the order, so that set-up time does not depend on the seed.
	if _, err := dst.Run(simScenario(1)); err != nil {
		fmt.Fprintln(os.Stderr, "simchild:", err)
		return 1
	}
	stdin := bufio.NewReader(os.Stdin)
	fmt.Println("ready")
	if _, err := stdin.ReadString('\n'); err != nil {
		return 1
	}

	var rep simReport
	t0 := time.Now()
	for time.Since(t0).Seconds() < *seconds || len(rep.Passes) < 2 {
		pass := simPass{USPerReq: make([]float64, 0, len(scs))}
		begin := time.Now()
		for i, sc := range scs {
			start := time.Now()
			if *trace {
				// The traced run regenerates the scenario so the op has two
				// child spans; the generated value is identical by contract.
				sc = simScenario(sc.Seed)
			}
			generated := time.Now()
			r, err := dst.Run(sc)
			end := time.Now()
			if err != nil {
				fmt.Fprintln(os.Stderr, "simchild:", err)
				return 1
			}
			if *trace {
				id := uint64(len(rep.Passes))<<32 | uint64(i)
				rep.Spans = append(rep.Spans,
					span{Op: id, Name: "txn", Start: int64(start.Sub(t0)), End: int64(end.Sub(t0))},
					span{Op: id, Name: "dst.generate", Parent: "txn", Start: int64(start.Sub(t0)), End: int64(generated.Sub(t0))},
					span{Op: id, Name: "dst.run", Parent: "txn", Start: int64(generated.Sub(t0)), End: int64(end.Sub(t0))})
			}
			rep.Violations += r.Total
			for _, v := range r.Violations {
				if len(rep.Detail) < 8 {
					rep.Detail = append(rep.Detail, fmt.Sprintf("seed %d: %s", sc.Seed, v))
				}
			}
			pass.Sent += r.Stats.Sent
			pass.DigestXor ^= r.Digest
			if r.Stats.Sent > 0 {
				pass.USPerReq = append(pass.USPerReq, float64(end.Sub(start))/1e3/float64(r.Stats.Sent))
			}
		}
		pass.Seconds = time.Since(begin).Seconds()
		rep.Passes = append(rep.Passes, pass)
	}
	if err := json.NewEncoder(os.Stdout).Encode(&rep); err != nil {
		return 1
	}
	_, _ = stdin.ReadString('\n') // the parent reads our peak RSS before letting go
	return 0
}

// simRun is one child's life as the parent saw it.
type simRun struct {
	report   simReport
	setup    time.Duration // launch → "ready"
	cpuUS    float64       // child CPU between go and report
	hwmKiB   int64
	stealPct float64
}

// runSim launches the child (this same binary: the smoke test's TestMain
// honours the simchild argument too), waits until it is ready and, when
// measure is set, lets it run and collects its report.
func (r *rig) runSim(seed int64, seconds float64, scenarios int, trace bool, measure bool) (*simRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"simchild", fmt.Sprintf("-seed=%d", seed), fmt.Sprintf("-seconds=%g", seconds),
		fmt.Sprintf("-scenarios=%d", scenarios)}
	if trace {
		args = append(args, "-trace")
	}
	logf, err := os.Create(filepath.Join(r.outDir, "simchild.stderr"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(self, args...)
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	begin := time.Now()
	c, err := r.launch("simchild", cmd, r.dutCPU)
	if err != nil {
		return nil, err
	}
	defer r.stop(c)
	out := bufio.NewReaderSize(stdout, 1<<20)
	line, err := out.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "ready" {
		return nil, fmt.Errorf("sim child not ready: %q %v (see %s)", line, err, logf.Name())
	}
	run := &simRun{setup: time.Since(begin)}
	if !measure {
		stdin.Close()
		return run, nil
	}
	before, err := readProc(c.pid)
	if err != nil {
		return nil, err
	}
	steal0, total0 := hostJiffies()
	if _, err := stdin.Write([]byte("go\n")); err != nil {
		return nil, err
	}
	line, err = out.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("sim child died mid-run: %v (see %s)", err, logf.Name())
	}
	steal1, total1 := hostJiffies()
	run.stealPct = 100 * ratio(steal1-steal0, total1-total0)
	after, err := readProc(c.pid)
	if err != nil {
		return nil, err
	}
	run.cpuUS = after.cpuUS() - before.cpuUS()
	run.hwmKiB = after.hwmKiB
	if err := json.Unmarshal([]byte(line), &run.report); err != nil {
		return nil, fmt.Errorf("sim child report: %w", err)
	}
	stdin.Close()
	return run, nil
}
