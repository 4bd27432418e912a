package main

import (
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// The smoke test asserts structure and correctness only, never a timing:
// every name BENCHMARK.json declares comes out of a run with its unit and
// nothing else does, a clean run is correct, and each deliberate breakage
// makes a run incorrect. Run it with `go test` in benchmark/ (the benchmark
// is a module of its own, so the root's `go test ./...` does not reach it).

func TestMain(m *testing.M) {
	// The rig launches its sim child and its spinners from the running
	// binary; under test that is this test binary.
	if len(os.Args) > 1 && os.Args[1] == "simchild" {
		os.Exit(simChildMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "spin" {
		os.Exit(spinMain())
	}
	os.Exit(m.Run())
}

// One rig serves every test: making it pins the process to a CPU, which
// can be done once.
var shared struct {
	once sync.Once
	rig  *rig
	spec *benchSpec
	skip string
	err  error
}

func smokeRig(t *testing.T) (*rig, *benchSpec) {
	t.Helper()
	shared.once.Do(func() {
		if _, err := os.Stat("/proc/self/stat"); err != nil {
			shared.skip = "no /proc: the rig reads CPU and RSS from it"
			return
		}
		if runtime.NumCPU() < 2 {
			shared.skip = "the rig needs 2 cores"
			return
		}
		r, err := newRig()
		if err == nil {
			err = r.pinGenerator()
		}
		if err == nil {
			_, err = r.build()
		}
		if err == nil {
			shared.spec, err = readSpec(r.root)
		}
		shared.rig, shared.err = r, err
	})
	if shared.skip != "" {
		t.Skip(shared.skip)
	}
	if shared.err != nil {
		t.Fatal(shared.err)
	}
	t.Cleanup(func() {
		if err := shared.rig.stopAll(); err != nil {
			t.Error(err)
		}
	})
	return shared.rig, shared.spec
}

// quick returns the workload shortened for a test: the same traffic, less
// warm-up.
func quick(t *testing.T, name string) workload {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	w.warm = 100 * time.Millisecond
	if w.sim {
		w.scenarios = 2
	}
	return w
}

func checkNames(t *testing.T, res *runResult, want []specMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics out, BENCHMARK.json declares %d", res.Workload, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: BENCHMARK.json declares %s, the run did not report it", res.Workload, m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", res.Workload, m.Name, got.Unit, m.Unit)
		}
	}
	if !strings.Contains(res.driverLine(), `"correct":true`) {
		t.Errorf("%s: driver line does not say correct: %s", res.Workload, res.driverLine())
	}
}

func TestSpecMatchesCatalogue(t *testing.T) {
	_, spec := smokeRig(t)
	same := func(kind string, defs []metricDef, got []specMetric, bounded bool) {
		if len(defs) != len(got) {
			t.Fatalf("%s: catalogue has %d metrics, BENCHMARK.json %d", kind, len(defs), len(got))
		}
		for i, d := range defs {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: catalogue %+v, BENCHMARK.json %+v", kind, i, d, g)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %s: bound present = %v", kind, g.Name, g.Bound != nil)
			}
			if g.Bound != nil && (*g.Bound <= 0 || *g.Bound > maxBound) {
				t.Errorf("%s %s: bound %v outside (0, %v]", kind, g.Name, *g.Bound, maxBound)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd, true)
	same("per_layer", perLayer, spec.PerLayer, false)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("catalogue has %d workloads, BENCHMARK.json %d", len(workloads), len(spec.Workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: catalogue %q, BENCHMARK.json %q", i, w.Name, spec.Workloads[i].Name)
		}
	}
}

func TestSmokeLive(t *testing.T) {
	r, spec := smokeRig(t)
	w := quick(t, "kv_small")
	res, err := r.run(w, 1, 2.5, false, faults{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("clean measured run: correct=%v failed=%d problems=%v", res.Correct, res.Failed, res.Problems)
	}
	checkNames(t, res, spec.EndToEnd)
	for _, m := range spec.EndToEnd {
		if res.Metrics[m.Name].Value <= 0 {
			t.Errorf("end-to-end metric %s is %v; it must never be 0", m.Name, res.Metrics[m.Name].Value)
		}
	}

	res, err = r.run(w, 1, 2, true, faults{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("clean traced run: problems=%v", res.Problems)
	}
	checkNames(t, res, spec.PerLayer)
	if res.Metrics["lbproxy.identity_ok"].Value != 1 {
		t.Error("lbproxy.identity_ok is not 1 on a clean run")
	}
	added := res.Metrics["lbproxy.added_p50_us"].Value
	sum := res.Metrics["ledger.accounted_us_per_op"].Value + res.Metrics["ledger.residual_us_per_op"].Value
	if d := added - sum; d > 1e-6 || d < -1e-6 {
		t.Errorf("ledger does not add up: accounted + residual = %v, added_p50_us = %v", sum, added)
	}
	if _, err := os.Stat(r.outDir + "/trace_kv_small.jsonl"); err != nil {
		t.Errorf("traced run left no span file: %v", err)
	}
}

func TestSmokeFaultsFailTheRun(t *testing.T) {
	r, _ := smokeRig(t)
	w := quick(t, "kv_small")
	for name, f := range map[string]faults{
		"corrupted GET value":      {corruptValues: true},
		"forced Accepted mismatch": {skewAccepted: true},
	} {
		res, err := r.run(w, 2, 0.5, false, f)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct {
			t.Errorf("%s: the run still reports correct", name)
		}
		if f.corruptValues && res.Failed == 0 {
			t.Errorf("%s: no op counted as failed", name)
		}
	}
}

func TestSmokeSim(t *testing.T) {
	r, spec := smokeRig(t)
	w := quick(t, "sim_dst")
	res, err := r.run(w, 1, 0.5, false, faults{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("sim measured run: correct=%v failed=%d problems=%v", res.Correct, res.Failed, res.Problems)
	}
	checkNames(t, res, spec.EndToEnd)

	res, err = r.run(w, 1, 0.5, true, faults{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("sim traced run: problems=%v", res.Problems)
	}
	checkNames(t, res, spec.PerLayer)
	if res.Metrics["dst.digest_stable"].Value != 1 {
		t.Error("dst.digest_stable is not 1")
	}
}
