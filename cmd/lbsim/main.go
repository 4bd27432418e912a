// Command lbsim regenerates the paper's figures and this repository's
// ablations from the deterministic simulator.
//
// Usage:
//
//	lbsim -exp fig3 -duration 20s -seed 42 -csv out/ -plot
//	lbsim -exp arena -arena.seeds 10 -arena.out results/arena
//	lbsim -exp all
//
// Run `lbsim -exp help` (or any unknown name) for the experiment list; the
// dispatch table lives in internal/experiments and is shared with the
// usage text, so the two cannot drift apart.
//
// The dst experiment sweeps randomized deterministic-simulation scenarios
// (seeds *seed..*seed+24) through the invariant oracles and prints minimized
// repro lines for any violation; see internal/dst and DESIGN.md §10. The
// arena experiment races every registered routing policy through the same
// DST seed set and the outage and Fig-3 experiments' own clusters and
// scores a leaderboard; see internal/experiments/arena.go and DESIGN.md
// §11.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux for -pprof
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"inbandlb/internal/experiments"
	"inbandlb/internal/trace"
)

// gitRev tags arena artifacts with the commit (and dirty state) they came
// from.
func gitRev() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "dev"
	}
	if rev := strings.TrimSpace(string(out)); rev != "" {
		return rev
	}
	return "dev"
}

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment to run (see -exp help for the list)")
		seed       = flag.Int64("seed", 42, "random seed")
		duration   = flag.Duration("duration", 0, "simulated duration (0 = per-experiment default)")
		csvDir     = flag.String("csv", "", "directory to write per-experiment CSV series into")
		plot       = flag.Bool("plot", false, "render ASCII plots of the series")
		pcapPath   = flag.String("pcap", "", "write the fig2a tap's packet trace as a pcap file (fig2a only)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof at this address (e.g. localhost:6060; empty = off)")
		arenaSeeds = flag.Int("arena.seeds", 0, "arena: DST seeds per policy (0 = default 50)")
		arenaOut   = flag.String("arena.out", "", "arena: directory for ARENA_<rev>.json (empty = don't write)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "lbsim: pprof listener: %v\n", err)
			}
		}()
		fmt.Printf("lbsim: pprof at http://%s/debug/pprof/\n", *pprofAddr)
	}

	var rec *trace.Recorder
	if *pcapPath != "" {
		rec = trace.NewRecorder(2_000_000)
	}
	opts := experiments.Options{
		Seed:       *seed,
		Duration:   *duration,
		Trace:      rec,
		ArenaSeeds: *arenaSeeds,
		ArenaOut:   *arenaOut,
	}
	if *arenaOut != "" || *exp == "arena" || *exp == "all" {
		opts.Rev = gitRev()
	}

	var selected []experiments.Entry
	if *exp == "all" {
		selected = experiments.Entries()
	} else if e, ok := experiments.Lookup(*exp); ok {
		selected = []experiments.Entry{e}
	} else {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; available: %s, all\n",
			*exp, strings.Join(experiments.Names(), ", "))
		os.Exit(2)
	}

	for _, e := range selected {
		start := time.Now()
		res := e.Run(opts)
		if err := res.Report(os.Stdout, *plot); err != nil {
			fmt.Fprintf(os.Stderr, "reporting %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %v wall-clock)\n\n", e.Name, time.Since(start).Round(time.Millisecond))

		if *csvDir != "" && len(res.Series) > 0 {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "creating %s: %v\n", *csvDir, err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, res.Name+".csv")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "creating %s: %v\n", path, err)
				os.Exit(1)
			}
			if err := res.WriteCSV(f); err != nil {
				fmt.Fprintf(os.Stderr, "writing %s: %v\n", path, err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "closing %s: %v\n", path, err)
				os.Exit(1)
			}
			fmt.Printf("series written to %s\n\n", path)
		}
	}

	if rec != nil && rec.Len() > 0 {
		f, err := os.Create(*pcapPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating %s: %v\n", *pcapPath, err)
			os.Exit(1)
		}
		if err := rec.WritePcap(f); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *pcapPath, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "closing %s: %v\n", *pcapPath, err)
			os.Exit(1)
		}
		fmt.Printf("pcap trace (%d packets) written to %s\n", rec.Len(), *pcapPath)
	}
}
