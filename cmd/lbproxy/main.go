// Command lbproxy runs the userspace load balancer: a layer-4 TCP proxy
// whose request routing adapts to in-band latency estimates derived purely
// from client→server traffic timing.
//
// Usage:
//
//	lbproxy -listen 127.0.0.1:9000 \
//	        -backends 127.0.0.1:11211,127.0.0.1:11212 \
//	        -policy latency-aware -alpha 0.1 -report-every 1s \
//	        -admin 127.0.0.1:9002
//
// -policy takes any name in control's policy registry (latency-aware by
// default). -admin is the one HTTP listener: /metrics, /status, /decisions,
// /config and /debug/pprof/.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"inbandlb/internal/auditlog"
	"inbandlb/internal/control"
	"inbandlb/internal/core"
	"inbandlb/internal/lbproxy"
)

func main() {
	policySpec := policySpecFlags(flag.CommandLine)
	var (
		listen      = flag.String("listen", "127.0.0.1:9000", "listen address")
		backends    = flag.String("backends", "", "comma-separated backend addresses (required)")
		policyName  = flag.String("policy", "latency-aware", "routing policy ("+strings.Join(control.PolicyNames(), "|")+")")
		ctrlEvery   = flag.Duration("control-interval", 0, "control tick period: sample merge + snapshot republish (0 = default 2ms)")
		report      = flag.Duration("report-every", 0, "periodic stats report interval (0 = off)")
		health      = flag.Duration("health-interval", time.Second, "active health-probe period (0 = disabled)")
		passive     = flag.Bool("passive-detect", false, "enable passive in-band failure detection (ejection without probes)")
		failThresh  = flag.Int("failure-threshold", 0, "passive: consecutive dial/relay failures before ejection (0 = default 3)")
		backoff     = flag.Duration("eject-backoff", 0, "passive: initial re-probe backoff after ejection (0 = default 500ms)")
		backoffMax  = flag.Duration("eject-backoff-max", 0, "passive: re-probe backoff cap (0 = default 8s)")
		slowStart   = flag.Int("slow-start-ticks", 0, "passive: control ticks to ramp a recovered backend to full traffic (0 = default 50)")
		idleTO      = flag.Duration("idle-timeout", 0, "per-direction relay idle timeout (0 = none)")
		drainTO     = flag.Duration("drain-timeout", 0, "grace period for in-flight connections on shutdown (0 = immediate)")
		acceptors   = flag.Int("acceptors", 1, "event-loop shards, each with its own SO_REUSEPORT listener (Linux)")
		poolIdle    = flag.Int("pool-idle", 0, "max idle pooled connections per backend, Linux (0 = pooling off)")
		poolMaxAge  = flag.Duration("pool-max-age", 30*time.Second, "evict pooled backend connections older than this (0 = no cap)")
		congSignals = flag.Bool("congestion-signals", false, "sample TCP_INFO retransmissions per relayed backend connection every 25ms and feed them to the passive detector as transport-distress evidence (Linux; no-op elsewhere)")
		congPerTick = flag.Int64("congestion-per-tick", 0, "congestion events per control tick that mark a backend hot (0 = default 1 when -congestion-signals)")
		congTicks   = flag.Int("congestion-ticks", 0, "consecutive hot ticks before the congestion weight-down; 2x ejects (0 = default 4)")
		auditPath   = flag.String("audit-log", "", "write a hash-chained decision audit log to this file (empty = off)")
		auditBuffer = flag.Int("audit-buffer", 0, "audit ring capacity in records; decisions beyond it are shed, counted, and marked in the log (0 = default 1024)")
		adminAddr   = flag.String("admin", "", "serve the admin surface (/metrics Prometheus text, /status JSON, /decisions audit tail, /config live detector reload, /debug/pprof/) at this address (empty = off)")
	)
	flag.Parse()

	addrs := splitNonEmpty(*backends)
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "lbproxy: -backends required (comma-separated)")
		os.Exit(2)
	}

	spec := policySpec(addrs)
	pol, err := control.BuildPolicy(*policyName, spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbproxy: %v\n", err)
		os.Exit(2)
	}

	// The audit log is the decision flight recorder: every snapshot
	// publish, weight change, and detector transition lands in a
	// hash-chained file, written off the hot path by a dedicated goroutine.
	var auditSink *auditlog.Log
	if *auditPath != "" {
		f, err := os.Create(*auditPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lbproxy: audit log: %v\n", err)
			os.Exit(1)
		}
		auditSink, err = auditlog.NewLog(f, auditlog.LogConfig{
			Buffer:      *auditBuffer,
			MaxBackends: len(addrs),
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "lbproxy: audit log: %v\n", err)
			os.Exit(1)
		}
	}

	proxy, err := lbproxy.New(lbproxy.Config{
		Backends:          addrs,
		Policy:            pol,
		ControlInterval:   *ctrlEvery,
		HealthInterval:    *health,
		IdleTimeout:       *idleTO,
		DrainTimeout:      *drainTO,
		Acceptors:         *acceptors,
		PoolIdle:          *poolIdle,
		PoolMaxAge:        *poolMaxAge,
		CongestionSignals: *congSignals,
		Audit:             auditSinkOrNil(auditSink),
		Detector: control.DetectorConfig{
			Enabled:          *passive || *congSignals,
			FailureThreshold: *failThresh,
			BackoffInitial:   *backoff,
			BackoffMax:       *backoffMax,
			SlowStartTicks:   *slowStart,
			// The congestion channel arms only when sampling feeds it;
			// otherwise zero keeps the legacy detector bit-for-bit.
			CongestionPerTick: congestionPerTick(*congSignals, *congPerTick),
			CongestionTicks:   *congTicks,
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbproxy: %v\n", err)
		os.Exit(1)
	}
	if err := proxy.Listen(*listen); err != nil {
		fmt.Fprintf(os.Stderr, "lbproxy: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("lbproxy: %s on %s -> %v\n", pol.Name(), proxy.Addr(), addrs)

	if *adminAddr != "" {
		go func() {
			if err := http.ListenAndServe(*adminAddr, proxy.AdminHandler()); err != nil {
				fmt.Fprintf(os.Stderr, "lbproxy: admin server: %v\n", err)
			}
		}()
		fmt.Printf("lbproxy: admin at http://%s/metrics (also /status, /decisions, /config, /debug/pprof/)\n", *adminAddr)
	}

	if *report > 0 {
		go func() {
			t := time.NewTicker(*report)
			defer t.Stop()
			for range t.C {
				// Snapshot serializes policy reads with the sample
				// consumer; touching the policy directly would race it.
				snap := proxy.Snapshot()
				st := snap.Stats
				line := fmt.Sprintf("conns=%d active=%d samples=%d dropped=%d failovers=%d per-backend=%v down=%v",
					st.Accepted, st.Active, st.Samples, st.Dropped, st.Failovers, st.PerBackend, st.Down)
				if *passive {
					line += fmt.Sprintf(" health=%v", st.Health)
				}
				if snap.Weights != nil {
					line += fmt.Sprintf(" weights=%.3v", snap.Weights)
				}
				fmt.Println(line)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "lbproxy: shutting down")
		_ = proxy.Close()
	}()

	if err := proxy.Serve(); err != nil {
		fmt.Fprintf(os.Stderr, "lbproxy: %v\n", err)
		os.Exit(1)
	}
	// Serve can return while the signal handler's Close is still draining;
	// Close is idempotent and waits for the sample flush, after which the
	// policy is quiescent and safe to read directly.
	_ = proxy.Close()
	if auditSink != nil {
		// Drain, seal, and close the chained log so the file verifies end
		// to end (lbreplay and auditlog.Verify reject unsealed logs).
		if err := auditSink.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "lbproxy: audit log close: %v\n", err)
		} else {
			fmt.Printf("lbproxy: audit log sealed: %d decisions written, %d shed\n",
				auditSink.Written(), auditSink.Sheds())
		}
	}
	st := proxy.Stats()
	var relayed uint64
	for _, n := range st.PerBackend {
		relayed += n
	}
	fmt.Printf("lbproxy: relayed %d of %d accepted connections (%d estimator samples)\n",
		relayed, st.Accepted, st.Samples)
	if la, ok := pol.(*control.LatencyAware); ok {
		fmt.Printf("lbproxy: controller made %d table updates, final weights %.3v\n",
			la.Updates(), la.Weights())
	}
}

// policySpecFlags registers the policy-tuning flags on fs and returns the
// spec they describe for a backend list, to be read once fs is parsed.
func policySpecFlags(fs *flag.FlagSet) func(backends []string) control.PolicySpec {
	var (
		alpha      = fs.Float64("alpha", 0.10, "latency-aware: traffic fraction shifted per control action")
		minWeight  = fs.Float64("min-weight", 0.02, "weight floor per backend for weighted policies")
		cooldown   = fs.Duration("cooldown", 5*time.Millisecond, "latency-aware: minimum time between shifts (proportional, knapsack: solve period)")
		hysteresis = fs.Float64("hysteresis", control.DefaultHysteresisRatio, "latency-aware: worst/best ratio required to shift (1 disables)")
		halfLife   = fs.Duration("half-life", 20*time.Millisecond, "per-server latency EWMA half-life")
		seed       = fs.Int64("seed", 1, "random seed for randomized policies")
	)
	return func(backends []string) control.PolicySpec {
		return control.PolicySpec{
			Backends:        backends,
			Alpha:           *alpha,
			MinWeight:       *minWeight,
			Interval:        *cooldown,
			HysteresisRatio: *hysteresis,
			Seed:            *seed,
			Latency:         core.ServerLatencyConfig{HalfLife: *halfLife},
		}
	}
}

// auditSinkOrNil avoids the typed-nil interface trap: a nil *auditlog.Log
// must reach Config.Audit as a nil interface, not a non-nil one wrapping
// nil.
func auditSinkOrNil(l *auditlog.Log) auditlog.Sink {
	if l == nil {
		return nil
	}
	return l
}

// congestionPerTick resolves the detector's hot-tick threshold: the
// channel arms (default 1 event/tick) only when sampling is on.
func congestionPerTick(enabled bool, perTick int64) int64 {
	if !enabled {
		return 0
	}
	if perTick <= 0 {
		return 1
	}
	return perTick
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
