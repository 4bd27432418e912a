// Command lbproxy runs the userspace load balancer: a layer-4 TCP proxy
// whose request routing adapts to in-band latency estimates derived purely
// from client→server traffic timing.
//
// Usage:
//
//	lbproxy -listen 127.0.0.1:9000 \
//	        -backends 127.0.0.1:11211,127.0.0.1:11212 \
//	        -policy latency-aware -alpha 0.1 -report-every 1s
//
// Policies: latency-aware (default), maglev, roundrobin, p2c.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux for -pprof
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
	var (
		listen      = flag.String("listen", "127.0.0.1:9000", "listen address")
		backends    = flag.String("backends", "", "comma-separated backend addresses (required)")
		policyName  = flag.String("policy", "latency-aware", "routing policy (latency-aware|proportional|maglev|roundrobin|p2c)")
		alpha       = flag.Float64("alpha", 0.10, "latency-aware: traffic fraction shifted per control action")
		minWeight   = flag.Float64("min-weight", 0.02, "latency-aware: weight floor per backend")
		cooldown    = flag.Duration("cooldown", 5*time.Millisecond, "latency-aware: minimum time between shifts")
		hysteresis  = flag.Float64("hysteresis", 1.3, "latency-aware: worst/best ratio required to shift")
		halfLife    = flag.Duration("half-life", 20*time.Millisecond, "per-server latency EWMA half-life")
		seed        = flag.Int64("seed", 1, "random seed for randomized policies")
		shards      = flag.Int("shards", 0, "flow-table and sample-aggregator shard count (0 = GOMAXPROCS)")
		ctrlEvery   = flag.Duration("control-interval", 0, "control tick period: sample merge + snapshot republish (0 = default 2ms)")
		report      = flag.Duration("report-every", 0, "periodic stats report interval (0 = off)")
		health      = flag.Duration("health-interval", time.Second, "active health-probe period (0 = disabled)")
		healthFail  = flag.Int("health-fail", 0, "consecutive probe failures before ejection (0 = default 3)")
		healthOK    = flag.Int("health-ok", 0, "consecutive probe successes before readmission (0 = default 2)")
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
		congSignals = flag.Bool("congestion-signals", false, "sample TCP_INFO retransmissions per relayed backend connection and feed them to the passive detector as transport-distress evidence (Linux; no-op elsewhere)")
		congEvery   = flag.Duration("congestion-sample-interval", 0, "TCP_INFO polling cadence (0 = default 25ms)")
		congPerTick = flag.Int64("congestion-per-tick", 0, "congestion events per control tick that mark a backend hot (0 = default 1 when -congestion-signals)")
		congTicks   = flag.Int("congestion-ticks", 0, "consecutive hot ticks before the congestion weight-down; 2x ejects (0 = default 4)")
		statusAddr  = flag.String("status-addr", "", "serve JSON status at http://<addr>/ (empty = off)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof at this address (e.g. localhost:6060; empty = off)")
		auditPath   = flag.String("audit-log", "", "write a hash-chained decision audit log to this file (empty = off)")
		auditBuffer = flag.Int("audit-buffer", 0, "audit ring capacity in records; decisions beyond it are shed, counted, and marked in the log (0 = default 1024)")
		adminAddr   = flag.String("admin", "", "serve the admin surface (/metrics Prometheus text, /decisions audit tail, /config live detector reload) at this address (empty = off)")
	)
	flag.Parse()

	addrs := splitNonEmpty(*backends)
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "lbproxy: -backends required (comma-separated)")
		os.Exit(2)
	}

	pol, la, err := buildPolicy(*policyName, addrs, *alpha, *minWeight, *cooldown, *hysteresis, *halfLife, *seed)
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
		Backends:                 addrs,
		Policy:                   pol,
		Shards:                   *shards,
		ControlInterval:          *ctrlEvery,
		HealthInterval:           *health,
		HealthFailThreshold:      *healthFail,
		HealthRecoverThreshold:   *healthOK,
		IdleTimeout:              *idleTO,
		DrainTimeout:             *drainTO,
		Acceptors:                *acceptors,
		PoolIdle:                 *poolIdle,
		PoolMaxAge:               *poolMaxAge,
		CongestionSignals:        *congSignals,
		CongestionSampleInterval: *congEvery,
		Audit:                    auditSinkOrNil(auditSink),
		Detector: control.DetectorConfig{
			Enabled:          *passive || *congSignals,
			FailureThreshold: *failThresh,
			BackoffInitial:   *backoff,
			BackoffMax:       *backoffMax,
			SlowStartTicks:   *slowStart,
			Seed:             *seed,
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

	if *statusAddr != "" {
		go func() {
			if err := http.ListenAndServe(*statusAddr, proxy.StatusHandler()); err != nil {
				fmt.Fprintf(os.Stderr, "lbproxy: status server: %v\n", err)
			}
		}()
		fmt.Printf("lbproxy: status at http://%s/\n", *statusAddr)
	}

	if *adminAddr != "" {
		go func() {
			if err := http.ListenAndServe(*adminAddr, proxy.AdminHandler()); err != nil {
				fmt.Fprintf(os.Stderr, "lbproxy: admin server: %v\n", err)
			}
		}()
		fmt.Printf("lbproxy: admin at http://%s/metrics (also /decisions, /config)\n", *adminAddr)
	}

	if *pprofAddr != "" {
		// A dedicated listener on the DefaultServeMux (where the
		// net/http/pprof import registers), separate from -status-addr so
		// the profiling surface is never exposed on the status port.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "lbproxy: pprof listener: %v\n", err)
			}
		}()
		fmt.Printf("lbproxy: pprof at http://%s/debug/pprof/\n", *pprofAddr)
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
				line := fmt.Sprintf("conns=%d active=%d samples=%d dropped=%d failovers=%d shed=%d per-backend=%v down=%v",
					st.Accepted, st.Active, st.Samples, st.SamplesDropped, st.Failovers, st.Dropped, st.PerBackend, st.Down)
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
	fmt.Printf("lbproxy: relayed %d connections (%d estimator samples, %d dropped)\n",
		st.Accepted, st.Samples, st.SamplesDropped)
	if la != nil {
		fmt.Printf("lbproxy: controller made %d table updates, final weights %.3v\n",
			la.Updates(), la.Weights())
	}
}

func buildPolicy(name string, addrs []string, alpha, minWeight float64,
	cooldown time.Duration, hysteresis float64, halfLife time.Duration, seed int64,
) (control.Policy, *control.LatencyAware, error) {
	latCfg := core.ServerLatencyConfig{HalfLife: halfLife}
	switch name {
	case "latency-aware":
		la, err := control.NewLatencyAware(control.LatencyAwareConfig{
			Backends:        addrs,
			Alpha:           alpha,
			MinWeight:       minWeight,
			Cooldown:        cooldown,
			HysteresisRatio: hysteresis,
			Latency:         latCfg,
		})
		return la, la, err
	case "proportional":
		pr, err := control.NewProportional(control.ProportionalConfig{
			Backends:  addrs,
			MinWeight: minWeight,
			Interval:  cooldown,
			Latency:   latCfg,
		})
		return pr, nil, err
	case "maglev":
		m, err := control.NewMaglevStatic(addrs, 0x10001) // 65537
		return m, nil, err
	case "roundrobin":
		return control.NewRoundRobin(len(addrs)), nil, nil
	case "p2c":
		return control.NewP2C(len(addrs), rand.New(rand.NewSource(seed)), latCfg), nil, nil
	}
	return nil, nil, fmt.Errorf("unknown policy %q", name)
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
