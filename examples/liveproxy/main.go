// Live end-to-end demo over real TCP sockets: two memcached servers, the
// userspace load balancer, and a memtier-like workload — the paper's Fig. 3
// scenario on your loopback interface.
//
// The run injects 2ms of per-request delay into server A halfway through.
// The latency-aware proxy, observing only client→server bytes, shifts new
// connections to server B; the client's p95 recovers within a second (the
// connection-reopen period dominates at this scale, not the controller).
//
//	go run ./examples/liveproxy
package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/core"
	"inbandlb/internal/lbproxy"
	"inbandlb/internal/memcache"
	"inbandlb/internal/stats"
	"inbandlb/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	// Two real memcached-protocol servers on ephemeral loopback ports.
	serverA := memcache.NewServer()
	serverB := memcache.NewServer()
	for _, s := range []*memcache.Server{serverA, serverB} {
		if err := s.Listen("127.0.0.1:0"); err != nil {
			return err
		}
		go func(s *memcache.Server) { _ = s.Serve() }(s)
		defer s.Close()
	}
	addrA, addrB := serverA.Addr().String(), serverB.Addr().String()
	// Give both servers a realistic base service time. Raw loopback
	// responses (~50µs) sit below the estimator's smallest timeout rung
	// (δ₁ = 64µs), where whole connections merge into one batch and the
	// estimate degrades — the paper's technique targets the 100µs–1ms
	// regime (see EXPERIMENTS.md, "ladder floor").
	const baseDelay = 400 * time.Microsecond
	serverA.SetDelay(baseDelay)
	serverB.SetDelay(baseDelay)
	fmt.Printf("server A: %s\nserver B: %s (both ~%v base service time)\n", addrA, addrB, baseDelay)

	// The userspace LB with the paper's feedback controller.
	policy, err := control.NewLatencyAware(control.LatencyAwareConfig{
		Backends: []string{"A", "B"},
		Alpha:    0.10,
		// Keep 10% of traffic on the drained server: with a 2% trickle it
		// goes sample-starved and stale, and staleness flip-flops the
		// "worst server" decision (the oscillation the paper's §5 Q4
		// flags). 10% keeps both servers continuously measured.
		MinWeight:       0.10,
		Cooldown:        5 * time.Millisecond,
		HysteresisRatio: 1.5, // loopback timing is noisy
		Latency: core.ServerLatencyConfig{
			HalfLife:  25 * time.Millisecond,
			Staleness: 3 * time.Second,
		},
	})
	if err != nil {
		return err
	}
	proxy, err := lbproxy.New(lbproxy.Config{
		Backends: []string{addrA, addrB},
		Policy:   policy,
	})
	if err != nil {
		return err
	}
	if err := proxy.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	go func() { _ = proxy.Serve() }()
	defer proxy.Close()
	fmt.Printf("lbproxy : %s (latency-aware, α=0.10)\n\n", proxy.Addr())

	const (
		duration = 12 * time.Second
		injectAt = 4 * time.Second
		clearAt  = 8 * time.Second
	)

	// Inject 2ms into server A mid-run, clear it later.
	go func() {
		time.Sleep(injectAt)
		serverA.SetDelay(baseDelay + 2*time.Millisecond)
		fmt.Println("           >>> injected 2ms per-request delay into server A")
		time.Sleep(clearAt - injectAt)
		serverA.SetDelay(baseDelay)
		fmt.Println("           >>> cleared server A's delay")
	}()

	// Periodic report of client p95 and the proxy's weights.
	var mu sync.Mutex
	win := stats.NewWindowedHistogram(10, 100*time.Millisecond)
	start := time.Now()
	stopReport := make(chan struct{})
	go func() {
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-stopReport:
				return
			case <-t.C:
				now := time.Since(start)
				mu.Lock()
				p95 := win.Quantile(now, 0.95)
				n := win.Count(now)
				mu.Unlock()
				// Snapshot serializes with the proxy's sample consumer;
				// reading policy.Weights() directly would race it.
				w := proxy.Snapshot().Weights
				fmt.Printf("t=%4.0fs  p95=%-10v  weights A=%.2f B=%.2f  (%d reqs in window)\n",
					now.Seconds(), p95.Round(10*time.Microsecond), w[0], w[1], n)
			}
		}
	}()

	rep, err := workload.Run(context.Background(), workload.Config{
		Addr:            proxy.Addr().String(),
		Connections:     8,
		RequestsPerConn: 50,
		GetRatio:        0.5,
		Duration:        duration,
		Seed:            1,
		OnLatency: func(since time.Duration, get bool, lat time.Duration) {
			mu.Lock()
			win.Record(since, lat)
			mu.Unlock()
		},
	})
	close(stopReport)
	if err != nil {
		return err
	}

	// Quiesce the proxy before reading the policy directly: Close runs the
	// controller's final flush tick, after which no goroutine touches the
	// policy.
	_ = proxy.Close()
	st := proxy.Stats()
	fmt.Println("\n---")
	fmt.Println(rep.String())
	fmt.Printf("proxy: %d connections accepted, %d estimator samples, per-backend %v\n",
		st.Accepted, st.Samples, st.PerBackend)
	fmt.Printf("controller: %d table updates, final weights %.3v\n", policy.Updates(), policy.Weights())
	return nil
}
