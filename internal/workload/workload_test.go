package workload

import (
	"context"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"inbandlb/internal/memcache"
)

func startServer(t *testing.T) (*memcache.Server, string) {
	t.Helper()
	s := memcache.NewServer()
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve() }()
	t.Cleanup(func() { _ = s.Close() })
	return s, s.Addr().String()
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Error("missing address accepted")
	}
	if _, err := Run(context.Background(), Config{Addr: "x", GetRatio: 1.5}); err == nil {
		t.Error("bad get ratio accepted")
	}
}

func TestRunAgainstServer(t *testing.T) {
	srv, addr := startServer(t)
	rep, err := Run(context.Background(), Config{
		Addr:            addr,
		Connections:     3,
		RequestsPerConn: 10,
		GetRatio:        0.5,
		Duration:        500 * time.Millisecond,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if rep.Errors != 0 {
		t.Errorf("errors = %d", rep.Errors)
	}
	if rep.Reopens == 0 {
		t.Error("no connection reopens with RequestsPerConn=10")
	}
	gets, sets := rep.Gets.Count(), rep.Sets.Count()
	if gets+sets != rep.Requests {
		t.Errorf("histogram counts %d+%d != requests %d", gets, sets, rep.Requests)
	}
	frac := float64(gets) / float64(gets+sets)
	if frac < 0.35 || frac > 0.65 {
		t.Errorf("get fraction = %.2f, want ~0.5", frac)
	}
	st := srv.Stats()
	if st.Gets != gets || st.Sets != sets {
		t.Errorf("server saw %d/%d, client sent %d/%d", st.Gets, st.Sets, gets, sets)
	}
	if rep.Throughput() <= 0 {
		t.Error("throughput not positive")
	}
	if !strings.Contains(rep.String(), "requests=") {
		t.Errorf("summary = %q", rep.String())
	}
}

func TestRunHonoursContextCancel(t *testing.T) {
	_, addr := startServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	rep, err := Run(ctx, Config{Addr: addr, Duration: 10 * time.Second, Connections: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("run took %v after 100ms cancel", el)
	}
	if !rep.Truncated {
		t.Error("Truncated not set")
	}
}

// TestRunCancelInterruptsBlockedRead: a server that swallows requests and
// never answers leaves every worker blocked in a read bounded only by
// Timeout; cancelling the context must end the run at once, and the
// interrupted requests are not errors.
func TestRunCancelInterruptsBlockedRead(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			go func() { _, _ = io.Copy(io.Discard, c); _ = c.Close() }()
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)
	start := time.Now()
	rep, err := Run(ctx, Config{Addr: lis.Addr().String(), Duration: 30 * time.Second,
		Timeout: 30 * time.Second, Connections: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("run took %v after a 100ms cancel", el)
	}
	if !rep.Truncated || rep.Errors != 0 || rep.Requests != 0 {
		t.Errorf("truncated=%v errors=%d requests=%d, want true, 0, 0", rep.Truncated, rep.Errors, rep.Requests)
	}
}

func TestRunSurvivesDeadEndpoint(t *testing.T) {
	rep, err := Run(context.Background(), Config{
		Addr:     "127.0.0.1:1",
		Duration: 300 * time.Millisecond,
		Timeout:  50 * time.Millisecond,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors == 0 {
		t.Error("dead endpoint produced no errors")
	}
	if rep.Requests != 0 {
		t.Errorf("requests = %d against dead endpoint", rep.Requests)
	}
}

func TestOnLatencyCallback(t *testing.T) {
	_, addr := startServer(t)
	var mu sync.Mutex
	calls := 0
	_, err := Run(context.Background(), Config{
		Addr:     addr,
		Duration: 200 * time.Millisecond,
		Seed:     1,
		OnLatency: func(since time.Duration, get bool, lat time.Duration) {
			mu.Lock()
			calls++
			mu.Unlock()
			if lat <= 0 || since < 0 {
				t.Errorf("bad callback args: since=%v lat=%v", since, lat)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls == 0 {
		t.Error("OnLatency never called")
	}
}

func TestZipfKeys(t *testing.T) {
	srv, addr := startServer(t)
	_, err := Run(context.Background(), Config{
		Addr:     addr,
		Duration: 200 * time.Millisecond,
		ZipfS:    1.2,
		Keys:     100,
		GetRatio: 0, // all sets so every key write counts
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Stats().Sets == 0 {
		t.Error("no sets with zipf keys")
	}
}

func TestRunPipelined(t *testing.T) {
	srv, addr := startServer(t)
	rep, err := Run(context.Background(), Config{
		Addr:            addr,
		Connections:     2,
		Pipeline:        8,
		RequestsPerConn: 40,
		GetRatio:        0.5,
		Duration:        500 * time.Millisecond,
		Seed:            3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.Errors != 0 {
		t.Fatalf("requests=%d errors=%d", rep.Requests, rep.Errors)
	}
	if rep.Reopens == 0 {
		t.Error("no reopens with RequestsPerConn set")
	}
	st := srv.Stats()
	if st.Gets+st.Sets != rep.Requests {
		t.Errorf("server saw %d ops, client recorded %d", st.Gets+st.Sets, rep.Requests)
	}
}

func TestPipelineThroughputAdvantage(t *testing.T) {
	// The server processes a connection's commands serially, so pipelining
	// cannot overlap service time — its win is eliminating per-request
	// round trips and syscalls. Measure exactly that: a fast server, one
	// connection, closed loop vs a deep window.
	_, addr := startServer(t)
	run := func(pipeline int) float64 {
		rep, err := Run(context.Background(), Config{
			Addr: addr, Connections: 1, Pipeline: pipeline,
			Duration: 600 * time.Millisecond, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Throughput()
	}
	closed := run(1)
	piped := run(16)
	if piped < closed*1.3 {
		t.Errorf("pipeline=16 throughput %.0f rps not clearly above closed loop %.0f rps", piped, closed)
	}
}
