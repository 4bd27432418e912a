// Package workload is a memtier_benchmark-like load generator for real
// memcached-protocol endpoints (a server directly, or the lbproxy in front
// of a pool). It reproduces the traffic shape the paper's evaluation relies
// on: several concurrent connections, a bounded number of requests per
// connection followed by close-and-reopen, and a configurable GET/SET mix.
package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"inbandlb/internal/memcache"
	"inbandlb/internal/stats"
)

// Config parameterizes a run.
type Config struct {
	// Addr is the memcached-protocol endpoint.
	Addr string
	// Connections is the number of concurrent closed-loop workers.
	Connections int
	// RequestsPerConn closes and reopens the connection after this many
	// requests (0 = never reopen).
	RequestsPerConn int
	// Pipeline keeps this many requests outstanding per connection
	// (memtier's --pipeline). Values <= 1 run the closed loop.
	Pipeline int
	// GetRatio is the probability of a GET (paper: 0.5).
	GetRatio float64
	// Keys is the key-space size; keys are "key-<n>".
	Keys int
	// ZipfS > 1 skews key popularity (0 = uniform).
	ZipfS float64
	// ValueSize is the SET payload size in bytes.
	ValueSize int
	// Duration bounds the run.
	Duration time.Duration
	// Seed makes key/op choices reproducible.
	Seed int64
	// Timeout bounds each dial and request.
	Timeout time.Duration
	// OnLatency, when set, observes every request's latency (called from
	// worker goroutines; must be safe for concurrent use).
	OnLatency func(since time.Duration, get bool, lat time.Duration)
}

func (c *Config) applyDefaults() error {
	if c.Addr == "" {
		return errors.New("workload: address required")
	}
	if c.Connections <= 0 {
		c.Connections = 4
	}
	if c.GetRatio < 0 || c.GetRatio > 1 {
		return fmt.Errorf("workload: get ratio %v outside [0,1]", c.GetRatio)
	}
	if c.Keys <= 0 {
		c.Keys = 1000
	}
	if c.ValueSize <= 0 {
		c.ValueSize = 64
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	return nil
}

// Report summarizes a run.
type Report struct {
	Requests  uint64
	Errors    uint64
	Reopens   uint64
	Gets      *stats.Histogram
	Sets      *stats.Histogram
	Elapsed   time.Duration
	Truncated bool // context cancelled before Duration
}

// Throughput returns requests per second.
func (r *Report) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("requests=%d errors=%d reopens=%d rps=%.0f get_p50=%v get_p95=%v get_p99=%v",
		r.Requests, r.Errors, r.Reopens, r.Throughput(),
		r.Gets.Quantile(0.50), r.Gets.Quantile(0.95), r.Gets.Quantile(0.99))
}

// Run drives the workload until Duration elapses or ctx is cancelled.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	cut := false // the context's own deadline ends the run before Duration
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline, cut = d, true
	}

	rep := &Report{
		Gets: stats.NewDefaultHistogram(),
		Sets: stats.NewDefaultHistogram(),
	}
	var mu sync.Mutex // guards the report's histograms and counters

	var wg sync.WaitGroup
	for w := 0; w < cfg.Connections; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			worker(ctx, cfg, id, start, deadline, rep, &mu)
		}(w)
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)
	// Workers stop on the clock, and the context's timer may not have fired
	// yet when they do: a run that ended at the context's deadline is
	// truncated whether or not ctx.Err() says so already.
	rep.Truncated = cut || ctx.Err() != nil
	return rep, nil
}

func worker(ctx context.Context, cfg Config, id int, start, deadline time.Time, rep *Report, mu *sync.Mutex) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*7919))
	var zipf *rand.Zipf
	if cfg.ZipfS > 1 {
		zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Keys-1))
	}
	value := make([]byte, cfg.ValueSize)
	for i := range value {
		value[i] = byte('a' + i%26)
	}

	var client *memcache.Client
	reqOnConn := 0
	// inflight tracks pipelined requests awaiting responses, FIFO.
	type pending struct {
		isGet  bool
		sentAt time.Time
	}
	var inflight []pending
	pipeline := cfg.Pipeline
	if pipeline < 1 {
		pipeline = 1
	}

	pickKey := func() string {
		if zipf != nil {
			return fmt.Sprintf("key-%d", zipf.Uint64())
		}
		return fmt.Sprintf("key-%d", rng.Intn(cfg.Keys))
	}
	record := func(p pending, err error) bool {
		lat := time.Since(p.sentAt)
		mu.Lock()
		if err != nil {
			rep.Errors++
		} else {
			rep.Requests++
			if p.isGet {
				rep.Gets.Record(lat)
			} else {
				rep.Sets.Record(lat)
			}
		}
		mu.Unlock()
		if err == nil && cfg.OnLatency != nil {
			cfg.OnLatency(p.sentAt.Sub(start), p.isGet, lat)
		}
		return err == nil
	}
	var unhook func() bool // detaches the live connection's cancel hook
	closeConn := func(reopen bool) {
		if client == nil {
			return
		}
		unhook()
		_ = client.Close()
		client = nil
		inflight = inflight[:0]
		if reopen {
			mu.Lock()
			rep.Reopens++
			mu.Unlock()
		}
	}
	defer closeConn(false)

	for time.Now().Before(deadline) && ctx.Err() == nil {
		if client == nil {
			c, err := memcache.Dial(cfg.Addr, cfg.Timeout)
			if err != nil {
				mu.Lock()
				rep.Errors++
				mu.Unlock()
				// Back off briefly so a dead endpoint does not spin.
				time.Sleep(10 * time.Millisecond)
				continue
			}
			client = c
			reqOnConn = 0
			// A cancelled context interrupts a blocked read or write at once,
			// not a Timeout later.
			unhook = context.AfterFunc(ctx, func() { _ = c.SetDeadline(time.Unix(1, 0)) })
		}
		_ = client.SetDeadline(time.Now().Add(cfg.Timeout))
		if ctx.Err() != nil {
			break // cancelled meanwhile: this deadline may have replaced the hook's
		}

		// Fill the pipeline window (respecting the per-conn budget).
		for len(inflight) < pipeline &&
			(cfg.RequestsPerConn == 0 || reqOnConn+len(inflight) < cfg.RequestsPerConn) {
			key := pickKey()
			isGet := rng.Float64() < cfg.GetRatio
			var err error
			if isGet {
				err = client.SendGet(key)
			} else {
				err = client.SendSet(key, value)
			}
			if err != nil {
				mu.Lock()
				rep.Errors++
				mu.Unlock()
				closeConn(false)
				break
			}
			inflight = append(inflight, pending{isGet: isGet, sentAt: time.Now()})
			if pipeline == 1 {
				break
			}
		}
		if client == nil || len(inflight) == 0 {
			continue
		}

		// Drain one response (FIFO), releasing one pipeline slot.
		p := inflight[0]
		inflight = inflight[1:]
		var err error
		if p.isGet {
			_, _, err = client.RecvGet()
		} else {
			err = client.RecvSet()
		}
		if err != nil && ctx.Err() != nil {
			break // interrupted, not failed
		}
		if !record(p, err) {
			closeConn(false)
			continue
		}
		reqOnConn++
		if cfg.RequestsPerConn > 0 && reqOnConn+len(inflight) >= cfg.RequestsPerConn && len(inflight) == 0 {
			closeConn(true)
		}
	}

	// Deadline reached: drain responses already in flight so every request
	// the server processed is accounted for. A cancelled run does not wait.
	for client != nil && len(inflight) > 0 && ctx.Err() == nil {
		p := inflight[0]
		inflight = inflight[1:]
		var err error
		if p.isGet {
			_, _, err = client.RecvGet()
		} else {
			err = client.RecvSet()
		}
		if !record(p, err) {
			closeConn(false)
		}
	}
}
