package core

import (
	"slices"
	"testing"
	"time"
)

// batches200ms feeds 4-packet batches (100 µs apart, 2 ms between batch
// heads) for 200 ms from start — enough epochs for the cliff to leave rung
// 0 — and returns the samples.
func batches200ms(observe func(time.Duration) (time.Duration, bool), start time.Duration) []time.Duration {
	return feedBatches(observe, start, 100, 4, 100*time.Microsecond, 2*time.Millisecond)
}

// TestFlowEstimatorIdleReset: the first packet builds the estimator; a
// packet after a silence shorter than EstimatorIdleReset yields the gap
// since the previous batch head; a packet after a longer silence yields no
// sample and restarts the ladder, which then matches a fresh estimator's
// output packet for packet.
func TestFlowEstimatorIdleReset(t *testing.T) {
	var f FlowEstimator
	t0 := time.Hour
	if _, ok := f.Observe(t0); ok || !f.Live() || f.est == nil {
		t.Fatalf("first packet: ok=%v live=%v est=%v, want an estimator and no sample", ok, f.Live(), f.est)
	}
	quiet := EstimatorIdleReset - time.Second
	if sample, ok := f.Observe(t0 + quiet); !ok || sample != quiet {
		t.Errorf("packet after %v of silence: sample %v ok=%v, want %v", quiet, sample, ok, quiet)
	}
	t1 := t0 + quiet
	batches200ms(f.Observe, t1+time.Millisecond)
	if f.est.CurrentIndex() == 0 {
		t.Fatal("setup: the cliff never left rung 0")
	}

	t2 := t1 + 2*EstimatorIdleReset
	if sample, ok := f.Observe(t2); ok {
		t.Errorf("packet after %v of silence yielded sample %v, want none", 2*EstimatorIdleReset, sample)
	}
	if f.est.CurrentIndex() != 0 || f.est.Epochs() != 0 {
		t.Errorf("after the idle reset: rung %d, %d epochs, want the ladder restarted", f.est.CurrentIndex(), f.est.Epochs())
	}
	fresh := MustEnsemble(EnsembleConfig{})
	fresh.Observe(t2)
	if got, want := batches200ms(f.Observe, t2+time.Millisecond), batches200ms(fresh.Observe, t2+time.Millisecond); !slices.Equal(got, want) {
		t.Errorf("reset estimator's samples %v, a fresh one's %v", got, want)
	}
}

// TestFlowEstimatorResetReusesMemory: after Reset the next packet is a
// first packet — no sample however short the gap, and the same output as a
// fresh estimator from there on — and it reuses the ensemble already built.
func TestFlowEstimatorResetReusesMemory(t *testing.T) {
	var f FlowEstimator
	batches200ms(f.Observe, 0)
	est := f.est
	f.Reset()
	if f.Live() {
		t.Fatal("Live after Reset")
	}
	start := 200*time.Millisecond + 500*time.Microsecond
	if sample, ok := f.Observe(start); ok {
		t.Errorf("first packet after Reset yielded sample %v", sample)
	}
	if f.est != est || !f.Live() {
		t.Errorf("Reset dropped the ensemble (reused=%v) or the next packet left it dead (live=%v)", f.est == est, f.Live())
	}
	fresh := MustEnsemble(EnsembleConfig{})
	fresh.Observe(start)
	if got, want := batches200ms(f.Observe, start+time.Millisecond), batches200ms(fresh.Observe, start+time.Millisecond); !slices.Equal(got, want) {
		t.Errorf("reused estimator's samples %v, a fresh one's %v", got, want)
	}
}
