package perf

import (
	"sync"
	"testing"
	"time"

	"inbandlb/internal/auditlog"
	"inbandlb/internal/control"
)

// stallWriter lets the audit header through, then blocks every write until
// released. While the drain goroutine is parked inside Write it cannot
// allocate, so AllocsPerRun measures only the Note caller — exactly the
// cost the controller pays with the sink's destination wedged.
type stallWriter struct {
	mu      sync.Mutex
	wrote   bool
	entered chan struct{} // closed when the drain goroutine first blocks
	release chan struct{}
	once    sync.Once
}

func newStallWriter() *stallWriter {
	return &stallWriter{entered: make(chan struct{}), release: make(chan struct{})}
}

func (w *stallWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	first := !w.wrote
	w.wrote = true
	w.mu.Unlock()
	if first {
		return len(p), nil // the header
	}
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(p), nil
}

// TestAuditNoteZeroAlloc pins the sink's hot-path contract: Note is a few
// stores into a preallocated ring slot — zero allocations — on the fill
// path, and still zero on the shed path once the ring is full behind a
// stalled writer. These run under the controller's mutex on every decision;
// an allocation here is an allocation per ejection at the worst moment.
func TestAuditNoteZeroAlloc(t *testing.T) {
	w := newStallWriter()
	l, err := auditlog.NewLog(w, auditlog.LogConfig{Buffer: 8192, MaxBackends: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(w.release)
		_ = l.Close()
	})

	rec := auditlog.Record{
		Kind: auditlog.KindWeights, Backend: -1, Gen: 1, Healthy: 4,
		Weights: []float64{0.25, 0.25, 0.25, 0.25},
	}
	// One note un-stalls nothing but wakes the drain goroutine; wait until
	// it is provably parked inside Write so it cannot contribute allocations.
	l.Note(&rec)
	<-w.entered

	assertZeroAllocs(t, "Log.Note (ring fill)", nil, func() { l.Note(&rec) })

	// Flood the remaining slots so the next notes all shed.
	for i := 0; i < 8192; i++ {
		l.Note(&rec)
	}
	before := l.Sheds()
	assertZeroAllocs(t, "Log.Note (shed)", nil, func() { l.Note(&rec) })
	if l.Sheds() <= before {
		t.Fatalf("shed path not exercised: sheds %d -> %d", before, l.Sheds())
	}
}

// TestControllerTickAuditedZeroAllocWhenIdle extends the idle-tick gate to
// the audited configuration: detector on, audit sink armed, nothing
// happening — ticks still must not feed the garbage collector.
func TestControllerTickAuditedZeroAllocWhenIdle(t *testing.T) {
	w := newStallWriter()
	l, err := auditlog.NewLog(w, auditlog.LogConfig{Buffer: 8192, MaxBackends: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(w.release)
		_ = l.Close()
	})
	// The initial-publish record below reaches the (stalled) writer first.
	mag, err := control.NewMaglevStatic([]string{"b0", "b1", "b2", "b3"}, 1031)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := control.NewController(mag, control.ControllerConfig{
		Shards:   4,
		Detector: control.DetectorConfig{Enabled: true},
		Audit:    l,
	})
	defer ctrl.Close()
	<-w.entered // the initial publish parks the drain goroutine

	now := time.Duration(0)
	assertZeroAllocs(t, "Controller.Tick (idle, detector+audit)", nil, func() {
		now += time.Millisecond
		ctrl.Tick(now)
	})
}

// TestAuditAddsNoAllocationsToDecisions is the differential gate: a
// decision that emits audit records (a manual eject/readmit pair, each of
// which republishes the routing snapshot) allocates exactly as much with
// auditing armed as without it. The RCU republish allocates its snapshot
// either way; the audit emission itself must ride along for free.
func TestAuditAddsNoAllocationsToDecisions(t *testing.T) {
	mk := func(sink auditlog.Sink) *control.Controller {
		la, err := control.NewLatencyAware(control.LatencyAwareConfig{
			Backends: []string{"b0", "b1", "b2", "b3"}, Alpha: 0.1, TableSize: 1021,
		})
		if err != nil {
			t.Fatal(err)
		}
		return control.NewController(la, control.ControllerConfig{Audit: sink})
	}

	base := mk(nil)
	defer base.Close()
	baseCycle := func() {
		base.SetEjected(1, true)
		base.SetEjected(1, false)
	}
	baseAllocs := testing.AllocsPerRun(300, baseCycle)

	w := newStallWriter()
	l, err := auditlog.NewLog(w, auditlog.LogConfig{Buffer: 64, MaxBackends: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(w.release)
		_ = l.Close()
	})
	audited := mk(l)
	defer audited.Close()
	<-w.entered // drain goroutine parked; the small ring sheds from here on
	auditedCycle := func() {
		audited.SetEjected(1, true)
		audited.SetEjected(1, false)
	}
	auditedAllocs := testing.AllocsPerRun(300, auditedCycle)

	if auditedAllocs > baseAllocs {
		t.Errorf("audited decision cycle: %.2f allocs/op vs %.2f unaudited — auditing must be free",
			auditedAllocs, baseAllocs)
	}
}
