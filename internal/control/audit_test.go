package control

import (
	"testing"
	"time"

	"inbandlb/internal/auditlog"
)

// auditCtrl builds a 4-backend detector-enabled controller writing its
// decisions into a Collector.
func auditCtrl(t *testing.T, det DetectorConfig) (*Controller, *auditlog.Collector) {
	t.Helper()
	det.Enabled = true
	if det.Seed == 0 {
		det.Seed = 1
	}
	p, err := NewMaglevStatic([]string{"s0", "s1", "s2", "s3"}, 1031)
	if err != nil {
		t.Fatal(err)
	}
	col := &auditlog.Collector{}
	c := NewController(p, ControllerConfig{Shards: 1, Detector: det, Audit: col})
	return c, col
}

// find returns the first record matching kind (and backend when b >= 0).
func find(recs []auditlog.Record, kind auditlog.Kind, b int32) *auditlog.Record {
	for i := range recs {
		if recs[i].Kind == kind && (b < 0 || recs[i].Backend == b) {
			return &recs[i]
		}
	}
	return nil
}

func TestAuditInitialPublishRecorded(t *testing.T) {
	c, col := auditCtrl(t, DetectorConfig{})
	defer c.Close()
	recs := col.Snapshot()
	if len(recs) == 0 {
		t.Fatal("no records after construction")
	}
	if recs[0].Kind != auditlog.KindPublish || recs[0].Gen != 1 {
		t.Fatalf("first record %+v, want gen-1 publish", recs[0])
	}
	if recs[0].Healthy != 4 {
		t.Fatalf("initial publish healthy = %d, want 4", recs[0].Healthy)
	}
}

func TestAuditEjectionLifecycle(t *testing.T) {
	cfg := DetectorConfig{
		FailureThreshold: 3,
		BackoffInitial:   100 * time.Millisecond,
		SlowStartTicks:   2,
	}
	c, col := auditCtrl(t, cfg)
	defer c.Close()

	for i := 0; i < 3; i++ {
		c.ReportDialError(1, 10*time.Millisecond)
	}
	recs := col.Snapshot()
	tr := find(recs, auditlog.KindTransition, 1)
	if tr == nil {
		t.Fatalf("no transition record: %+v", recs)
	}
	if HealthState(tr.From) != Healthy || HealthState(tr.To) != Ejected ||
		tr.Cause != auditlog.CauseFailures || tr.Fails != 3 {
		t.Fatalf("ejection record %+v", tr)
	}
	if tr.At != 10*time.Millisecond {
		t.Fatalf("ejection At = %v, want 10ms", tr.At)
	}
	// The ejection's republish follows the transition in the log.
	pub := find(recs[len(recs)-1:], auditlog.KindPublish, -1)
	if pub == nil || pub.Healthy != 3 {
		t.Fatalf("no post-ejection publish with healthy=3, tail %+v", recs[len(recs)-1])
	}

	// Backoff expiry → half-open, dial success → slow-start, ramp → healthy.
	c.Tick(200 * time.Millisecond)
	c.ReportDialSuccess(1)
	c.Tick(210 * time.Millisecond)
	c.Tick(220 * time.Millisecond)
	if st := c.Health(1).State; st != Healthy {
		t.Fatalf("state after recovery = %v", st)
	}
	recs = col.Snapshot()
	wantCauses := []auditlog.Cause{
		auditlog.CauseFailures, auditlog.CauseBackoffExpired,
		auditlog.CauseTrialSuccess, auditlog.CauseRampDone,
	}
	var got []auditlog.Cause
	for _, r := range recs {
		if r.Kind == auditlog.KindTransition && r.Backend == 1 {
			got = append(got, r.Cause)
		}
	}
	if len(got) != len(wantCauses) {
		t.Fatalf("transition causes %v, want %v", got, wantCauses)
	}
	for i := range got {
		if got[i] != wantCauses[i] {
			t.Fatalf("transition causes %v, want %v", got, wantCauses)
		}
	}
}

func TestAuditVetoedEjectionNotRecorded(t *testing.T) {
	c, col := auditCtrl(t, DetectorConfig{FailureThreshold: 1})
	defer c.Close()
	for b := 0; b < 3; b++ {
		c.ReportDialError(b, 0)
	}
	// Backend 3 is the last routable one: ejection must be vetoed and no
	// transition logged.
	before := len(col.Snapshot())
	c.ReportDialError(3, 0)
	if c.Health(3).Ejected() {
		t.Fatal("last backend was ejected")
	}
	for _, r := range col.Snapshot()[before:] {
		if r.Kind == auditlog.KindTransition && r.Backend == 3 {
			t.Fatalf("vetoed ejection was recorded: %+v", r)
		}
	}
}

func TestAuditManualFlip(t *testing.T) {
	c, col := auditCtrl(t, DetectorConfig{})
	defer c.Close()
	c.SetEjected(2, true)
	c.SetEjected(2, false)
	recs := col.Snapshot()
	var flips []auditlog.Record
	for _, r := range recs {
		if r.Kind == auditlog.KindManual {
			flips = append(flips, r)
		}
	}
	if len(flips) != 2 || flips[0].Backend != 2 || flips[1].Backend != 2 {
		t.Fatalf("manual records %+v", flips)
	}
	if HealthState(flips[0].To) != Ejected || HealthState(flips[1].To) != Healthy {
		t.Fatalf("manual directions %+v", flips)
	}
	// Clearing the veto with the detector on ramps via slow-start, and that
	// transition is on the record too.
	tr := find(recs, auditlog.KindTransition, 2)
	if tr == nil || tr.Cause != auditlog.CauseManual || HealthState(tr.To) != SlowStart {
		t.Fatalf("manual recovery transition %+v", tr)
	}
}

func TestAuditWeightsRecordedOnChange(t *testing.T) {
	la, err := NewLatencyAware(LatencyAwareConfig{
		Backends: []string{"s0", "s1", "s2"},
		Alpha:    0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	col := &auditlog.Collector{}
	c := NewController(la, ControllerConfig{Shards: 1, Audit: col})
	defer c.Close()

	w0 := find(col.Snapshot(), auditlog.KindWeights, -1)
	if w0 == nil || len(w0.Weights) != 3 {
		t.Fatalf("initial weights record %+v", w0)
	}
	for i, w := range w0.Weights {
		if w < 0.33 || w > 0.34 {
			t.Fatalf("initial weight[%d] = %v, want ~1/3", i, w)
		}
	}

	// Ticks without samples change nothing: no further weight records.
	n := len(col.Snapshot())
	c.Tick(1 * time.Millisecond)
	c.Tick(2 * time.Millisecond)
	for _, r := range col.Snapshot()[n:] {
		if r.Kind == auditlog.KindWeights {
			t.Fatalf("weight record without a weight change: %+v", r)
		}
	}

	// A latency skew shifts weight off the slow backend; the new vector is
	// logged with the publishing generation.
	n = len(col.Snapshot())
	for i := 0; i < 50; i++ {
		at := time.Duration(3+i) * time.Millisecond
		c.ObserveLatency(0, at, 50*time.Millisecond)
		c.ObserveLatency(1, at, 1*time.Millisecond)
		c.ObserveLatency(2, at, 1*time.Millisecond)
	}
	c.Tick(100 * time.Millisecond)
	recs := col.Snapshot()[n:]
	w1 := find(recs, auditlog.KindWeights, -1)
	if w1 == nil {
		t.Fatalf("no weight record after shift: %+v", recs)
	}
	if w1.Weights[0] >= w0.Weights[0] {
		t.Fatalf("worst backend weight did not drop: %v -> %v", w0.Weights, w1.Weights)
	}
	pub := find(recs, auditlog.KindPublish, -1)
	if pub == nil || w1.Gen != pub.Gen {
		t.Fatalf("weight record gen %d not tied to publish %+v", w1.Gen, pub)
	}
}

func TestAuditConfigReloadPreservesDetectorState(t *testing.T) {
	c, col := auditCtrl(t, DetectorConfig{FailureThreshold: 1})
	defer c.Close()
	c.ReportDialError(2, 0)
	if !c.Health(2).Ejected() {
		t.Fatal("setup: backend 2 not ejected")
	}

	cfg, ok := c.DetectorConfigView()
	if !ok {
		t.Fatal("detector not reported enabled")
	}
	cfg.FailureThreshold = 7
	if !c.SetDetectorConfig(cfg) {
		t.Fatal("reload rejected")
	}
	if got, _ := c.DetectorConfigView(); got.FailureThreshold != 7 {
		t.Fatalf("threshold after reload = %d", got.FailureThreshold)
	}
	// Reload must not reset in-flight state: 2 stays ejected.
	if !c.Health(2).Ejected() {
		t.Fatal("reload reset detector state")
	}
	if find(col.Snapshot(), auditlog.KindConfigReload, -1) == nil {
		t.Fatal("config reload not recorded")
	}

	// Disabling drops the detector and restores full admission.
	if !c.SetDetectorConfig(DetectorConfig{}) {
		t.Fatal("disable rejected")
	}
	if _, ok := c.DetectorConfigView(); ok {
		t.Fatal("detector still reported enabled")
	}
	if c.Health(2).Ejected() {
		t.Fatal("ejection survived detector disable")
	}
	// Disabling twice is a no-op.
	if c.SetDetectorConfig(DetectorConfig{}) {
		t.Fatal("double disable reported a change")
	}
	// Re-enabling from scratch works.
	if !c.SetDetectorConfig(DetectorConfig{Enabled: true, FailureThreshold: 1, Seed: 1}) {
		t.Fatal("re-enable rejected")
	}
	c.ReportDialError(0, 0)
	if !c.Health(0).Ejected() {
		t.Fatal("re-enabled detector not ejecting")
	}
}

// TestAuditDeterministicAcrossRuns: two identical controller histories
// produce identical decision logs — the property incident replay rests on.
func TestAuditDeterministicAcrossRuns(t *testing.T) {
	run := func() []auditlog.Record {
		cfg := DetectorConfig{
			FailureThreshold: 2,
			BackoffInitial:   50 * time.Millisecond,
			SlowStartTicks:   3,
		}
		c, col := auditCtrl(t, cfg)
		defer c.Close()
		c.ReportDialError(1, time.Millisecond)
		c.ReportDialError(1, 2*time.Millisecond)
		for i := 0; i < 40; i++ {
			c.Tick(time.Duration(10+i*5) * time.Millisecond)
		}
		c.ReportDialSuccess(1)
		for i := 0; i < 10; i++ {
			c.Tick(time.Duration(300+i*5) * time.Millisecond)
		}
		return col.Snapshot()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Kind != y.Kind || x.Backend != y.Backend || x.Gen != y.Gen ||
			x.Cause != y.Cause || x.At != y.At {
			t.Fatalf("record %d differs: %+v vs %+v", i, x, y)
		}
	}
}
