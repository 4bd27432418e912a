package lbproxy

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"inbandlb/internal/auditlog"
	"inbandlb/internal/control"
	"inbandlb/internal/memcache"
)

// validatePrometheusText is a strict checker for the Prometheus text
// exposition format (version 0.0.4): every sample line must parse, every
// sample's family must have a preceding # TYPE, and HELP/TYPE comments
// must be well-formed. Returns the set of family names seen.
func validatePrometheusText(t *testing.T, body string) map[string]string {
	t.Helper()
	var (
		metricName = `[a-zA-Z_:][a-zA-Z0-9_:]*`
		labelPair  = `[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"`
		value      = `(?:[-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|NaN|[-+]Inf)`
		sampleRe   = regexp.MustCompile(`^(` + metricName + `)(?:\{(?:` + labelPair + `)(?:,` + labelPair + `)*\})? ` + value + `(?: [0-9]+)?$`)
		helpRe     = regexp.MustCompile(`^# HELP (` + metricName + `) .+$`)
		typeRe     = regexp.MustCompile(`^# TYPE (` + metricName + `) (counter|gauge|histogram|summary|untyped)$`)
	)
	types := make(map[string]string)
	samples := 0
	for i, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			if !helpRe.MatchString(line) {
				t.Errorf("line %d: malformed HELP: %q", i+1, line)
			}
		case strings.HasPrefix(line, "# TYPE "):
			mt := typeRe.FindStringSubmatch(line)
			if mt == nil {
				t.Errorf("line %d: malformed TYPE: %q", i+1, line)
				continue
			}
			if _, dup := types[mt[1]]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", i+1, mt[1])
			}
			types[mt[1]] = mt[2]
		case strings.HasPrefix(line, "#"):
			// other comments are legal
		default:
			ms := sampleRe.FindStringSubmatch(line)
			if ms == nil {
				t.Errorf("line %d: unparseable sample: %q", i+1, line)
				continue
			}
			if _, ok := types[ms[1]]; !ok {
				t.Errorf("line %d: sample %s has no preceding # TYPE", i+1, ms[1])
			}
			samples++
		}
	}
	if samples == 0 {
		t.Fatal("exposition contained no samples")
	}
	return types
}

// startAuditedProxy runs a proxy with passive detection and an async audit
// log writing into buf, over two live backends (latency-aware needs a pool
// of at least two distinct servers).
func startAuditedProxy(t *testing.T, buf *bytes.Buffer) (*Proxy, string, *auditlog.Log) {
	t.Helper()
	_, b0 := startBackend(t)
	_, b1 := startBackend(t)
	backends := []string{b0, b1}
	alog, err := auditlog.NewLog(buf, auditlog.LogConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := control.NewLatencyAware(control.LatencyAwareConfig{
		Backends: backends, Alpha: 0.3, MinWeight: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Backends: backends,
		Policy:   pol,
		Detector: control.DetectorConfig{Enabled: true, FailureThreshold: 3},
		Audit:    alog,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go func() { _ = p.Serve() }()
	t.Cleanup(func() { _ = p.Close() })
	return p, p.Addr().String(), alog
}

// TestAdminMetricsValidPrometheus is the acceptance criterion: /metrics
// must emit well-formed Prometheus text exposition.
func TestAdminMetricsValidPrometheus(t *testing.T) {
	var logBuf bytes.Buffer
	p, paddr, _ := startAuditedProxy(t, &logBuf)

	// Push a little traffic so counters are non-zero.
	c, err := memcache.Dial(paddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.Close()

	srv := httptest.NewServer(p.AdminHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	families := validatePrometheusText(t, body.String())

	for _, want := range []string{
		"lbproxy_accepted_total",
		"lbproxy_accept_errors_total",
		"lbproxy_backend_connections_total",
		"lbproxy_backend_connects_inflight",
		"lbproxy_backend_connect_timeouts_total",
		"lbproxy_backend_health_state",
		"lbproxy_backend_admission",
		"lbproxy_audit_written_total",
		"lbproxy_audit_sheds_total",
		"lbproxy_backend_weight",
	} {
		if _, ok := families[want]; !ok {
			t.Errorf("family %s missing from exposition", want)
		}
	}
	if !strings.Contains(body.String(), "lbproxy_accepted_total 1") {
		t.Errorf("accepted counter not reflecting traffic:\n%s", body.String())
	}
	if !strings.Contains(body.String(), `state="healthy"`) {
		t.Error("backend health state missing")
	}
}

// TestAdminDecisionsTail: the /decisions endpoint serves the audit tail,
// including the initial snapshot publish and a manual ejection flip.
func TestAdminDecisionsTail(t *testing.T) {
	var logBuf bytes.Buffer
	p, _, alog := startAuditedProxy(t, &logBuf)

	p.ctrl.SetEjected(1, true)
	p.ctrl.SetEjected(1, false)

	// The async sink's writer goroutine mirrors records into the tail;
	// wait for it to catch up.
	deadline := time.Now().Add(2 * time.Second)
	for alog.Written() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	srv := httptest.NewServer(p.AdminHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/decisions?n=50")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Written   uint64 `json:"written"`
		Sheds     uint64 `json:"sheds"`
		Decisions []struct {
			Kind    string `json:"kind"`
			Cause   string `json:"cause"`
			Backend int32  `json:"backend"`
			To      string `json:"to"`
		} `json:"decisions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Decisions) == 0 {
		t.Fatal("no decisions in tail")
	}
	if doc.Decisions[0].Kind != "publish" {
		t.Errorf("first decision %q, want the initial publish", doc.Decisions[0].Kind)
	}
	var sawManual bool
	for _, d := range doc.Decisions {
		if d.Kind == "manual" && d.Backend == 1 && d.To == "ejected" {
			sawManual = true
		}
	}
	if !sawManual {
		t.Errorf("manual ejection not in tail: %+v", doc.Decisions)
	}

	if resp, err := http.Get(srv.URL + "/decisions?n=bogus"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bogus n got %d", resp.StatusCode)
		}
	}
}

// TestAdminDecisionsWithoutAuditLog: a proxy without an async audit sink
// answers 404, not a panic or an empty 200.
func TestAdminDecisionsWithoutAuditLog(t *testing.T) {
	_, baddr := startBackend(t)
	p, _ := startProxy(t, control.NewRoundRobin(1), baddr)
	srv := httptest.NewServer(p.AdminHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/decisions")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
}

// TestAdminConfigReload: GET shows the live detector config; POST overlays
// only the named knobs, preserves the rest, and the reload lands in the
// audit log.
func TestAdminConfigReload(t *testing.T) {
	var logBuf bytes.Buffer
	p, _, alog := startAuditedProxy(t, &logBuf)

	srv := httptest.NewServer(p.AdminHandler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/config")
	if err != nil {
		t.Fatal(err)
	}
	var cfg map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&cfg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cfg["enabled"] != true {
		t.Fatalf("GET /config: %v", cfg)
	}
	if cfg["failure_threshold"].(float64) != 3 {
		t.Errorf("failure_threshold = %v", cfg["failure_threshold"])
	}

	resp, err = http.Post(srv.URL+"/config", "application/json",
		strings.NewReader(`{"failure_threshold": 7, "backoff_initial_ms": 250}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&cfg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /config: %d", resp.StatusCode)
	}
	if cfg["failure_threshold"].(float64) != 7 || cfg["backoff_initial_ms"].(float64) != 250 {
		t.Errorf("reload not applied: %v", cfg)
	}
	// Overlay semantics: untouched knobs keep their (defaulted) values.
	if cfg["outlier_ticks"].(float64) != 10 || cfg["enabled"] != true {
		t.Errorf("reload clobbered unnamed knobs: %v", cfg)
	}
	live, enabled := p.DetectorConfig()
	if !enabled || live.FailureThreshold != 7 || live.BackoffInitial != 250*time.Millisecond {
		t.Errorf("live config = %+v enabled=%v", live, enabled)
	}

	// The reload is itself an audited decision.
	deadline := time.Now().Add(2 * time.Second)
	var sawReload bool
	for time.Now().Before(deadline) && !sawReload {
		for _, rec := range alog.Tail(0) {
			if rec.Kind == auditlog.KindConfigReload {
				sawReload = true
			}
		}
		time.Sleep(time.Millisecond)
	}
	if !sawReload {
		t.Error("config reload not recorded in the audit log")
	}

	// Malformed body: 400, config unchanged.
	resp, err = http.Post(srv.URL+"/config", "application/json", strings.NewReader(`{"failure`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed POST got %d", resp.StatusCode)
	}
	if live, _ := p.DetectorConfig(); live.FailureThreshold != 7 {
		t.Errorf("malformed POST changed config: %+v", live)
	}
}

// TestAdminAuditLogSealsOnClose: after the proxy shuts down and the log is
// closed, the on-disk bytes verify end to end — the production wiring
// produces the same tamper-evident artifact the incident tooling consumes.
func TestAdminAuditLogSealsOnClose(t *testing.T) {
	var logBuf bytes.Buffer
	p, paddr, alog := startAuditedProxy(t, &logBuf)

	c, err := memcache.Dial(paddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Set("k", []byte("v"))
	c.Close()

	_ = p.Close()
	if err := alog.Close(); err != nil {
		t.Fatalf("audit close: %v", err)
	}
	logged, err := auditlog.Verify(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatalf("proxy audit log failed verification: %v", err)
	}
	if len(logged.Records) == 0 {
		t.Fatal("no records in proxy audit log")
	}
	if logged.Records[0].Kind != auditlog.KindPublish {
		t.Errorf("first record %v, want the initial publish", logged.Records[0].Kind)
	}
}
