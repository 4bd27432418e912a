package lbproxy

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"inbandlb/internal/auditlog"
	"inbandlb/internal/control"
)

// The admin surface is the operational control plane for a running proxy,
// and its one HTTP listener:
//
//	GET  /metrics    Prometheus text exposition: every Stats counter plus
//	                 per-backend routing state (connections, down bit,
//	                 health-state, admission fraction, weight) and audit
//	                 sink health (records written, records shed).
//	GET  /status     The Snapshot document as JSON: counters, weights,
//	                 per-backend latencies, goroutines.
//	GET  /decisions  The most recent audit-log decisions (JSON, newest
//	                 last), straight from the async sink's in-memory tail —
//	                 available even while the on-disk log is mid-write.
//	                 ?n=K bounds the count (default 100).
//	GET  /config     The live passive-detector configuration.
//	POST /config     Live reload: JSON fields overlay the current detector
//	                 configuration and apply without restarting the proxy or
//	                 resetting in-flight recovery state machines.
//	GET  /debug/pprof/  net/http/pprof's profiles.
//
// All of it is stdlib-only, served off the data path: /metrics reads
// atomics and one RCU snapshot, /decisions copies a bounded tail under its
// own mutex, /status and /config serialize with the controller like any
// other control-plane caller.

// auditTailer is the slice of the async audit sink the admin endpoints
// need. *auditlog.Log implements it; other sinks just get "audit tail
// unavailable".
type auditTailer interface {
	Tail(n int) []auditlog.Record
	Sheds() uint64
	Written() uint64
}

// DetectorConfig returns the live detector configuration (defaults
// applied) and whether passive detection is enabled.
func (p *Proxy) DetectorConfig() (control.DetectorConfig, bool) {
	return p.ctrl.DetectorConfigView()
}

// AdminHandler serves the admin surface documented above.
func (p *Proxy) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", p.handleMetrics)
	mux.HandleFunc("/status", p.handleStatus)
	mux.HandleFunc("/decisions", p.handleDecisions)
	mux.HandleFunc("/config", p.handleConfig)
	mux.HandleFunc("/debug/pprof/", pprof.Index) // and every named profile under it
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writeJSON sends v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p.writeMetrics(w)
}

// metricWriter emits Prometheus text exposition format: one TYPE comment
// per family, then its samples. Write errors on an HTTP response are the
// client's problem; they are ignored.
type metricWriter struct{ w io.Writer }

func (m metricWriter) family(name, help, typ string) {
	fmt.Fprintf(m.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (m metricWriter) sample(name, labels string, v float64) {
	if labels == "" {
		fmt.Fprintf(m.w, "%s %s\n", name, formatMetricValue(v))
		return
	}
	fmt.Fprintf(m.w, "%s{%s} %s\n", name, labels, formatMetricValue(v))
}

// formatMetricValue renders like Prometheus clients do: integers without
// an exponent, everything else in the shortest round-trippable form.
func formatMetricValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (p *Proxy) writeMetrics(w io.Writer) {
	st := p.Stats()
	m := metricWriter{w}

	m.family("lbproxy_uptime_seconds", "Seconds since the proxy started.", "gauge")
	m.sample("lbproxy_uptime_seconds", "", time.Since(p.start).Seconds())

	counters := []struct {
		name, help string
		v          uint64
	}{
		{"lbproxy_accepted_total", "Connections accepted.", st.Accepted},
		{"lbproxy_accept_errors_total", "Accept failures the acceptors backed off from and retried.", st.AcceptErrors},
		{"lbproxy_dial_errors_total", "Connections that failed every dial attempt.", st.DialErrors},
		{"lbproxy_backend_connect_timeouts_total", "Backend connects ended by the dial timeout.", st.ConnectTimeouts},
		{"lbproxy_dropped_total", "Connections dropped for lack of any admitted backend.", st.Dropped},
		{"lbproxy_fallbacks_total", "Connections rerouted away from an ejected backend.", st.Fallbacks},
		{"lbproxy_failovers_total", "Connections rescued by the post-dial-error retry.", st.Failovers},
		{"lbproxy_samples_total", "Latency samples emitted by the in-band estimator.", st.Samples},
		{"lbproxy_samples_delivered_total", "Estimator samples merged into the policy by control ticks.", st.SamplesDelivered},
		{"lbproxy_relay_reads_total", "read(2) calls by the relay.", st.RelayReads},
		{"lbproxy_relay_writes_total", "write(2) calls by the relay.", st.RelayWrites},
		{"lbproxy_relay_splices_total", "splice(2) calls by the relay's zero-copy path.", st.RelaySplices},
		{"lbproxy_pool_hits_total", "Dial-pool checkouts served from an idle connection.", st.PoolHits},
		{"lbproxy_pool_misses_total", "Dial-pool checkouts that required a fresh dial.", st.PoolMisses},
		{"lbproxy_pool_dead_total", "Pooled connections found dead at checkout.", st.PoolDead},
		{"lbproxy_pool_first_write_fails_total", "Pooled connections that died on first write.", st.PoolFirstWriteFails},
		{"lbproxy_pool_recycled_total", "Backend connections recycled into the pool.", st.PoolRecycled},
		{"lbproxy_congestion_samples_total", "Successful TCP_INFO reads on relayed backend connections.", st.CongSamples},
		{"lbproxy_congestion_retrans_total", "Retransmitted segments attributed to backends.", st.CongRetrans},
		{"lbproxy_snapshot_generation", "Routing-snapshot publications (monotonic).", p.ctrl.Generation()},
	}
	for _, c := range counters {
		typ := "counter"
		if c.name == "lbproxy_snapshot_generation" {
			typ = "gauge" // monotonic, but not a resettable counter family
		}
		m.family(c.name, c.help, typ)
		m.sample(c.name, "", float64(c.v))
	}

	m.family("lbproxy_active_connections", "Currently relayed connections.", "gauge")
	m.sample("lbproxy_active_connections", "", float64(st.Active))
	m.family("lbproxy_backend_connects_inflight", "Backend connects in progress: connections accepted and routed but not relaying yet.", "gauge")
	m.sample("lbproxy_backend_connects_inflight", "", float64(st.ConnectsInflight))
	m.family("lbproxy_tracked_flows", "Connections holding a live estimator.", "gauge")
	m.sample("lbproxy_tracked_flows", "", float64(p.estimators.Load()))

	m.family("lbproxy_backend_connections_total", "Connections routed per backend.", "counter")
	for i, v := range st.PerBackend {
		m.sample("lbproxy_backend_connections_total", backendLabels(i, p.cfg.Backends[i]), float64(v))
	}
	m.family("lbproxy_backend_down", "1 when the backend admits no traffic (probe or passive ejection).", "gauge")
	for i, down := range st.Down {
		m.sample("lbproxy_backend_down", backendLabels(i, p.cfg.Backends[i]), boolMetric(down))
	}
	m.family("lbproxy_backend_health_state", "1 for the backend's current passive-detector state.", "gauge")
	for i, h := range st.Health {
		m.sample("lbproxy_backend_health_state",
			backendLabels(i, p.cfg.Backends[i])+`,state="`+h+`"`, 1)
	}
	health := make([]control.BackendHealth, len(st.PerBackend))
	for i := range health {
		health[i] = p.ctrl.Health(i)
	}
	m.family("lbproxy_backend_admission", "Admitted fraction of the backend's hash range (0-1).", "gauge")
	for i, h := range health {
		m.sample("lbproxy_backend_admission", backendLabels(i, p.cfg.Backends[i]), h.Admission)
	}
	m.family("lbproxy_backend_ejections_total", "Passive-detector ejections per backend.", "counter")
	for i, h := range health {
		m.sample("lbproxy_backend_ejections_total", backendLabels(i, p.cfg.Backends[i]), float64(h.Ejections))
	}
	if snap := p.ctrl.Snapshot(); snap != nil && snap.Weights() != nil {
		m.family("lbproxy_backend_weight", "Published routing weight per backend.", "gauge")
		for i, wv := range snap.Weights() {
			m.sample("lbproxy_backend_weight", backendLabels(i, p.cfg.Backends[i]), wv)
		}
	}

	if tail, ok := p.cfg.Audit.(auditTailer); ok {
		m.family("lbproxy_audit_written_total", "Decision records written to the audit log.", "counter")
		m.sample("lbproxy_audit_written_total", "", float64(tail.Written()))
		m.family("lbproxy_audit_sheds_total", "Decision records shed because the audit ring was full.", "counter")
		m.sample("lbproxy_audit_sheds_total", "", float64(tail.Sheds()))
	}

	np := st.Netpoll
	if len(np) > 0 {
		m.family("lbproxy_netpoll_wakeups_total", "epoll_wait wakeups per poller shard.", "counter")
		for i, s := range np {
			m.sample("lbproxy_netpoll_wakeups_total", `shard="`+strconv.Itoa(i)+`"`, float64(s.Wakeups))
		}
		m.family("lbproxy_netpoll_registered_fds", "Registered fds per poller shard.", "gauge")
		for i, s := range np {
			m.sample("lbproxy_netpoll_registered_fds", `shard="`+strconv.Itoa(i)+`"`, float64(s.RegisteredFDs))
		}
	}
}

func backendLabels(i int, addr string) string {
	return `backend="` + strconv.Itoa(i) + `",addr="` + addr + `"`
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// decisionJSON is one audit record rendered for operators: enum fields as
// names, durations in seconds/milliseconds.
type decisionJSON struct {
	Seq       uint64    `json:"seq"`
	AtSeconds float64   `json:"at_seconds"`
	Kind      string    `json:"kind"`
	Cause     string    `json:"cause,omitempty"`
	Backend   int32     `json:"backend"`
	Gen       uint64    `json:"generation"`
	From      string    `json:"from,omitempty"`
	To        string    `json:"to,omitempty"`
	Healthy   int32     `json:"healthy"`
	Fails     int32     `json:"fails,omitempty"`
	MeanMs    float64   `json:"mean_ms,omitempty"`
	MedianMs  float64   `json:"median_ms,omitempty"`
	Retrans   int64     `json:"retrans,omitempty"`
	DupAcks   int64     `json:"dup_acks,omitempty"`
	ZeroWins  int64     `json:"zero_windows,omitempty"`
	Weights   []float64 `json:"weights,omitempty"`
}

func renderDecision(rec auditlog.Record) decisionJSON {
	d := decisionJSON{
		Seq:       rec.Seq,
		AtSeconds: rec.At.Seconds(),
		Kind:      rec.Kind.String(),
		Backend:   rec.Backend,
		Gen:       rec.Gen,
		Healthy:   rec.Healthy,
		Fails:     rec.Fails,
		MeanMs:    float64(rec.Mean) / 1e6,
		MedianMs:  float64(rec.Median) / 1e6,
		Retrans:   rec.Retrans,
		DupAcks:   rec.DupAcks,
		ZeroWins:  rec.ZeroWins,
		Weights:   rec.Weights,
	}
	if rec.Cause != auditlog.CauseNone {
		d.Cause = rec.Cause.String()
	}
	if rec.Kind == auditlog.KindTransition || rec.Kind == auditlog.KindManual {
		d.From = control.HealthState(rec.From).String()
		d.To = control.HealthState(rec.To).String()
	}
	return d
}

func (p *Proxy) handleDecisions(w http.ResponseWriter, r *http.Request) {
	tail, ok := p.cfg.Audit.(auditTailer)
	if !ok {
		http.Error(w, "audit tail unavailable: proxy not started with an async audit log", http.StatusNotFound)
		return
	}
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			http.Error(w, "n must be a positive integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	recs := tail.Tail(n)
	out := struct {
		Written   uint64         `json:"written"`
		Sheds     uint64         `json:"sheds"`
		Decisions []decisionJSON `json:"decisions"`
	}{Written: tail.Written(), Sheds: tail.Sheds(), Decisions: make([]decisionJSON, 0, len(recs))}
	for _, rec := range recs {
		out.Decisions = append(out.Decisions, renderDecision(rec))
	}
	writeJSON(w, out)
}

// detectorConfigJSON is the wire form of control.DetectorConfig: durations
// in milliseconds so reload payloads are plain numbers.
type detectorConfigJSON struct {
	Enabled           bool    `json:"enabled"`
	FailureThreshold  int     `json:"failure_threshold"`
	OutlierFactor     float64 `json:"outlier_factor"`
	OutlierTicks      int     `json:"outlier_ticks"`
	StarvationTicks   int     `json:"starvation_ticks"`
	MinPoolSamples    int64   `json:"min_pool_samples"`
	BackoffInitialMs  float64 `json:"backoff_initial_ms"`
	BackoffMaxMs      float64 `json:"backoff_max_ms"`
	HalfOpenFraction  float64 `json:"half_open_fraction"`
	HalfOpenTicks     int     `json:"half_open_ticks"`
	SlowStartTicks    int     `json:"slow_start_ticks"`
	CongestionPerTick int64   `json:"congestion_per_tick"`
	CongestionTicks   int     `json:"congestion_ticks"`
}

func toConfigJSON(cfg control.DetectorConfig, enabled bool) detectorConfigJSON {
	return detectorConfigJSON{
		Enabled:           enabled,
		FailureThreshold:  cfg.FailureThreshold,
		OutlierFactor:     cfg.OutlierFactor,
		OutlierTicks:      cfg.OutlierTicks,
		StarvationTicks:   cfg.StarvationTicks,
		MinPoolSamples:    cfg.MinPoolSamples,
		BackoffInitialMs:  float64(cfg.BackoffInitial) / 1e6,
		BackoffMaxMs:      float64(cfg.BackoffMax) / 1e6,
		HalfOpenFraction:  cfg.HalfOpenFraction,
		HalfOpenTicks:     cfg.HalfOpenTicks,
		SlowStartTicks:    cfg.SlowStartTicks,
		CongestionPerTick: cfg.CongestionPerTick,
		CongestionTicks:   cfg.CongestionTicks,
	}
}

func (j detectorConfigJSON) toConfig(seed int64) control.DetectorConfig {
	return control.DetectorConfig{
		Enabled:           j.Enabled,
		FailureThreshold:  j.FailureThreshold,
		OutlierFactor:     j.OutlierFactor,
		OutlierTicks:      j.OutlierTicks,
		StarvationTicks:   j.StarvationTicks,
		MinPoolSamples:    j.MinPoolSamples,
		BackoffInitial:    time.Duration(j.BackoffInitialMs * 1e6),
		BackoffMax:        time.Duration(j.BackoffMaxMs * 1e6),
		HalfOpenFraction:  j.HalfOpenFraction,
		HalfOpenTicks:     j.HalfOpenTicks,
		SlowStartTicks:    j.SlowStartTicks,
		CongestionPerTick: j.CongestionPerTick,
		CongestionTicks:   j.CongestionTicks,
		Seed:              seed,
	}
}

func (p *Proxy) handleConfig(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		// Overlay semantics: the request body is decoded on top of the
		// current live configuration, so a reload names only the knobs it
		// changes. (An omitted "enabled" keeps the detector on.)
		cur, enabled := p.ctrl.DetectorConfigView()
		body := toConfigJSON(cur, enabled)
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&body); err != nil {
			http.Error(w, "bad config: "+err.Error(), http.StatusBadRequest)
			return
		}
		p.ctrl.SetDetectorConfig(body.toConfig(cur.Seed))
	default:
		http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, toConfigJSON(p.ctrl.DetectorConfigView()))
}
