package main

import (
	"bufio"
	"fmt"
	"sync"
	"time"
)

// The traced run gives the per-layer numbers. It is never the source of an
// end-to-end metric: spans, scrapes and weight polling all cost something,
// and trace.overhead_pct says how much.
//
// Its --seconds are split into four quarters: a direct leg (the generator
// dials a backend, no proxy), an untraced proxy leg bracketed by /metrics
// scrapes (the counters behind every per-op figure), a traced proxy leg
// (spans), and the layer probes.

// reconvergePoll is how often the proxy's published weights are read after
// a swap.
const reconvergePoll = 20 * time.Millisecond

func (r *rig) liveTraced(w workload, seed int64, seconds float64, f faults) (*runResult, error) {
	res := newResult(w.Name, true, perLayer)
	data := newDataset(seed, w.keys, w.valueSize)
	env, _, err := r.startLive(w, data, f)
	if err != nil {
		return nil, err
	}
	defer env.stop()
	quarter := time.Duration(seconds / 4 * float64(time.Second))
	t0 := time.Now()

	rssBefore, err := readProc(env.proxy.pid)
	if err != nil {
		return nil, err
	}
	idle, err := env.openFleet(w.idleConns)
	if err != nil {
		return nil, err
	}
	defer idle.close()
	if w.idleConns > 0 {
		rssAfter, err := readProc(env.proxy.pid)
		if err != nil {
			return nil, err
		}
		res.set("lbproxy.bytes_per_conn", float64(rssAfter.rssKiB-rssBefore.rssKiB)*1024/float64(w.idleConns))
	}
	if w.delays[1] != 0 {
		if err := env.setDelays(w.delays[0], w.delays[1]); err != nil {
			return nil, err
		}
	}

	// Direct leg: backend 0 alone, which under injected delays is the fast one.
	direct := leg{spec: w.spec(env.backendAddr[0], data, seed, false),
		warm: quarter / 4, windows: 1, windowLen: quarter, pid: env.backends[0].pid}
	dr, err := direct.run()
	if err != nil {
		return nil, err
	}
	res.checkLeg(dr)
	dwin := &dr.windows[0]
	dOps := float64(dwin.ops())
	res.set("memcache.direct_ops_per_s", dOps/dwin.seconds)
	res.set("memcache.direct_p50_us", quantileUS(dwin.lat, 0.50))
	res.set("memcache.direct_p95_us", quantileUS(dwin.lat, 0.95))
	res.set("memcache.cpu_us_per_op", ratio(dwin.procEnd.cpuUS()-dwin.proc.cpuUS(), dOps))

	// Untraced proxy leg, bracketed by scrapes taken at the window's edges.
	var before scrape
	rec := &reconverge{admin: env.adminAddr, limit: quarter}
	fail := func(err error) { res.problem("%v", err) }
	swap := env.swapper(w, fail)
	plain := leg{spec: w.spec(env.proxyAddr, data, seed, false),
		warm: w.warm / 2, windows: 1, windowLen: quarter, pid: env.proxy.pid, place: env.placer(w),
		onWindow: func(int) {
			if swap != nil { // backend 0 turns slow for this leg
				swap(0)
				rec.watch(0)
			}
			var err error
			if before, err = scrapeMetrics(env.adminAddr); err != nil {
				fail(err)
			}
		}}
	pr, err := plain.run()
	if err != nil {
		return nil, err
	}
	rec.wait()
	after, err := scrapeMetrics(env.adminAddr)
	if err != nil {
		return nil, err
	}
	res.checkLeg(pr)
	win := &pr.windows[0]
	ops := float64(win.ops())
	res.Attempted, res.Failed = win.attempted, win.failed
	opsPerS := ops / win.seconds
	p50 := quantileUS(win.lat, 0.50)

	res.set("workload.samples", ops)
	res.set("workload.p99_us", quantileUS(win.lat, 0.99))
	res.set("workload.p999_us", quantileUS(win.lat, 0.999))
	res.set("workload.max_us", quantileUS(win.lat, 1))
	res.set("workload.cpu_us_per_op", ratio(win.genEnd.cpuUS()-win.gen.cpuUS(), ops))
	res.set("lbproxy.added_p50_us", p50-quantileUS(dwin.lat, 0.50))
	res.set("lbproxy.throughput_vs_direct", ratio(opsPerS, dOps/dwin.seconds))
	res.set("lbproxy.user_cpu_us_per_op", ratio(win.procEnd.userUS-win.proc.userUS, ops))
	res.set("lbproxy.sys_cpu_us_per_op", ratio(win.procEnd.sysUS-win.proc.sysUS, ops))
	res.set("lbproxy.ctx_switches_per_op", ratio(float64(win.procEnd.ctxSwitches-win.proc.ctxSwitches), ops))
	res.set("lbproxy.threads", float64(win.procEnd.threads))
	res.set("host.steal_pct", win.stealPct)

	// Counter deltas over the window. A series the page lacks leaves its
	// metric at 0 and never fails the run.
	d := func(name string) float64 { v, _ := delta(before, after, name); return v }
	syscalls := d("lbproxy_relay_reads_total") + d("lbproxy_relay_writes_total") + d("lbproxy_relay_splices_total")
	accepts := d("lbproxy_accepted_total")
	res.set("lbproxy.relay_syscalls_per_op", ratio(syscalls, ops))
	res.set("lbproxy.relay_bytes_per_syscall", ratio(float64(win.bytes), syscalls))
	res.set("lbproxy.accepts_per_op", ratio(accepts, ops))
	res.set("lbproxy.failovers", d("lbproxy_failovers_total"))
	res.set("lbproxy.dial_errors", d("lbproxy_dial_errors_total"))
	res.set("lbproxy.dropped", d("lbproxy_dropped_total"))
	hits, misses := d("lbproxy_pool_hits_total"), d("lbproxy_pool_misses_total")
	res.set("dialpool.hit_ratio", ratio(hits, hits+misses))
	samples := d("lbproxy_samples_total")
	res.set("core.samples_per_op", ratio(samples, ops*float64(w.reqsPerOp)))
	publishes := d("lbproxy_snapshot_generation")
	res.set("control.snapshot_publishes_per_s", publishes/win.seconds)
	records := d("lbproxy_audit_written_total")
	res.set("auditlog.records_per_s", records/win.seconds)
	res.set("auditlog.sheds", d("lbproxy_audit_sheds_total"))
	if swap != nil {
		const family = "lbproxy_backend_connections_total"
		bp, ok1 := before.perBackend(family, 2)
		ap, ok2 := after.perBackend(family, 2)
		if ok1 && ok2 {
			res.set("control.slow_backend_conn_share", ratio(ap[0]-bp[0], accepts))
		}
	}

	// Traced proxy leg: the same traffic with spans on.
	traced := leg{spec: w.spec(env.proxyAddr, data, seed+1, true),
		warm: quarter / 8, windows: 1, windowLen: quarter, pid: env.proxy.pid, place: env.placer(w)}
	if swap != nil { // and backend 1 for this one
		traced.onWindow = func(int) {
			swap(1)
			rec.watch(1)
		}
	}
	tr, err := traced.run()
	if err != nil {
		return nil, err
	}
	rec.wait()
	res.checkLeg(tr)
	twin := &tr.windows[0]
	res.set("trace.overhead_pct", 100*(1-ratio(float64(twin.ops())/twin.seconds, opsPerS)))
	res.set("workload.first_response_p50_us", quantileUS(tr.first, 0.50))
	res.set("workload.next_response_p50_us", quantileUS(tr.next, 0.50))
	res.set("workload.dial_errors", float64(dr.dialErrs+pr.dialErrs+tr.dialErrs))
	res.set("workload.value_mismatches", float64(dr.mismatch+pr.mismatch+tr.mismatch))
	res.set("control.reconverge_ms", rec.medianMS())
	idle.close()

	probes, probeSpans, err := runProbes(t0, env.backendAddr[0])
	if err != nil {
		return nil, err
	}
	for name, v := range probes {
		res.set(name, v)
	}

	final, identityOK, problems := env.quiesce(f)
	for _, p := range problems {
		res.problem("%s", p)
	}
	if identityOK {
		res.set("lbproxy.identity_ok", 1)
	}
	if v, ok := final["lbproxy_tracked_flows"]; ok {
		res.set("core.tracked_flows_after", v)
	}
	env.stop()
	if w.audit {
		if err := env.verifyAudit(); err != nil {
			res.problem("%v", err)
		} else {
			res.set("auditlog.verify_ok", 1)
		}
	}

	res.Ledger = buildLedger(res, ledgerInput{
		reqsPerOp: float64(w.reqsPerOp), opsPerS: opsPerS,
		samplesPerOp: ratio(samples, ops), publishesPerOp: ratio(publishes, ops),
		recordsPerOp: ratio(records, ops), weighted: w.policy == "latency-aware",
	})
	if err := r.writeSpans(w.Name, append(tr.spans, probeSpans...)); err != nil {
		return nil, err
	}
	return res, nil
}

// reconverge times swap → the newly slow backend's published weight ≤ 0.1,
// read from /metrics. One watch per swap; a watch that never sees it
// reports its limit.
type reconverge struct {
	admin string
	limit time.Duration
	wg    sync.WaitGroup
	mu    sync.Mutex
	ms    []float64
}

func (r *reconverge) watch(slow int) {
	start := time.Now()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		took := r.limit
		for time.Since(start) < r.limit {
			if s, err := scrapeMetrics(r.admin); err == nil {
				if w, ok := s.perBackend("lbproxy_backend_weight", 2); ok && w[slow] <= 0.1 {
					took = time.Since(start)
					break
				}
			}
			time.Sleep(reconvergePoll)
		}
		r.mu.Lock()
		r.ms = append(r.ms, float64(took)/1e6)
		r.mu.Unlock()
	}()
}

func (r *reconverge) wait() { r.wg.Wait() }

func (r *reconverge) medianMS() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return median(r.ms)
}

// simTraced runs the child twice for half the time each, spans off then on,
// plus the layer probes; the live layers' metrics stay 0.
func (r *rig) simTraced(w workload, seed int64, seconds float64) (*runResult, error) {
	res := newResult(w.Name, true, perLayer)
	t0 := time.Now()
	plain, err := r.runSim(seed, seconds/2, w.scenarios, false, true)
	if err != nil {
		return nil, err
	}
	traced, err := r.runSim(seed, seconds/2, w.scenarios, true, true)
	if err != nil {
		return nil, err
	}
	rate := func(run *simRun) (float64, uint64) {
		var sent uint64
		var secs float64
		for _, p := range run.report.Passes {
			sent += p.Sent
			secs += p.Seconds
		}
		return ratio(float64(sent), secs), sent
	}
	plainRate, sent := rate(plain)
	tracedRate, _ := rate(traced)
	res.Attempted = int64(sent)
	res.Failed = int64(plain.report.Violations + traced.report.Violations)
	res.set("workload.samples", float64(sent))
	res.set("trace.overhead_pct", 100*(1-ratio(tracedRate, plainRate)))
	res.set("dst.violations", float64(res.Failed))
	res.set("host.steal_pct", plain.stealPct)
	if res.Failed > 0 {
		res.problem("%d oracle violations: %v", res.Failed, append(plain.report.Detail, traced.report.Detail...))
	}
	if digestStable(plain.report.Passes) && digestStable(traced.report.Passes) &&
		plain.report.Passes[0].DigestXor == traced.report.Passes[0].DigestXor {
		res.set("dst.digest_stable", 1)
	} else {
		res.problem("scenario digests differ between passes over the same scenarios")
	}
	var worst float64
	for _, p := range plain.report.Passes {
		for _, v := range p.USPerReq {
			worst = max(worst, v)
		}
	}
	res.set("workload.max_us", worst)

	probes, probeSpans, err := runProbes(t0, "")
	if err != nil {
		return nil, err
	}
	for name, v := range probes {
		res.set(name, v)
	}
	if err := r.writeSpans(w.Name, append(traced.report.Spans, probeSpans...)); err != nil {
		return nil, err
	}
	return res, nil
}

// ledgerInput is what the counters say one op makes each layer do.
type ledgerInput struct {
	reqsPerOp      float64
	opsPerS        float64
	samplesPerOp   float64
	publishesPerOp float64
	recordsPerOp   float64
	weighted       bool // the policy rebuilds its table when weights move
}

// ledgerRow prices one layer: how often an op calls it (live counters), what
// a call costs (its probe), and so what it adds to an op.
type ledgerRow struct {
	Layer      string  `json:"layer"`
	CallsPerOp float64 `json:"calls_per_op"`
	NSPerCall  float64 `json:"ns_per_call"`
	USPerOp    float64 `json:"us_per_op"`
	Share      float64 `json:"share_of_added_p50"`
}

// controlTicksPerS is lbproxy's default control interval (2 ms).
const controlTicksPerS = 500

// buildLedger decomposes lbproxy.added_p50_us. Accounted is the sum of the
// rows; the residual — kernel, scheduler, relay syscalls, everything no
// probe reaches — is defined as the rest, so the two add up by construction.
func buildLedger(res *runResult, in ledgerInput) []ledgerRow {
	m := func(name string) float64 { return res.Metrics[name].Value }
	accepts := m("lbproxy.accepts_per_op")
	publishes := in.publishesPerOp
	if !in.weighted {
		publishes = 0 // a static table is published once, without a rebuild
	}
	// control.tick_us already contains the table rebuild, so maglev.build_us
	// is a metric that explains that row, not a row added on top of it.
	rows := []ledgerRow{
		{Layer: "packet.flowkey_hash", CallsPerOp: accepts, NSPerCall: m("packet.flowkey_hash_ns")},
		{Layer: "control.route", CallsPerOp: accepts, NSPerCall: m("control.route_ns")},
		{Layer: "lbproxy.backend_dial", CallsPerOp: accepts, NSPerCall: m("lbproxy.backend_dial_us") * 1e3},
		{Layer: "core.flow_insert_forget", CallsPerOp: accepts, NSPerCall: m("core.flow_insert_forget_ns")},
		{Layer: "core.observe", CallsPerOp: in.reqsPerOp, NSPerCall: m("core.observe_ns")},
		{Layer: "control.observe", CallsPerOp: in.samplesPerOp, NSPerCall: m("control.observe_ns")},
		{Layer: "control.tick (idle)", CallsPerOp: ratio(controlTicksPerS, in.opsPerS), NSPerCall: m("control.tick_idle_us") * 1e3},
		{Layer: "control.tick (shift+publish)", CallsPerOp: publishes, NSPerCall: m("control.tick_us") * 1e3},
		{Layer: "auditlog.note", CallsPerOp: in.recordsPerOp, NSPerCall: m("auditlog.note_ns")},
	}
	added := m("lbproxy.added_p50_us")
	var accounted float64
	for i := range rows {
		rows[i].USPerOp = rows[i].CallsPerOp * rows[i].NSPerCall / 1e3
		rows[i].Share = ratio(rows[i].USPerOp, added)
		accounted += rows[i].USPerOp
	}
	res.set("ledger.accounted_us_per_op", accounted)
	res.set("ledger.residual_us_per_op", added-accounted)
	return append(rows, ledgerRow{Layer: "residual (kernel, scheduler, relay)",
		USPerOp: added - accounted, Share: ratio(added-accounted, added)})
}

func printLedger(w *bufio.Writer, res *runResult) {
	fmt.Fprintf(w, "  ledger: where lbproxy.added_p50_us = %.2f us goes\n", res.Metrics["lbproxy.added_p50_us"].Value)
	fmt.Fprintf(w, "    %-36s %12s %12s %10s %8s\n", "layer", "calls/op", "ns/call", "us/op", "share")
	for _, row := range res.Ledger {
		fmt.Fprintf(w, "    %-36s %12.5f %12.1f %10.4f %7.2f%%\n",
			row.Layer, row.CallsPerOp, row.NSPerCall, row.USPerOp, 100*row.Share)
	}
}
