package main

import "time"

// metricDef names one metric. The same table drives the output, README's
// tables and the smoke test that holds BENCHMARK.json to it.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are what a client of the system sees, measured with tracing off.
// error_rate is not a metric here: the driver's result line carries it as
// failed ÷ attempted, and a metric that is 0 on a healthy run cannot carry a
// relative bound.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"p50_us", "us", "lower"},
	{"p95_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"rss_mib", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are single-layer figures from the traced run. A value of 0 on a
// workload means the layer does no work there (or, for sim_dst, that there
// is no live proxy to read it from).
var perLayer = []metricDef{
	{"workload.samples", "count", "higher"},
	{"workload.p99_us", "us", "lower"},
	{"workload.p999_us", "us", "lower"},
	{"workload.max_us", "us", "lower"},
	{"workload.first_response_p50_us", "us", "lower"},
	{"workload.next_response_p50_us", "us", "lower"},
	{"workload.cpu_us_per_op", "us", "lower"},
	{"workload.dial_errors", "count", "lower"},
	{"workload.value_mismatches", "count", "lower"},

	{"memcache.direct_ops_per_s", "1/s", "higher"},
	{"memcache.direct_p50_us", "us", "lower"},
	{"memcache.direct_p95_us", "us", "lower"},
	{"memcache.cpu_us_per_op", "us", "lower"},

	{"lbproxy.added_p50_us", "us", "lower"},
	{"lbproxy.throughput_vs_direct", "ratio", "higher"},
	{"lbproxy.user_cpu_us_per_op", "us", "lower"},
	{"lbproxy.sys_cpu_us_per_op", "us", "lower"},
	{"lbproxy.relay_syscalls_per_op", "1/op", "lower"},
	{"lbproxy.relay_bytes_per_syscall", "B", "higher"},
	{"lbproxy.ctx_switches_per_op", "1/op", "lower"},
	{"lbproxy.accepts_per_op", "1/op", "lower"},
	{"lbproxy.failovers", "count", "lower"},
	{"lbproxy.dial_errors", "count", "lower"},
	{"lbproxy.dropped", "count", "lower"},
	{"lbproxy.identity_ok", "bool", "higher"},
	{"lbproxy.threads", "count", "lower"},
	{"lbproxy.bytes_per_conn", "B", "lower"},
	{"lbproxy.backend_dial_us", "us", "lower"},

	{"dialpool.get_put_ns", "ns", "lower"},
	{"dialpool.hit_ratio", "ratio", "higher"},

	{"core.samples_per_op", "1/op", "higher"},
	{"core.observe_ns", "ns", "lower"},
	{"core.flow_insert_forget_ns", "ns", "lower"},
	{"core.tracked_flows_after", "count", "lower"},

	{"packet.flowkey_hash_ns", "ns", "lower"},
	{"packet.congestion_track_ns", "ns", "lower"},

	{"maglev.lookup_ns", "ns", "lower"},
	{"maglev.build_us", "us", "lower"},

	{"control.route_ns", "ns", "lower"},
	{"control.observe_ns", "ns", "lower"},
	{"control.tick_us", "us", "lower"},
	{"control.tick_idle_us", "us", "lower"},
	{"control.snapshot_publishes_per_s", "1/s", "lower"},
	{"control.reconverge_ms", "ms", "lower"},
	{"control.slow_backend_conn_share", "ratio", "lower"},

	{"auditlog.note_ns", "ns", "lower"},
	{"auditlog.records_per_s", "1/s", "lower"},
	{"auditlog.sheds", "count", "lower"},
	{"auditlog.verify_ok", "bool", "higher"},

	{"netsim.events_per_s", "1/s", "higher"},
	{"lb.packet_ns", "ns", "lower"},
	{"dst.violations", "count", "lower"},
	{"dst.digest_stable", "bool", "higher"},

	{"ledger.accounted_us_per_op", "us", "lower"},
	{"ledger.residual_us_per_op", "us", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"host.steal_pct", "%", "lower"},
}

// workload is one traffic mix. Every live workload is a closed loop of 2
// connections from this process against 2 memcached backends behind one
// lbproxy, all separate processes on the loopback interface.
type workload struct {
	Name string
	Why  string

	policy       string
	audit        bool // run lbproxy with -audit-log and verify the chain
	keys         int
	valueSize    int
	reqsPerOp    int
	closeAfterOp bool
	reqsPerConn  int
	idleConns    int              // connections held open, idle, through the proxy
	delays       [2]time.Duration // injected backend service times, swapped every window
	warm         time.Duration
	sim          bool // no sockets: the sim child runs dst scenarios
	scenarios    int  // sim: size of the scenario population
}

const activeConns = 2

var workloads = []workload{
	{
		Name:   "kv_small",
		Why:    "64 B values on persistent connections: the relay's per-message cost does nearly all the work, connection set-up none",
		policy: "maglev", keys: 10000, valueSize: 64, reqsPerOp: 1, warm: time.Second,
	},
	{
		Name:   "bulk_values",
		Why:    "16 KiB values: the same relay priced per byte, so a change that wins on small messages and loses on bulk shows",
		policy: "maglev", keys: 256, valueSize: 16 << 10, reqsPerOp: 1, warm: time.Second,
	},
	{
		Name:   "conn_churn",
		Why:    "each op is dial, 2 requests, close: accept, pick, backend dial, flow insert/forget and teardown work; steady relay does little",
		policy: "maglev", keys: 10000, valueSize: 64, reqsPerOp: 2, closeAfterOp: true, warm: time.Second,
	},
	{
		Name:   "idle_fleet",
		Why:    "2000 idle connections held through the proxy while 2 run kv_small traffic: the only workload where per-connection state is the cost",
		policy: "maglev", keys: 10000, valueSize: 64, reqsPerOp: 1, idleConns: 2000, warm: time.Second,
	},
	{
		Name:   "feedback_swap",
		Why:    "backends at 400 us and 2.4 ms swap roles every window under latency-aware routing: estimator, control tick, table rebuild and audit work",
		policy: "latency-aware", audit: true, keys: 10000, valueSize: 64, reqsPerOp: 1, reqsPerConn: 20,
		delays: [2]time.Duration{400 * time.Microsecond, 2400 * time.Microsecond}, warm: 2 * time.Second,
	},
	{
		Name: "sim_dst",
		Why:  "dst scenarios through netsim, lb, tcpsim, control and packet with no sockets: the simulated dataplane's cost per request",
		sim:  true, scenarios: simScenarios,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
