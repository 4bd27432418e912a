// Package inbandlb reproduces "Load Balancers Need In-Band Feedback
// Control" (HotNets 2022): load balancers operating under direct server
// return — seeing only client→server traffic — can still measure
// end-to-end response latency by timing causally-triggered transmissions,
// and can feed those measurements into a controller that adapts request
// routing within milliseconds.
//
// The implementation is layered (see DESIGN.md for the full inventory):
//
//   - internal/core — the paper's Algorithms 1 and 2 (FixedTimeout and
//     EnsembleTimeout), the per-connection estimator lifetime both
//     dataplanes share (FlowEstimator), and per-server latency
//     aggregation.
//   - internal/control — routing policies: the latency-aware α-shift
//     controller plus baselines (round robin, random, least connections,
//     power-of-two-choices, static Maglev).
//   - internal/maglev, internal/packet, internal/stats, internal/faults —
//     consistent hashing, wire codecs, measurement structures, and
//     injection schedules.
//   - internal/netsim, internal/tcpsim, internal/server, internal/testbed —
//     the deterministic discrete-event testbed substituting for the
//     paper's CloudLab cluster.
//   - internal/lb — the simulated dataplane; internal/lbproxy,
//     internal/memcache, internal/workload — the live TCP prototype.
//   - internal/experiments — regenerates every figure and ablation;
//     cmd/lbsim, cmd/lbproxy, cmd/memcached, cmd/memtier — the binaries.
//
// The benchmarks in bench_test.go regenerate the paper's figures
// (Fig. 2a, Fig. 2b, Fig. 3) and report their headline metrics; EXPERIMENTS.md
// records paper-vs-measured outcomes.
package inbandlb
