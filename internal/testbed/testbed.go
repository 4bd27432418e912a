// Package testbed assembles the simulated topologies used by the
// experiment harness, the examples, and the benchmarks:
//
//   - Path: a single backlogged flow observed at a mid-path tap (Fig. 2's
//     setting, for validating the estimators against client ground truth).
//   - Cluster: clients → LB → server pool with direct server return
//     (Fig. 3's setting, for end-to-end feedback-control experiments).
//
// Both are deterministic given their seed.
package testbed

import (
	"fmt"
	"net/netip"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/faults"
	"inbandlb/internal/lb"
	"inbandlb/internal/netsim"
	"inbandlb/internal/packet"
	"inbandlb/internal/server"
	"inbandlb/internal/tcpsim"
)

// PathConfig parameterizes the single-flow estimator testbed.
type PathConfig struct {
	Seed int64
	// ClientToTap and TapToServer are one-way propagation delays of the
	// two path halves (the tap is where the LB would sit).
	ClientToTap time.Duration
	TapToServer time.Duration
	// ServerToClient is the DSR return-path delay.
	ServerToClient time.Duration
	// LinkRate is the serialization rate in bytes/second on the
	// client→tap link (0 = infinite); it sets the intra-batch packet gaps.
	LinkRate float64
	// RTTSchedule injects extra one-way delay on the tap→server link,
	// moving the true RTT (Fig. 2's RTT step at t = 3 s).
	RTTSchedule faults.Schedule
	// Bulk is the flow configuration.
	Bulk tcpsim.BulkConfig
	// Sink configures the receiver (delayed ACKs etc.).
	Sink tcpsim.AckSinkConfig
	// CrossUtilization, in [0,1), adds Poisson cross-traffic of
	// crossPacketSize-byte packets consuming this fraction of the
	// client→tap link, so the measured flow's packets suffer realistic
	// queueing jitter. Requires LinkRate > 0.
	CrossUtilization float64
	// CrossUntil bounds cross-traffic generation (required when
	// CrossUtilization > 0, since the source would otherwise keep the
	// event loop alive forever).
	CrossUntil time.Duration
}

// crossPacketSize is the cross-traffic packet size in bytes.
const crossPacketSize = 1500

// Path is an assembled single-flow testbed.
type Path struct {
	Sim    *netsim.Sim
	Sender *tcpsim.BulkSender
	Sink   *tcpsim.AckSink
	// OnTapPacket observes each packet arriving at the tap; experiments
	// install estimators here. Set before running.
	OnTapPacket func(now time.Duration, p *netsim.Packet)
}

// NewPath wires the topology:
//
//	client --(ClientToTap)--> tap --(TapToServer+sched)--> sink
//	  ^------------------(ServerToClient)---------------------'
func NewPath(cfg PathConfig) *Path {
	if cfg.ClientToTap <= 0 {
		cfg.ClientToTap = 100 * time.Microsecond
	}
	if cfg.TapToServer <= 0 {
		cfg.TapToServer = 100 * time.Microsecond
	}
	if cfg.ServerToClient <= 0 {
		cfg.ServerToClient = cfg.ClientToTap + cfg.TapToServer
	}
	sim := netsim.NewSim(cfg.Seed)
	p := &Path{Sim: sim}

	var sender *tcpsim.BulkSender
	toClient := netsim.NewLink(sim, "server->client", cfg.ServerToClient, 0,
		netsim.HandlerFunc(func(pk *netsim.Packet) { sender.HandlePacket(pk) }))
	sink := tcpsim.NewAckSink(sim, cfg.Sink, toClient.Send)
	toServer := netsim.NewLink(sim, "tap->server", cfg.TapToServer, 0, sink)
	if cfg.RTTSchedule != nil {
		toServer.SetExtraDelay(cfg.RTTSchedule.DelayAt)
	}
	tap := netsim.HandlerFunc(func(pk *netsim.Packet) {
		if p.OnTapPacket != nil {
			p.OnTapPacket(sim.Now(), pk)
		}
		toServer.Send(pk)
	})
	toTap := netsim.NewLink(sim, "client->tap", cfg.ClientToTap, cfg.LinkRate, tap)
	sender = tcpsim.NewBulkSender(sim, cfg.Bulk, toTap.Send)

	if cfg.CrossUtilization > 0 && cfg.LinkRate > 0 && cfg.CrossUntil > 0 {
		// Poisson arrivals at rate = util × LinkRate / size. Cross packets
		// share the link's transmission queue with the measured flow but
		// carry a foreign flow key and a Kind the sink ignores.
		crossFlow := packet.NewFlowKey(
			netip.MustParseAddr("10.9.9.9"), netip.MustParseAddr("10.1.0.1"),
			1, 2, packet.ProtoTCP)
		meanGap := float64(crossPacketSize) / (cfg.CrossUtilization * cfg.LinkRate)
		var next func()
		next = func() {
			if sim.Now() >= cfg.CrossUntil {
				return
			}
			toTap.Send(&netsim.Packet{
				Flow: crossFlow, Kind: netsim.KindRequest,
				Size: crossPacketSize, SentAt: sim.Now(),
			})
			gap := time.Duration(sim.Rand().ExpFloat64() * meanGap * float64(time.Second))
			sim.After(gap, next)
		}
		sim.Schedule(0, next)
	}

	p.Sender = sender
	p.Sink = sink
	return p
}

// Run starts the flow at t=0 and runs the simulation for d.
func (p *Path) Run(d time.Duration) {
	p.Sim.Schedule(0, p.Sender.Start)
	p.Sim.RunUntil(d)
}

// ClusterConfig parameterizes the LB testbed.
type ClusterConfig struct {
	Seed int64
	// Policy routes new flows. Required.
	Policy control.Policy
	// Servers configures the pool; len must equal Policy.NumBackends().
	Servers []server.Config
	// Workload drives the cluster.
	Workload tcpsim.RequestConfig
	// Path delays. ClientToLB is the client→LB one-way delay; LBToServer
	// the LB→server hop; ServerToClient the DSR return path.
	ClientToLB     time.Duration
	LBToServer     time.Duration
	ServerToClient time.Duration
	// LinkRate applies to the client→LB link (0 = infinite).
	LinkRate float64
	// ServerPathSchedules, when non-nil, injects per-server extra delay on
	// the LB→server links (indexed by server). This is where the paper's
	// 1 ms inflation is applied.
	ServerPathSchedules []faults.Schedule
	// MaxConns caps the LB's connection table (lb.Config.MaxConns).
	MaxConns int
	// Handshake measures each connection once, SYN to first request,
	// instead of running the ensemble estimator (lb.Config.Handshake).
	Handshake bool
	// L7 enables key-based request routing at the LB (cache affinity).
	L7 bool
	// Congestion enables the LB's transport-distress tracker (lb.Config).
	Congestion bool
	// SharedDependency, when set, creates one downstream service on the
	// cluster's simulator and attaches it to every server (§5 Q3).
	SharedDependency *server.DependencyConfig
	// DependencyFraction is the per-request probability of a downstream
	// call (defaults to 1 when SharedDependency is set).
	DependencyFraction float64
}

// Cluster is an assembled LB testbed.
type Cluster struct {
	Sim         *netsim.Sim
	LB          *lb.LB
	Client      *tcpsim.RequestClient
	Servers     []*server.Server
	ServerLinks []*netsim.Link     // LB→server links (injection points)
	ClientLink  *netsim.Link       // client→LB link
	Dependency  *server.Dependency // shared downstream service (may be nil)
}

// NewCluster wires client → LB → servers with DSR responses:
//
//	client --(ClientToLB)--> LB --(LBToServer)--> server_i
//	  ^--------------(ServerToClient, skipping the LB)------'
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("testbed: policy required")
	}
	if len(cfg.Servers) != cfg.Policy.NumBackends() {
		return nil, fmt.Errorf("testbed: %d server configs for %d policy backends",
			len(cfg.Servers), cfg.Policy.NumBackends())
	}
	if cfg.ServerPathSchedules != nil && len(cfg.ServerPathSchedules) != len(cfg.Servers) {
		return nil, fmt.Errorf("testbed: %d schedules for %d servers",
			len(cfg.ServerPathSchedules), len(cfg.Servers))
	}
	if cfg.ClientToLB <= 0 {
		cfg.ClientToLB = 50 * time.Microsecond
	}
	if cfg.LBToServer <= 0 {
		cfg.LBToServer = 50 * time.Microsecond
	}
	if cfg.ServerToClient <= 0 {
		cfg.ServerToClient = cfg.ClientToLB + cfg.LBToServer
	}
	if !cfg.Workload.ClientIP.IsValid() {
		cfg.Workload.ClientIP = netip.MustParseAddr("10.0.0.100")
	}

	sim := netsim.NewSim(cfg.Seed)
	c := &Cluster{Sim: sim}

	// DSR return path: every server sends responses straight to the client.
	var client *tcpsim.RequestClient
	toClient := netsim.NewLink(sim, "server->client", cfg.ServerToClient, 0,
		netsim.HandlerFunc(func(p *netsim.Packet) { client.HandlePacket(p) }))

	if cfg.SharedDependency != nil {
		c.Dependency = server.NewDependency(sim, *cfg.SharedDependency)
	}

	c.Servers = make([]*server.Server, len(cfg.Servers))
	c.ServerLinks = make([]*netsim.Link, len(cfg.Servers))
	for i, sc := range cfg.Servers {
		if sc.Name == "" {
			sc.Name = fmt.Sprintf("server-%d", i)
		}
		if c.Dependency != nil && sc.Dependency == nil {
			sc.Dependency = c.Dependency
			sc.DependencyFraction = cfg.DependencyFraction
		}
		srv := server.New(sim, sc)
		srv.SetOutput(toClient.Send)
		c.Servers[i] = srv
		link := netsim.NewLink(sim, "lb->"+sc.Name, cfg.LBToServer, 0, srv)
		if cfg.ServerPathSchedules != nil && cfg.ServerPathSchedules[i] != nil {
			link.SetExtraDelay(cfg.ServerPathSchedules[i].DelayAt)
		}
		c.ServerLinks[i] = link
	}

	balancer, err := lb.New(sim, lb.Config{
		Policy:     cfg.Policy,
		MaxConns:   cfg.MaxConns,
		Handshake:  cfg.Handshake,
		L7:         cfg.L7,
		Congestion: cfg.Congestion,
	}, c.ServerLinks)
	if err != nil {
		return nil, err
	}
	c.LB = balancer

	c.ClientLink = netsim.NewLink(sim, "client->lb", cfg.ClientToLB, cfg.LinkRate, balancer)
	client = tcpsim.NewRequestClient(sim, cfg.Workload, c.ClientLink.Send)
	c.Client = client
	return c, nil
}

// Run starts the workload at t=0 and runs until d.
func (c *Cluster) Run(d time.Duration) {
	c.Sim.Schedule(0, c.Client.Start)
	c.Sim.RunUntil(d)
}
