package tcpsim

import (
	"net/netip"
	"testing"
	"time"

	"inbandlb/internal/netsim"
	"inbandlb/internal/packet"
	"inbandlb/internal/server"
)

// wireRequest builds client --100µs--> server --100µs--> client with a
// simulated server processing requests in svc time.
func wireRequest(sim *netsim.Sim, cfg RequestConfig, svc server.Dist) (*RequestClient, *server.Server) {
	var client *RequestClient
	srv := server.New(sim, server.Config{Name: "s0", Service: svc, Workers: 16})
	toClient := netsim.NewLink(sim, "srv->cli", 100*time.Microsecond, 0,
		netsim.HandlerFunc(func(p *netsim.Packet) { client.HandlePacket(p) }))
	srv.SetOutput(toClient.Send)
	toSrv := netsim.NewLink(sim, "cli->srv", 100*time.Microsecond, 0, srv)
	client = NewRequestClient(sim, cfg, toSrv.Send)
	return client, srv
}

func TestRequestResponseLatency(t *testing.T) {
	sim := netsim.NewSim(1)
	client, srv := wireRequest(sim, RequestConfig{
		Connections: 1, Pipeline: 1, GetFraction: 1,
	}, server.Deterministic(300*time.Microsecond))
	sim.Schedule(0, client.Start)
	sim.RunUntil(10 * time.Millisecond)

	st := client.Stats()
	if st.Responses == 0 {
		t.Fatal("no responses")
	}
	// Latency = 100µs + 300µs + 100µs = 500µs exactly.
	if st.GetLatency.Min() != 500*time.Microsecond || st.GetLatency.Max() != 500*time.Microsecond {
		t.Errorf("latency range [%v, %v], want exactly 500µs", st.GetLatency.Min(), st.GetLatency.Max())
	}
	if srv.Stats().Served != st.Responses {
		t.Errorf("server served %d, client saw %d", srv.Stats().Served, st.Responses)
	}
}

func TestRequestPipelineLimit(t *testing.T) {
	sim := netsim.NewSim(1)
	inflight := 0
	maxInflight := 0
	var client *RequestClient
	srv := server.New(sim, server.Config{Name: "s", Service: server.Deterministic(time.Millisecond), Workers: 64})
	back := netsim.NewLink(sim, "b", 10*time.Microsecond, 0,
		netsim.HandlerFunc(func(p *netsim.Packet) {
			inflight--
			client.HandlePacket(p)
		}))
	srv.SetOutput(back.Send)
	fwd := netsim.NewLink(sim, "f", 10*time.Microsecond, 0, netsim.HandlerFunc(func(p *netsim.Packet) {
		inflight++
		if inflight > maxInflight {
			maxInflight = inflight
		}
		srv.HandlePacket(p)
	}))
	client = NewRequestClient(sim, RequestConfig{Connections: 1, Pipeline: 4}, fwd.Send)
	sim.Schedule(0, client.Start)
	sim.RunUntil(20 * time.Millisecond)
	if maxInflight != 4 {
		t.Errorf("max inflight = %d, want pipeline limit 4", maxInflight)
	}
}

func TestRequestConnReopenUsesFreshPort(t *testing.T) {
	sim := netsim.NewSim(1)
	seen := map[packet.FlowKey]bool{}
	var client *RequestClient
	srv := server.New(sim, server.Config{Name: "s", Service: server.Deterministic(50 * time.Microsecond)})
	back := netsim.NewLink(sim, "b", 10*time.Microsecond, 0,
		netsim.HandlerFunc(func(p *netsim.Packet) { client.HandlePacket(p) }))
	srv.SetOutput(back.Send)
	fwd := netsim.NewLink(sim, "f", 10*time.Microsecond, 0, netsim.HandlerFunc(func(p *netsim.Packet) {
		seen[p.Flow] = true
		srv.HandlePacket(p)
	}))
	client = NewRequestClient(sim, RequestConfig{
		Connections: 1, Pipeline: 1, RequestsPerConn: 3, ReopenDelay: 100 * time.Microsecond,
	}, fwd.Send)
	sim.Schedule(0, client.Start)
	sim.RunUntil(10 * time.Millisecond)

	if len(seen) < 3 {
		t.Errorf("distinct flows = %d, want several (close/reopen)", len(seen))
	}
	if client.Stats().Opened < 3 {
		t.Errorf("connections opened = %d", client.Stats().Opened)
	}
	if got := client.Stats().Responses; got < 9 {
		t.Errorf("responses = %d, want >= 9 (3 per connection)", got)
	}
}

func TestRequestGetSetMix(t *testing.T) {
	sim := netsim.NewSim(7)
	client, _ := wireRequest(sim, RequestConfig{
		Connections: 4, Pipeline: 4, GetFraction: 0.5,
	}, server.Deterministic(20*time.Microsecond))
	sim.Schedule(0, client.Start)
	sim.RunUntil(100 * time.Millisecond)

	st := client.Stats()
	gets := st.GetLatency.Count()
	sets := st.SetLatency.Count()
	total := gets + sets
	if total == 0 {
		t.Fatal("no responses")
	}
	frac := float64(gets) / float64(total)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("GET fraction = %.3f over %d responses, want ~0.5", frac, total)
	}
}

func TestRequestThinkTime(t *testing.T) {
	sim := netsim.NewSim(1)
	var reqTimes []time.Duration
	var client *RequestClient
	srv := server.New(sim, server.Config{Name: "s", Service: server.Deterministic(0)})
	back := netsim.NewLink(sim, "b", 50*time.Microsecond, 0,
		netsim.HandlerFunc(func(p *netsim.Packet) { client.HandlePacket(p) }))
	srv.SetOutput(back.Send)
	fwd := netsim.NewLink(sim, "f", 50*time.Microsecond, 0, netsim.HandlerFunc(func(p *netsim.Packet) {
		reqTimes = append(reqTimes, sim.Now())
		srv.HandlePacket(p)
	}))
	client = NewRequestClient(sim, RequestConfig{
		Connections: 1, Pipeline: 1, ThinkTime: 200 * time.Microsecond,
	}, fwd.Send)
	sim.Schedule(0, client.Start)
	sim.RunUntil(5 * time.Millisecond)

	// Request cadence = RTT (100µs) + think (200µs) = 300µs.
	for i := 1; i < len(reqTimes); i++ {
		if gap := reqTimes[i] - reqTimes[i-1]; gap != 300*time.Microsecond {
			t.Fatalf("request gap = %v, want 300µs", gap)
		}
	}
}

func TestRequestOnResponseCallback(t *testing.T) {
	sim := netsim.NewSim(1)
	client, _ := wireRequest(sim, RequestConfig{Connections: 1, Pipeline: 1, GetFraction: 1},
		server.Deterministic(100*time.Microsecond))
	var calls int
	client.OnResponse = func(now time.Duration, op netsim.Op, lat time.Duration) {
		calls++
		if op != netsim.OpGet {
			t.Errorf("op = %v, want get", op)
		}
		if lat != 300*time.Microsecond {
			t.Errorf("latency = %v, want 300µs", lat)
		}
	}
	sim.Schedule(0, client.Start)
	sim.RunUntil(2 * time.Millisecond)
	if calls == 0 {
		t.Error("OnResponse never called")
	}
}

func TestRequestStop(t *testing.T) {
	sim := netsim.NewSim(1)
	client, _ := wireRequest(sim, RequestConfig{Connections: 2, Pipeline: 1, RequestsPerConn: 2, GetFraction: 1},
		server.Deterministic(50*time.Microsecond))
	sim.Schedule(0, client.Start)
	sim.Schedule(time.Millisecond, client.Stop)
	sim.RunUntil(20 * time.Millisecond)
	sentAtStop := client.Stats().Sent
	sim.RunUntil(40 * time.Millisecond)
	if client.Stats().Sent != sentAtStop {
		t.Error("client kept sending after Stop")
	}
}

// TestRequestTimeoutAbortsItsOwnConnection blackholes one connection among
// three busy ones: the pending deadlines are one queue served by one
// callback, so the entry that fires must be the blackholed request's own —
// exactly one timeout, on that connection, at its deadline, with every
// healthy request's check in between passed over.
func TestRequestTimeoutAbortsItsOwnConnection(t *testing.T) {
	const timeout = 5 * time.Millisecond
	sim := netsim.NewSim(1)
	var client *RequestClient
	srv := server.New(sim, server.Config{Name: "s0", Service: server.Deterministic(200 * time.Microsecond), Workers: 16})
	toClient := netsim.NewLink(sim, "srv->cli", 100*time.Microsecond, 0,
		netsim.HandlerFunc(func(p *netsim.Packet) { client.HandlePacket(p) }))
	srv.SetOutput(toClient.Send)
	var dead packet.FlowKey // the second connection opened
	toSrv := netsim.NewLink(sim, "cli->srv", 100*time.Microsecond, 0,
		netsim.HandlerFunc(func(p *netsim.Packet) {
			if p.Flow != dead {
				srv.HandlePacket(p)
			}
		}))
	client = NewRequestClient(sim, RequestConfig{
		Connections: 3, Pipeline: 2, GetFraction: 0.5,
		ThinkTime: 10 * time.Microsecond, ThinkJitter: 50 * time.Microsecond,
		RequestTimeout: timeout,
	}, toSrv.Send)
	sim.Schedule(0, func() {
		client.Start()
		dead = client.conns[1].flow
	})

	sim.RunUntil(timeout - time.Microsecond)
	if st := client.Stats(); st.Timeouts != 0 || st.Aborts != 0 || st.Responses == 0 {
		t.Fatalf("before the deadline: %d timeouts, %d aborts, %d responses", st.Timeouts, st.Aborts, st.Responses)
	}
	sim.RunUntil(timeout)
	if st := client.Stats(); st.Timeouts != 1 || st.Aborts != 1 || st.Abandoned != 2 || st.Opened != 4 {
		t.Fatalf("at the deadline: %d timeouts, %d aborts, %d abandoned, %d opened; want 1, 1, 2 (the pipeline), 4",
			st.Timeouts, st.Aborts, st.Abandoned, st.Opened)
	}
	if client.findConn(dead) != nil {
		t.Error("the blackholed connection is still open")
	}
	sim.RunUntil(100 * time.Millisecond)
	st := client.Stats()
	if st.Timeouts != 1 || st.Aborts != 1 {
		t.Errorf("healthy connections aborted: %d timeouts, %d aborts", st.Timeouts, st.Aborts)
	}
	if st.Sent != st.Responses+st.Abandoned+uint64(client.Outstanding()) {
		t.Errorf("conservation: sent %d != responses %d + abandoned %d + outstanding %d",
			st.Sent, st.Responses, st.Abandoned, client.Outstanding())
	}
	// The queue holds one timeout's worth of requests, not the run's.
	if pending, sent := len(client.deadlines.entries)-client.deadlines.head, int(st.Sent); pending == 0 || len(client.deadlines.entries) > sent/4 {
		t.Errorf("deadline queue: %d pending in %d entries after %d requests", pending, len(client.deadlines.entries), sent)
	}
}

// lateSecondConn runs a client whose requests all get their response 100µs
// after they are sent, except the second connection's first request, whose
// response lands exactly late after it. The server turns each request round
// in an event of its own, after the client has finished sending it (and so
// ranked its checks).
func lateSecondConn(cfg RequestConfig, late time.Duration) (*netsim.Sim, *RequestClient) {
	sim := netsim.NewSim(1)
	var client *RequestClient
	requests := 0
	client = NewRequestClient(sim, cfg, func(p *netsim.Packet) {
		if p.Kind != netsim.KindRequest {
			sim.ReleasePacket(p)
			return
		}
		requests++
		delay := 100 * time.Microsecond
		if requests == 2 {
			delay = late
		}
		sim.After(0, func() {
			p.Kind = netsim.KindResponse
			sim.After(delay, func() { client.HandlePacket(p) })
		})
	})
	sim.Schedule(0, client.Start)
	return sim, client
}

// TestRequestResponseAtDeadlineIsStale lands a response at exactly its
// request's deadline instant. The deadline check was ranked when the
// request was sent, before the response was scheduled, so it runs first:
// the connection is aborted and the response counts as Stale. The check is
// armed only when the one ahead of it fires, after the response was
// scheduled; taking a fresh rank then would let the response win.
func TestRequestResponseAtDeadlineIsStale(t *testing.T) {
	const timeout = time.Millisecond
	sim, client := lateSecondConn(RequestConfig{Connections: 2, Pipeline: 1, RequestTimeout: timeout}, timeout)
	sim.RunUntil(timeout - 1)
	if st := client.Stats(); st.Timeouts != 0 || st.Stale != 0 {
		t.Fatalf("before the deadline: %d timeouts, %d stale", st.Timeouts, st.Stale)
	}
	sim.RunUntil(timeout)
	if st := client.Stats(); st.Timeouts != 1 || st.Aborts != 1 || st.Stale != 1 || st.Abandoned != 1 {
		t.Fatalf("at the deadline: %d timeouts, %d aborts, %d stale, %d abandoned; want 1 each",
			st.Timeouts, st.Aborts, st.Stale, st.Abandoned)
	}
}

// TestRequestResponseAtRTORetransmits is the same race for the first
// retransmission timeout: the RTO check ranks ahead of a response landing
// at its instant, so the request is re-sent once before the response
// completes it.
func TestRequestResponseAtRTORetransmits(t *testing.T) {
	const rto = time.Millisecond
	sim, client := lateSecondConn(RequestConfig{Connections: 2, Pipeline: 1, RetransmitTimeout: rto}, rto)
	sim.RunUntil(rto)
	if st := client.Stats(); st.Retransmits != 1 || st.Stale != 0 {
		t.Fatalf("at the RTO: %d retransmits, %d stale; want 1, 0", st.Retransmits, st.Stale)
	}
}

// TestRequestArmsOneCheckPerTimer holds the client to one queued deadline
// event and one queued first-RTO event however many requests are in
// flight: with every request blackholed those are the only events, across
// the timeouts and the reopened connections' requests, and the one RTO
// event still re-sends every request when they fall due.
func TestRequestArmsOneCheckPerTimer(t *testing.T) {
	sim := netsim.NewSim(1)
	client := NewRequestClient(sim, RequestConfig{
		Connections: 8, Pipeline: 4,
		RequestTimeout: 20 * time.Millisecond, RetransmitTimeout: 8 * time.Millisecond,
	}, sim.ReleasePacket)
	sim.Schedule(0, client.Start)
	sim.RunUntil(8*time.Millisecond - 1)
	if out, n := client.Outstanding(), sim.Pending(); out != 32 || n != 2 {
		t.Fatalf("before the first RTO: %d events queued for %d outstanding requests, want 2 for 32", n, out)
	}
	sim.RunUntil(8 * time.Millisecond)
	if r := client.Stats().Retransmits; r != 32 {
		t.Fatalf("%d retransmits when every request's first RTO fell due, want 32", r)
	}

	sim = netsim.NewSim(1)
	client = NewRequestClient(sim, RequestConfig{
		Connections: 8, Pipeline: 4, RequestTimeout: 20 * time.Millisecond,
	}, sim.ReleasePacket)
	sim.Schedule(0, client.Start)
	for now := time.Millisecond; now < 100*time.Millisecond; now += 3 * time.Millisecond {
		sim.RunUntil(now)
		if out := client.Outstanding(); out != 32 {
			t.Fatalf("at %v: %d requests outstanding, want 32", now, out)
		}
		if n := sim.Pending(); n != 1 {
			t.Fatalf("at %v: %d events queued for 32 outstanding requests, want 1", now, n)
		}
	}
	if st := client.Stats(); st.Timeouts != 4*8 {
		t.Errorf("%d timeouts in four deadline periods, want 32 (one per connection)", st.Timeouts)
	}
}

func TestRequestIgnoresStaleResponses(t *testing.T) {
	sim := netsim.NewSim(1)
	client := NewRequestClient(sim, RequestConfig{Connections: 1, Pipeline: 1}, func(*netsim.Packet) {})
	sim.Schedule(0, client.Start)
	sim.RunUntil(time.Millisecond)
	// A response for an unknown flow must be ignored without panic.
	client.HandlePacket(&netsim.Packet{
		Kind: netsim.KindResponse,
		Flow: packet.NewFlowKey(netip.MustParseAddr("1.2.3.4"), netip.MustParseAddr("5.6.7.8"), 1, 2, packet.ProtoTCP),
	})
	if client.Stats().Responses != 0 {
		t.Error("stale response counted")
	}
	// A duplicate response for a known flow but unknown seq is also ignored.
	client.HandlePacket(&netsim.Packet{Kind: netsim.KindResponse, Flow: client.conns[0].flow, Seq: 999})
	if client.Stats().Responses != 0 {
		t.Error("unknown-seq response counted")
	}
}

func TestRequestDefaults(t *testing.T) {
	sim := netsim.NewSim(1)
	var first *netsim.Packet
	client := NewRequestClient(sim, RequestConfig{}, func(p *netsim.Packet) {
		if first == nil {
			first = p
		}
	})
	sim.Schedule(0, client.Start)
	sim.RunUntil(time.Millisecond)
	if first == nil {
		t.Fatal("no request sent with defaults")
	}
	if first.Size != 128 {
		t.Errorf("default request size = %d", first.Size)
	}
	if first.Flow.DstPort != 11211 {
		t.Errorf("default VPort = %d, want 11211", first.Flow.DstPort)
	}
	if client.OpenConns() != 1 {
		t.Errorf("open conns = %d, want 1", client.OpenConns())
	}
}
