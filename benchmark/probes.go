package main

import (
	"fmt"
	"io"
	"net"
	"net/netip"
	"sort"
	"time"

	"inbandlb/internal/auditlog"
	"inbandlb/internal/control"
	"inbandlb/internal/core"
	"inbandlb/internal/lb"
	"inbandlb/internal/lbproxy/dialpool"
	"inbandlb/internal/maglev"
	"inbandlb/internal/netsim"
	"inbandlb/internal/packet"
)

// A layer probe times a batch of calls into one layer's public functions
// from outside it. The programs under test are not touched; the ledger
// multiplies each probe's ns/call by the calls/op the live counters show.

// probeSink keeps results alive so the compiler cannot drop the calls.
var probeSink uint64

const probeBatches = 5

// perCall runs batch (n calls each time) probeBatches times and returns the
// median ns per call, recording each batch as a probe.<name> span.
func (p *prober) perCall(name string, n int, batch func(n int)) float64 {
	batch(n / 10) // warm caches and lazy set-up
	per := make([]float64, probeBatches)
	for i := range per {
		start := time.Now()
		batch(n)
		end := time.Now()
		per[i] = float64(end.Sub(start)) / float64(n)
		p.spans = append(p.spans, span{Op: uint64(i), Name: "probe." + name,
			Start: int64(start.Sub(p.t0)), End: int64(end.Sub(p.t0))})
	}
	sort.Float64s(per)
	return per[len(per)/2]
}

type prober struct {
	t0    time.Time
	spans []span
}

func probeKeys(n int) ([]packet.FlowKey, []uint64) {
	keys := make([]packet.FlowKey, n)
	hashes := make([]uint64, n)
	for i := range keys {
		keys[i] = packet.NewFlowKey(
			netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.1.0.1"),
			uint16(20000+i), 11211, packet.ProtoTCP)
		hashes[i] = keys[i].Hash()
	}
	return keys, hashes
}

// runProbes times every layer and returns metric name → value in the
// metric's own unit. backendAddr, when set, is a live memcached whose
// connect time is lbproxy's backend dial cost.
func runProbes(t0 time.Time, backendAddr string) (map[string]float64, []span, error) {
	p := &prober{t0: t0}
	out := make(map[string]float64)
	keys, hashes := probeKeys(64)
	names := []string{"b0", "b1"}

	out["packet.flowkey_hash_ns"] = p.perCall("packet.flowkey_hash", 500_000, func(n int) {
		var acc uint64
		for i := 0; i < n; i++ {
			acc += keys[i&63].Hash()
		}
		probeSink += acc
	})

	ct := packet.NewCongestionTracker(packet.CongestionTrackerConfig{})
	var seq uint32
	var now time.Duration
	out["packet.congestion_track_ns"] = p.perCall("packet.congestion_track", 500_000, func(n int) {
		tcp := packet.TCP{DstPort: 11211, DataOffset: 5, Flags: packet.FlagACK | packet.FlagPSH, Window: 65535}
		for i := 0; i < n; i++ {
			if i&63 == 0 {
				seq += 128
				now += time.Microsecond
			}
			tcp.Seq = seq
			probeSink += uint64(ct.Observe(keys[i&63], &tcp, 128, now))
		}
	})

	tbl, err := maglev.New(maglev.DefaultTableSize, []maglev.Backend{{Name: "b0", Weight: 1}, {Name: "b1", Weight: 1}})
	if err != nil {
		return nil, nil, err
	}
	out["maglev.lookup_ns"] = p.perCall("maglev.lookup", 2_000_000, func(n int) {
		var acc int
		for i := 0; i < n; i++ {
			acc += tbl.Lookup(uint64(i) * 0x9e3779b97f4a7c15)
		}
		probeSink += uint64(acc)
	})

	// The table the live latency-aware policy rebuilds on every shift.
	builder, err := maglev.NewBuilder(4093, names)
	if err != nil {
		return nil, nil, err
	}
	weights := [][]float64{{0.9, 0.1}, {0.8, 0.2}}
	out["maglev.build_us"] = p.perCall("maglev.build", 500, func(n int) {
		for i := 0; i < n; i++ {
			t, err := builder.Build(weights[i&1]) // alternate so the same-weights cache never hits
			if err != nil {
				panic(err)
			}
			probeSink += uint64(t.Size())
		}
	}) / 1e3

	static, err := control.NewMaglevStatic(names, maglev.DefaultTableSize)
	if err != nil {
		return nil, nil, err
	}
	router := control.NewController(static, control.ControllerConfig{Shards: 2})
	out["control.route_ns"] = p.perCall("control.route", 1_000_000, func(n int) {
		var acc int
		for i := 0; i < n; i++ {
			b, _ := router.RouteHashed(hashes[i&63], keys[i&63], 0)
			acc += b
		}
		probeSink += uint64(acc)
	})
	out["control.observe_ns"] = p.perCall("control.observe", 1_000_000, func(n int) {
		for i := 0; i < n; i++ {
			router.ObserveSharded(hashes[i&63], i&1, time.Duration(i), time.Millisecond)
		}
	})
	var idleNow time.Duration
	router.Tick(0) // drain what the observe probe queued
	out["control.tick_idle_us"] = p.perCall("control.tick_idle", 200_000, func(n int) {
		for i := 0; i < n; i++ {
			idleNow += 2 * time.Millisecond
			router.Tick(idleNow)
		}
	}) / 1e3
	router.Close()

	la, err := control.NewLatencyAware(control.LatencyAwareConfig{
		Backends: names, Alpha: 0.10, MinWeight: 0.02, HysteresisRatio: 1.3,
		Cooldown: 5 * time.Millisecond,
	})
	if err != nil {
		return nil, nil, err
	}
	busy := control.NewController(la, control.ControllerConfig{Shards: 2})
	var busyNow time.Duration
	var ticks int
	// Every tick merges fresh samples and shifts weight: the clock steps
	// well past the EWMA half-life so the estimate follows the samples at
	// once, and the slow backend changes sides just as the weights reach
	// their floor, so the next shift is always due.
	genBefore := busy.Generation()
	out["control.tick_us"] = p.perCall("control.tick", 500, func(n int) {
		for i := 0; i < n; i++ {
			busyNow += 50 * time.Millisecond
			ticks++
			slow := (ticks / 10) & 1
			for s := 0; s < 4; s++ {
				b := s & 1
				lat := 400 * time.Microsecond
				if b == slow {
					lat = 2400 * time.Microsecond
				}
				busy.ObserveSharded(hashes[s], b, busyNow, lat)
			}
			busy.Tick(busyNow)
		}
	}) / 1e3
	if published := busy.Generation() - genBefore; published < uint64(ticks)*8/10 {
		return nil, nil, fmt.Errorf("tick probe: only %d of %d ticks published; it must price a tick that shifts weight", published, ticks)
	}
	busy.Close()

	flows := core.MustSharded(core.FlowTableConfig{}, 2)
	var flowNow time.Duration
	out["core.observe_ns"] = p.perCall("core.observe", 300_000, func(n int) {
		for i := 0; i < n; i++ {
			flowNow += 5 * time.Microsecond
			if i&3 == 0 {
				flowNow += 500 * time.Microsecond // a batch boundary, so samples are produced
			}
			d, _ := flows.ObserveHashed(hashes[i&63], keys[i&63], flowNow)
			probeSink += uint64(d)
		}
	})
	churn := core.MustSharded(core.FlowTableConfig{}, 2)
	out["core.flow_insert_forget_ns"] = p.perCall("core.flow_insert_forget", 60_000, func(n int) {
		for i := 0; i < n; i++ {
			flowNow += 5 * time.Microsecond
			churn.ObserveHashed(hashes[i&63], keys[i&63], flowNow)
			churn.ForgetHashed(hashes[i&63], keys[i&63])
		}
	})

	v, err := p.dialpoolProbe()
	if err != nil {
		return nil, nil, err
	}
	out["dialpool.get_put_ns"] = v

	v, err = p.auditProbe()
	if err != nil {
		return nil, nil, err
	}
	out["auditlog.note_ns"] = v

	sim := netsim.NewSim(1)
	fired := 0
	tick := func() { fired++ }
	perEvent := p.perCall("netsim.schedule_dispatch", 300_000, func(n int) {
		base := sim.Now()
		for i := 0; i < n; i++ {
			sim.Schedule(base+time.Duration(i&1023)*time.Nanosecond, tick)
			if i&1023 == 1023 {
				sim.RunUntil(base + 1024*time.Nanosecond)
				base = sim.Now()
			}
		}
		sim.Run()
	})
	probeSink += uint64(fired)
	out["netsim.events_per_s"] = 1e9 / perEvent

	v, err = p.lbProbe(keys)
	if err != nil {
		return nil, nil, err
	}
	out["lb.packet_ns"] = v

	if backendAddr != "" {
		v, err = p.dialProbe(backendAddr)
		if err != nil {
			return nil, nil, err
		}
		out["lbproxy.backend_dial_us"] = v
	}
	return out, p.spans, nil
}

// dialpoolProbe times a Put/Get pair on a real loopback connection: Get's
// liveness probe is a non-blocking read, so a fake conn would not price it.
func (p *prober) dialpoolProbe() (float64, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer lis.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := lis.Accept()
		accepted <- c
	}()
	c, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if peer := <-accepted; peer != nil {
		defer peer.Close()
	}
	pool := dialpool.New(dialpool.Config{Backends: 1, Stripes: 1, MaxIdlePerBackend: 4})
	defer pool.Close()
	born := time.Now()
	bad := 0
	v := p.perCall("dialpool.get_put", 40_000, func(n int) {
		for i := 0; i < n; i++ {
			if !pool.Put(0, 0, c, born) {
				bad++
			}
			if _, _, ok := pool.Get(0, 0); !ok {
				bad++
			}
		}
	})
	if bad > 0 {
		return 0, fmt.Errorf("dialpool probe: %d Put/Get calls refused a live connection", bad)
	}
	return v, nil
}

// auditProbe times Note on the ring-fill path: each batch fits the ring and
// the writer is drained between batches, so no note is shed.
func (p *prober) auditProbe() (float64, error) {
	const ring = 16384
	l, err := auditlog.NewLog(io.Discard, auditlog.LogConfig{Buffer: ring, MaxBackends: 2})
	if err != nil {
		return 0, err
	}
	rec := auditlog.Record{Kind: auditlog.KindWeights, Backend: -1, Gen: 1, Healthy: 2, Weights: []float64{0.9, 0.1}}
	var noted uint64
	v := p.perCall("auditlog.note", ring/2, func(n int) {
		for l.Written()+l.Sheds() < noted {
			time.Sleep(50 * time.Microsecond)
		}
		for i := 0; i < n; i++ {
			l.Note(&rec)
		}
		noted += uint64(n)
	})
	sheds := l.Sheds()
	if err := l.Close(); err != nil {
		return 0, err
	}
	if sheds > 0 {
		return 0, fmt.Errorf("audit probe shed %d notes; it must time the fill path only", sheds)
	}
	return v, nil
}

// lbProbe times the simulated dataplane's per-packet path: conntrack,
// estimator and forward, as BenchmarkLBPacketPath does.
func (p *prober) lbProbe(keys []packet.FlowKey) (float64, error) {
	sim := netsim.NewSim(1)
	links := make([]*netsim.Link, 4)
	for i := range links {
		links[i] = netsim.NewLink(sim, "up", 0, 0, netsim.HandlerFunc(func(*netsim.Packet) {}))
	}
	balancer, err := lb.New(sim, lb.Config{Policy: control.NewRoundRobin(4)}, links)
	if err != nil {
		return 0, err
	}
	pkts := make([]*netsim.Packet, len(keys))
	for i := range pkts {
		pkts[i] = &netsim.Packet{Flow: keys[i], Kind: netsim.KindRequest, Size: 128}
	}
	return p.perCall("lb.handle_packet", 80_000, func(n int) {
		for i := 0; i < n; i++ {
			balancer.HandlePacket(pkts[i&63])
			if i&1023 == 0 {
				sim.RunUntil(sim.Now() + time.Microsecond) // drain forwarded events
			}
		}
	}), nil
}

// dialProbe is the median loopback connect time to a live backend, in µs.
func (p *prober) dialProbe(addr string) (float64, error) {
	const dials = 300
	lat := make([]float64, 0, dials)
	start := time.Now()
	for i := 0; i < dials; i++ {
		t := time.Now()
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return 0, fmt.Errorf("dial probe: %w", err)
		}
		lat = append(lat, float64(time.Since(t))/1e3)
		c.Close()
	}
	end := time.Now()
	p.spans = append(p.spans, span{Name: "probe.lbproxy.backend_dial",
		Start: int64(start.Sub(p.t0)), End: int64(end.Sub(p.t0))})
	sort.Float64s(lat)
	return lat[len(lat)/2], nil
}
