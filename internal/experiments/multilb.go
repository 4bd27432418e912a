package experiments

import (
	"fmt"
	"net/netip"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/faults"
	"inbandlb/internal/lb"
	"inbandlb/internal/netsim"
	"inbandlb/internal/server"
	"inbandlb/internal/stats"
	"inbandlb/internal/tcpsim"
)

// AblationMultiLB (ABL-HERD, open question 4) runs K independent
// latency-aware LBs in front of the same two servers. Each LB sees only its
// own traffic's samples, so all of them may dodge the same "worst" server
// simultaneously — the thundering-herd risk the paper flags.
func AblationMultiLB(seed int64, duration time.Duration) *Result {
	res := newResult("abl-multi-lb")
	res.Header = []string{"lbs", "p95_us", "total_shifts", "slow_new_flow_share_pct"}
	if duration <= 0 {
		duration = 4 * time.Second
	}
	for _, k := range []int{1, 2, 4, 8} {
		p95, shifts, share, err := runMultiLB(seed, duration, k)
		if err != nil {
			res.addNote("k=%d failed: %v", k, err)
			continue
		}
		res.addRow(fmt.Sprintf("%d", k), usStr(p95), fmt.Sprintf("%d", shifts), fmt.Sprintf("%.1f", share))
		res.Metrics[fmt.Sprintf("p95_us_k%d", k)] = float64(p95) / 1e3
		res.Metrics[fmt.Sprintf("shifts_k%d", k)] = float64(shifts)
	}
	res.addNote("independent LBs shift against the same signal; oscillation grows with the LB count (§5 Q4)")
	return res
}

// runMultiLB wires k clients, k latency-aware LBs, and 2 shared servers.
// Server 0 degrades at duration/2. Returns client p95 (post-injection),
// total controller shifts, and the slow server's share of new flows after
// injection.
func runMultiLB(seed int64, duration time.Duration, k int) (time.Duration, uint64, float64, error) {
	sim := netsim.NewSim(seed)
	injectAt := duration / 2
	names := serverNames(2)

	// Shared servers.
	servers := make([]*server.Server, 2)
	for i := range servers {
		servers[i] = server.New(sim, server.Config{
			Name: names[i], Workers: 8,
			Service: server.LogNormal{Median: 150 * time.Microsecond, Sigma: 0.25},
		})
	}

	// Response dispatch: DSR straight to the owning client, by client IP.
	clients := make(map[[4]byte]*tcpsim.RequestClient, k)
	toClients := netsim.NewLink(sim, "servers->clients", 100*time.Microsecond, 0,
		netsim.HandlerFunc(func(p *netsim.Packet) {
			if c, ok := clients[p.Flow.SrcIP]; ok {
				c.HandlePacket(p)
			} else {
				sim.ReleasePacket(p)
			}
		}))
	for _, s := range servers {
		s.SetOutput(toClients.Send)
	}

	hist := stats.NewDefaultHistogram()
	var totalShifts uint64
	var newSlow, newTotal uint64

	for i := 0; i < k; i++ {
		pol, err := control.NewLatencyAware(control.LatencyAwareConfig{
			Backends: names, Alpha: 0.10, TableSize: 1021,
			MinWeight: 0.02, Cooldown: time.Millisecond, HysteresisRatio: 1.15,
		})
		if err != nil {
			return 0, 0, 0, err
		}
		pol.OnUpdate = func(time.Duration, []float64) { totalShifts++ }

		uplinks := make([]*netsim.Link, 2)
		for s := range uplinks {
			link := netsim.NewLink(sim, fmt.Sprintf("lb%d->%s", i, names[s]), 50*time.Microsecond, 0, servers[s])
			if s == 0 {
				link.SetExtraDelay(faults.Step{Start: injectAt, Extra: time.Millisecond}.DelayAt)
			}
			uplinks[s] = link
		}
		balancer, err := lb.New(sim, lb.Config{Policy: pol}, uplinks)
		if err != nil {
			return 0, 0, 0, err
		}
		clientIP := netip.AddrFrom4([4]byte{10, 0, byte(i + 1), 100})
		toLB := netsim.NewLink(sim, fmt.Sprintf("client%d->lb%d", i, i), 50*time.Microsecond, 0, balancer)
		client := tcpsim.NewRequestClient(sim, tcpsim.RequestConfig{
			ClientIP:    clientIP,
			Connections: 4, Pipeline: 1, RequestsPerConn: 100,
			ReopenDelay: 500 * time.Microsecond,
			ThinkTime:   50 * time.Microsecond, ThinkJitter: 50 * time.Microsecond,
			GetFraction: 0.5,
		}, toLB.Send)
		client.OnResponse = func(now time.Duration, op netsim.Op, lat time.Duration) {
			if now >= injectAt+(duration-injectAt)/4 {
				hist.Record(lat)
			}
		}
		clients[clientIP.As4()] = client
		sim.Schedule(0, client.Start)

		bal := balancer
		sim.Schedule(duration-time.Nanosecond, func() {
			st := bal.Stats()
			newSlow += st.NewPerBack[0]
			newTotal += st.NewPerBack[0] + st.NewPerBack[1]
		})
	}

	sim.RunUntil(duration)
	share := 0.0
	if newTotal > 0 {
		share = 100 * float64(newSlow) / float64(newTotal)
	}
	return hist.Quantile(0.95), totalShifts, share, nil
}
