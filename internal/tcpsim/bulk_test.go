package tcpsim

import (
	"net/netip"
	"testing"
	"time"

	"inbandlb/internal/netsim"
	"inbandlb/internal/packet"
)

func bulkFlow() packet.FlowKey {
	return packet.NewFlowKey(
		netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.1.0.1"),
		40000, 5001, packet.ProtoTCP)
}

// wireBulk builds client --100µs--> tap --100µs--> sink --200µs--> client,
// a 400µs RTT with an observation point (the "LB") in the middle.
// Returns the sender, the sink, and a slice capturing tap arrival times.
func wireBulk(sim *netsim.Sim, cfg BulkConfig, sinkCfg AckSinkConfig) (*BulkSender, *AckSink, *[]time.Duration) {
	var taps []time.Duration
	var sender *BulkSender

	toClient := netsim.NewLink(sim, "sink->client", 200*time.Microsecond, 0,
		netsim.HandlerFunc(func(p *netsim.Packet) { sender.HandlePacket(p) }))
	sink := NewAckSink(sim, sinkCfg, toClient.Send)
	toSink := netsim.NewLink(sim, "tap->sink", 100*time.Microsecond, 0, sink)
	tap := netsim.HandlerFunc(func(p *netsim.Packet) {
		taps = append(taps, sim.Now())
		toSink.Send(p)
	})
	toTap := netsim.NewLink(sim, "client->tap", 100*time.Microsecond, 0, tap)
	sender = NewBulkSender(sim, cfg, toTap.Send)
	return sender, sink, &taps
}

func TestBulkFlowRTTGroundTruth(t *testing.T) {
	sim := netsim.NewSim(1)
	cfg := BulkConfig{Flow: bulkFlow(), Window: 4, SegSize: 1000}
	sender, sink, _ := wireBulk(sim, cfg, AckSinkConfig{})
	sim.Schedule(0, sender.Start)
	sim.RunUntil(50 * time.Millisecond)

	st := sender.Stats()
	if st.SegmentsSent == 0 || st.AcksReceived == 0 {
		t.Fatalf("no traffic: %+v", st)
	}
	// All links are rate-0, so every RTT is exactly 400µs.
	if st.RTT.Min() != 400*time.Microsecond || st.RTT.Max() != 400*time.Microsecond {
		t.Errorf("RTT range [%v, %v], want exactly 400µs", st.RTT.Min(), st.RTT.Max())
	}
	if sink.Received() != st.AcksReceived {
		t.Errorf("sink received %d, client acked %d", sink.Received(), st.AcksReceived)
	}
}

func TestBulkFlowBatchStructure(t *testing.T) {
	sim := netsim.NewSim(1)
	cfg := BulkConfig{Flow: bulkFlow(), Window: 4, SegSize: 1000}
	sender, _, taps := wireBulk(sim, cfg, AckSinkConfig{})
	sim.Schedule(0, sender.Start)
	sim.RunUntil(10 * time.Millisecond)

	if len(*taps) < 12 {
		t.Fatalf("too few tap observations: %d", len(*taps))
	}
	// With zero serialization the window goes out as a simultaneous burst,
	// then the flow idles one RTT. Gaps observed at the tap are therefore
	// either ~0 (intra-batch) or ~RTT (inter-batch).
	var zeroGaps, rttGaps, other int
	for i := 1; i < len(*taps); i++ {
		gap := (*taps)[i] - (*taps)[i-1]
		switch {
		case gap < 10*time.Microsecond:
			zeroGaps++
		case gap > 350*time.Microsecond && gap < 450*time.Microsecond:
			rttGaps++
		default:
			other++
		}
	}
	if rttGaps == 0 {
		t.Error("no inter-batch gaps around the RTT observed")
	}
	if zeroGaps == 0 {
		t.Error("no intra-batch gaps observed")
	}
	if other > rttGaps/2 {
		t.Errorf("too many anomalous gaps: zero=%d rtt=%d other=%d", zeroGaps, rttGaps, other)
	}
}

func TestBulkPacingStretchesBatches(t *testing.T) {
	sim := netsim.NewSim(1)
	cfg := BulkConfig{Flow: bulkFlow(), Window: 4, SegSize: 1000, Pacing: 80 * time.Microsecond}
	sender, _, taps := wireBulk(sim, cfg, AckSinkConfig{})
	sim.Schedule(0, sender.Start)
	sim.RunUntil(10 * time.Millisecond)

	var sub80 int
	for i := 1; i < len(*taps); i++ {
		if gap := (*taps)[i] - (*taps)[i-1]; gap < 80*time.Microsecond {
			sub80++
		}
	}
	if sub80 > 0 {
		t.Errorf("%d gaps below the pacing floor", sub80)
	}
}

func TestBulkDelayedAcks(t *testing.T) {
	sim := netsim.NewSim(1)
	cfg := BulkConfig{Flow: bulkFlow(), Window: 4, SegSize: 1000}
	sender, sink, _ := wireBulk(sim, cfg, AckSinkConfig{DelayedAckCount: 2})
	sim.Schedule(0, sender.Start)
	sim.RunUntil(20 * time.Millisecond)

	st := sender.Stats()
	if st.AcksReceived == 0 {
		t.Fatal("no progress with delayed ACKs")
	}
	// Every segment must eventually be acknowledged (cumulative ACKs).
	if sink.Received() != st.AcksReceived {
		t.Errorf("received %d segments but %d acked", sink.Received(), st.AcksReceived)
	}
}

func TestBulkDelayedAckTimeoutFlushes(t *testing.T) {
	sim := netsim.NewSim(1)
	// Window 1 with DelayedAckCount 2: the sink would deadlock waiting for
	// a second segment if the timeout never fired.
	cfg := BulkConfig{Flow: bulkFlow(), Window: 1, SegSize: 1000}
	sender, _, _ := wireBulk(sim, cfg, AckSinkConfig{DelayedAckCount: 2, DelayedAckTimeout: time.Millisecond})
	sim.Schedule(0, sender.Start)
	sim.RunUntil(50 * time.Millisecond)

	st := sender.Stats()
	if st.AcksReceived < 10 {
		t.Errorf("delayed-ACK timeout did not keep the flow alive: %d acks", st.AcksReceived)
	}
	// RTT should now include ~1ms of delayed-ACK hold time.
	if st.RTT.Min() < time.Millisecond {
		t.Errorf("min RTT %v does not reflect delayed-ACK hold", st.RTT.Min())
	}
}

func TestBulkAppLimitedGaps(t *testing.T) {
	sim := netsim.NewSim(1)
	cfg := BulkConfig{
		Flow: bulkFlow(), Window: 8, SegSize: 1000,
		AppLimitedOn: 2 * time.Millisecond, AppLimitedOff: 3 * time.Millisecond,
	}
	sender, _, taps := wireBulk(sim, cfg, AckSinkConfig{})
	sim.Schedule(0, sender.Start)
	sim.RunUntil(30 * time.Millisecond)

	var offGaps int
	for i := 1; i < len(*taps); i++ {
		if gap := (*taps)[i] - (*taps)[i-1]; gap >= 3*time.Millisecond {
			offGaps++
		}
	}
	if offGaps == 0 {
		t.Error("app-limited off-periods produced no long gaps")
	}
	if sender.Stats().SegmentsSent == 0 {
		t.Error("no segments sent")
	}
}

func TestBulkHiccupStallsClient(t *testing.T) {
	sim := netsim.NewSim(3)
	cfg := BulkConfig{
		Flow: bulkFlow(), Window: 4, SegSize: 1000,
		HiccupProb: 0.05, HiccupMin: 2 * time.Millisecond, HiccupMax: 3 * time.Millisecond,
	}
	sender, _, taps := wireBulk(sim, cfg, AckSinkConfig{})
	sim.Schedule(0, sender.Start)
	sim.RunUntil(200 * time.Millisecond)

	// Hiccups must produce whole-client stalls: gaps of at least the
	// minimum hiccup length, far above the 400µs RTT.
	stalls := 0
	for i := 1; i < len(*taps); i++ {
		if (*taps)[i]-(*taps)[i-1] >= 2*time.Millisecond {
			stalls++
		}
	}
	if stalls == 0 {
		t.Error("no client stalls observed with 5% hiccup probability")
	}
	if sender.Stats().SegmentsSent == 0 {
		t.Error("flow made no progress")
	}
}

func TestBulkStartIdempotent(t *testing.T) {
	sim := netsim.NewSim(1)
	cfg := BulkConfig{Flow: bulkFlow(), Window: 2, SegSize: 100}
	sender, _, taps := wireBulk(sim, cfg, AckSinkConfig{})
	sim.Schedule(0, func() {
		sender.Start()
		sender.Start() // second call must not double-send
	})
	sim.RunUntil(time.Microsecond)
	if len(*taps) != 0 {
		t.Fatalf("tap saw packets before propagation delay elapsed")
	}
	sim.RunUntil(150 * time.Microsecond)
	if len(*taps) != 2 {
		t.Errorf("tap saw %d packets, want window of 2", len(*taps))
	}
}

func TestBulkIgnoresNonAcks(t *testing.T) {
	sim := netsim.NewSim(1)
	sender := NewBulkSender(sim, BulkConfig{Flow: bulkFlow()}, func(*netsim.Packet) {})
	sender.HandlePacket(&netsim.Packet{Kind: netsim.KindData})
	if sender.Stats().AcksReceived != 0 {
		t.Error("data packet counted as ACK")
	}
}

func TestBulkDefaults(t *testing.T) {
	sim := netsim.NewSim(1)
	sent := 0
	sender := NewBulkSender(sim, BulkConfig{Flow: bulkFlow()}, func(p *netsim.Packet) {
		sent++
		if p.Size != 1500 {
			t.Errorf("default segment size = %d, want 1500", p.Size)
		}
	})
	sim.Schedule(0, sender.Start)
	sim.Run()
	if sent != 8 {
		t.Errorf("default window sent %d segments, want 8", sent)
	}
}
