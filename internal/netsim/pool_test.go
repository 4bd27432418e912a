package netsim

import (
	"strings"
	"testing"
	"time"
)

// mustPanic runs fn and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one mentioning %q", r, want)
		}
	}()
	fn()
}

func TestPacketPoolReusesAndCounts(t *testing.T) {
	s := NewSim(1)
	p := s.NewPacket(Packet{Kind: KindRequest, Seq: 1, Size: 100})
	if s.LivePackets() != 1 {
		t.Fatalf("live = %d after one NewPacket, want 1", s.LivePackets())
	}
	s.ReleasePacket(p)
	if s.LivePackets() != 0 {
		t.Fatalf("live = %d after release, want 0", s.LivePackets())
	}
	if p.Kind != kindReleased {
		t.Errorf("released packet has kind %v, want it poisoned", p.Kind)
	}
	q := s.NewPacket(Packet{Kind: KindResponse, Seq: 2})
	if q != p {
		t.Error("NewPacket did not reuse the released packet")
	}
	if q.Kind != KindResponse || q.Seq != 2 || q.Size != 0 {
		t.Errorf("reused packet = %+v, want exactly the new fields", *q)
	}
}

func TestReleasePacketTwicePanics(t *testing.T) {
	s := NewSim(1)
	p := s.NewPacket(Packet{Kind: KindRequest})
	s.ReleasePacket(p)
	mustPanic(t, "released twice", func() { s.ReleasePacket(p) })
	if s.LivePackets() != 0 {
		t.Errorf("live = %d, a double release must not count twice", s.LivePackets())
	}
}

func TestSendAfterReleasePanics(t *testing.T) {
	s := NewSim(1)
	l := NewLink(s, "l", time.Microsecond, 0, HandlerFunc(func(*Packet) {}))
	p := s.NewPacket(Packet{Kind: KindRequest})
	s.ReleasePacket(p)
	mustPanic(t, "released packet sent on l", func() { l.Send(p) })
}

func TestReleaseInFlightPanicsAtDelivery(t *testing.T) {
	s := NewSim(1)
	l := NewLink(s, "l", time.Microsecond, 0, HandlerFunc(func(*Packet) {}))
	p := s.NewPacket(Packet{Kind: KindRequest})
	l.Send(p)
	s.ReleasePacket(p) // the sender gave ownership to the link
	mustPanic(t, "released while in flight on l", func() { s.Run() })
}

func TestReleaseUnpooledPacketIsNoop(t *testing.T) {
	s := NewSim(1)
	p := &Packet{Kind: KindRequest, Seq: 7}
	s.ReleasePacket(p)
	s.ReleasePacket(p)
	if p.Kind != KindRequest || p.Seq != 7 || s.LivePackets() != 0 {
		t.Errorf("unpooled release changed state: %+v, live %d", *p, s.LivePackets())
	}
	if q := s.NewPacket(Packet{}); q == p {
		t.Error("an unpooled packet entered the free list")
	}
}

// TestLinkEventsPerPacket pins what a link schedules: an unbounded link one
// delivery per packet and nothing else, a bounded one a dequeue event as
// well. The bounded run's drops and event count are the ones every link
// produced when all of them scheduled a dequeue per packet.
func TestLinkEventsPerPacket(t *testing.T) {
	// 1000-byte packets at 1 MB/s take 1 ms each; 11 sends 310 µs apart
	// (no send coincides with a transmission start).
	run := func(limit int) (events int, seqs []uint64, st LinkStats, live int) {
		s := NewSim(1)
		l := NewLink(s, "l", 0, 1e6, HandlerFunc(func(p *Packet) {
			seqs = append(seqs, p.Seq)
			s.ReleasePacket(p)
		}))
		l.QueueLimit = limit
		for i := 0; i < 11; i++ {
			seq := uint64(i)
			s.Schedule(time.Duration(i)*310*time.Microsecond, func() {
				l.Send(s.NewPacket(Packet{Seq: seq, Size: 1000}))
			})
		}
		events = s.Run()
		return events, seqs, l.Stats(), s.LivePackets()
	}

	events, seqs, st, live := run(0)
	if want := 11 + 11; events != want {
		t.Errorf("unbounded: %d events, want %d (one send and one delivery per packet)", events, want)
	}
	if len(seqs) != 11 || st.Dropped != 0 || live != 0 {
		t.Errorf("unbounded: delivered %v, dropped %d, live %d", seqs, st.Dropped, live)
	}

	// Limit 2: a send finds the queue full while two accepted packets
	// still wait for the transmitter, which drops sends 3, 5, 6, 8 and 9.
	events, seqs, st, live = run(2)
	want := []uint64{0, 1, 2, 4, 7, 10}
	if len(seqs) != len(want) {
		t.Fatalf("bounded: delivered %v, want %v", seqs, want)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("bounded: delivered %v, want %v", seqs, want)
		}
	}
	if st.Sent != 6 || st.Dropped != 5 {
		t.Errorf("bounded: sent %d dropped %d, want 6 and 5", st.Sent, st.Dropped)
	}
	if wantEv := 11 + 2*6; events != wantEv {
		t.Errorf("bounded: %d events, want %d (a dequeue and a delivery per accepted packet)", events, wantEv)
	}
	if live != 0 {
		t.Errorf("bounded: %d packets live after the run; tail drops must release theirs", live)
	}
}
