package netsim

import (
	"testing"
	"time"
)

type collector struct {
	sim     *Sim
	packets []*Packet
	times   []time.Duration
}

func (c *collector) HandlePacket(p *Packet) {
	c.packets = append(c.packets, p)
	c.times = append(c.times, c.sim.Now())
}

func TestLinkPropagationDelay(t *testing.T) {
	s := NewSim(1)
	c := &collector{sim: s}
	l := NewLink(s, "test", 500*time.Microsecond, 0, c)
	s.Schedule(0, func() { l.Send(&Packet{Size: 100}) })
	s.Run()
	if len(c.times) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(c.times))
	}
	if c.times[0] != 500*time.Microsecond {
		t.Errorf("arrival = %v, want 500µs (rate 0 means no serialization)", c.times[0])
	}
}

func TestLinkSerialization(t *testing.T) {
	s := NewSim(1)
	c := &collector{sim: s}
	// 1 MB/s: a 1000-byte packet takes 1ms to serialize.
	l := NewLink(s, "test", 0, 1e6, c)
	s.Schedule(0, func() {
		l.Send(&Packet{Size: 1000, Seq: 1})
		l.Send(&Packet{Size: 1000, Seq: 2})
	})
	s.Run()
	if len(c.times) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(c.times))
	}
	if c.times[0] != time.Millisecond {
		t.Errorf("first arrival = %v, want 1ms", c.times[0])
	}
	if c.times[1] != 2*time.Millisecond {
		t.Errorf("second arrival = %v, want 2ms (queued behind first)", c.times[1])
	}
	if c.packets[0].Seq != 1 || c.packets[1].Seq != 2 {
		t.Error("FIFO order violated")
	}
}

func TestLinkIdleThenBusy(t *testing.T) {
	s := NewSim(1)
	c := &collector{sim: s}
	l := NewLink(s, "test", 100*time.Microsecond, 1e6, c)
	s.Schedule(0, func() { l.Send(&Packet{Size: 1000}) })
	// Second send after the link went idle: no queueing delay.
	s.Schedule(5*time.Millisecond, func() { l.Send(&Packet{Size: 1000}) })
	s.Run()
	if c.times[0] != time.Millisecond+100*time.Microsecond {
		t.Errorf("first arrival = %v", c.times[0])
	}
	if c.times[1] != 6*time.Millisecond+100*time.Microsecond {
		t.Errorf("second arrival = %v, want 6.1ms", c.times[1])
	}
}

func TestLinkQueueLimitDrops(t *testing.T) {
	s := NewSim(1)
	c := &collector{sim: s}
	l := NewLink(s, "test", 0, 1e6, c)
	l.QueueLimit = 2
	s.Schedule(0, func() {
		for i := 0; i < 5; i++ {
			l.Send(&Packet{Size: 1000, Seq: uint64(i)})
		}
	})
	s.Run()
	st := l.Stats()
	if st.Dropped != 3 {
		t.Errorf("dropped = %d, want 3 (queue limit 2)", st.Dropped)
	}
	if st.Delivered != 2 {
		t.Errorf("delivered = %d, want 2", st.Delivered)
	}
	if len(c.packets) != 2 {
		t.Errorf("collector got %d packets", len(c.packets))
	}
}

func TestLinkExtraDelayInjection(t *testing.T) {
	s := NewSim(1)
	c := &collector{sim: s}
	l := NewLink(s, "test", 100*time.Microsecond, 0, c)
	// The paper's experiment: +1ms starting at t=10ms.
	l.SetExtraDelay(func(now time.Duration) time.Duration {
		if now >= 10*time.Millisecond {
			return time.Millisecond
		}
		return 0
	})
	s.Schedule(0, func() { l.Send(&Packet{Size: 100, Seq: 1}) })
	s.Schedule(20*time.Millisecond, func() { l.Send(&Packet{Size: 100, Seq: 2}) })
	s.Run()
	if c.times[0] != 100*time.Microsecond {
		t.Errorf("pre-injection arrival = %v, want 100µs", c.times[0])
	}
	if c.times[1] != 20*time.Millisecond+100*time.Microsecond+time.Millisecond {
		t.Errorf("post-injection arrival = %v, want 21.1ms", c.times[1])
	}
}

func TestLinkJitter(t *testing.T) {
	s := NewSim(1)
	c := &collector{sim: s}
	l := NewLink(s, "test", time.Millisecond, 0, c)
	l.SetJitter(func() time.Duration { return 250 * time.Microsecond })
	s.Schedule(0, func() { l.Send(&Packet{Size: 1}) })
	s.Run()
	if c.times[0] != time.Millisecond+250*time.Microsecond {
		t.Errorf("arrival = %v, want 1.25ms", c.times[0])
	}
}

func TestLinkStatsBytes(t *testing.T) {
	s := NewSim(1)
	c := &collector{sim: s}
	l := NewLink(s, "test", 0, 0, c)
	s.Schedule(0, func() {
		l.Send(&Packet{Size: 100})
		l.Send(&Packet{Size: 200})
	})
	s.Run()
	if st := l.Stats(); st.Bytes != 300 || st.Sent != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestNewLinkValidation(t *testing.T) {
	s := NewSim(1)
	c := &collector{sim: s}
	cases := []func(){
		func() { NewLink(nil, "x", 0, 0, c) },
		func() { NewLink(s, "x", 0, 0, nil) },
		func() { NewLink(s, "x", -time.Second, 0, c) },
		func() { NewLink(s, "x", 0, -1, c) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestKindAndOpStrings(t *testing.T) {
	kinds := map[Kind]string{
		KindData: "data", KindAck: "ack", KindRequest: "request",
		KindResponse: "response", KindOpen: "open", KindClose: "close",
		Kind(99): "unknown",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	ops := map[Op]string{OpGet: "get", OpSet: "set", OpNone: "none", Op(9): "none"}
	for o, want := range ops {
		if o.String() != want {
			t.Errorf("Op(%d).String() = %q, want %q", o, o.String(), want)
		}
	}
}

func TestHandlerFunc(t *testing.T) {
	n := 0
	var h Handler = HandlerFunc(func(p *Packet) { n += int(p.Seq) })
	h.HandlePacket(&Packet{Seq: 7})
	if n != 7 {
		t.Errorf("n = %d", n)
	}
}
