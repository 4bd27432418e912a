package faults

import (
	"errors"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

func TestOutageWindow(t *testing.T) {
	o := Outage{Start: 100 * time.Millisecond, End: 200 * time.Millisecond}
	cases := []struct {
		t    time.Duration
		want ConnFaultKind
	}{
		{0, ConnNone},
		{99 * time.Millisecond, ConnNone},
		{100 * time.Millisecond, ConnRefuse},
		{199 * time.Millisecond, ConnRefuse},
		{200 * time.Millisecond, ConnNone},
	}
	for _, c := range cases {
		if got := o.ConnFaultAt(c.t, 0).Kind; got != c.want {
			t.Errorf("ConnFaultAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}

	bh := Outage{Start: time.Second, Blackhole: true} // End 0 = forever
	if got := bh.ConnFaultAt(time.Hour, 0).Kind; got != ConnBlackhole {
		t.Errorf("open-ended blackhole at 1h = %v, want blackhole", got)
	}
	if got := bh.ConnFaultAt(0, 0).Kind; got != ConnNone {
		t.Errorf("blackhole before start = %v, want none", got)
	}
}

func TestResetSchedule(t *testing.T) {
	r := Reset{Start: time.Second, End: 2 * time.Second, AfterBytes: 64}
	f := r.ConnFaultAt(1500*time.Millisecond, 0)
	if f.Kind != ConnReset || f.AfterBytes != 64 {
		t.Errorf("in-window = %+v, want reset after 64", f)
	}
	if got := r.ConnFaultAt(2*time.Second, 0).Kind; got != ConnNone {
		t.Errorf("at end = %v, want none", got)
	}
}

func TestFlakyDeterministicAndProportional(t *testing.T) {
	f := Flaky{P: 0.3, Seed: 42}
	const n = 20000
	hits := 0
	for id := uint64(0); id < n; id++ {
		a := f.ConnFaultAt(0, id)
		b := f.ConnFaultAt(0, id)
		if a != b {
			t.Fatalf("id %d: not deterministic (%+v vs %+v)", id, a, b)
		}
		if a.Kind == ConnRefuse {
			hits++
		} else if a.Kind != ConnNone {
			t.Fatalf("id %d: unexpected kind %v", id, a.Kind)
		}
	}
	frac := float64(hits) / n
	if frac < 0.27 || frac > 0.33 {
		t.Errorf("fault fraction %.3f, want ~0.30", frac)
	}

	// A different seed fails a different subsequence.
	g := Flaky{P: 0.3, Seed: 43}
	same := 0
	for id := uint64(0); id < n; id++ {
		if f.ConnFaultAt(0, id).Kind == g.ConnFaultAt(0, id).Kind {
			same++
		}
	}
	if same == n {
		t.Error("seeds 42 and 43 fault identical subsequences")
	}

	// The configured fault is passed through.
	rf := Flaky{P: 1, Fault: ConnFault{Kind: ConnReset, AfterBytes: 7}}
	if got := rf.ConnFaultAt(0, 1); got.Kind != ConnReset || got.AfterBytes != 7 {
		t.Errorf("Flaky fault passthrough = %+v", got)
	}
}

func TestConnStackFirstWins(t *testing.T) {
	s := ConnStack{
		Outage{Start: time.Hour}, // inactive now
		Reset{AfterBytes: 9},
		Outage{}, // active, but shadowed by the reset
	}
	f := s.ConnFaultAt(0, 0)
	if f.Kind != ConnReset || f.AfterBytes != 9 {
		t.Errorf("stack = %+v, want first active (reset 9)", f)
	}
	if got := (ConnStack{}).ConnFaultAt(0, 0).Kind; got != ConnNone {
		t.Errorf("empty stack = %v, want none", got)
	}
}

// chaosConn dials a chaos listener running sched and returns the server
// side of the connection as Accept surfaced it.
func chaosConn(t *testing.T, sched ConnSchedule) net.Conn {
	t.Helper()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis := NewChaosListener(inner, sched, func() time.Duration { return 0 })
	t.Cleanup(func() { lis.Close() })
	client, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	conn, err := lis.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestChaosListenerBlackhole(t *testing.T) {
	conn := chaosConn(t, Outage{Blackhole: true})
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatalf("blackhole write: %v", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	buf := make([]byte, 4)
	if _, err := conn.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("blackhole read err = %v, want deadline exceeded", err)
	}
}

func TestChaosListenerReset(t *testing.T) {
	conn := chaosConn(t, Reset{AfterBytes: 8})
	if _, err := conn.Write([]byte("01234567")); err != nil { // spends the budget
		t.Fatalf("write within budget: %v", err)
	}
	if _, err := conn.Write([]byte("x")); !errors.Is(err, ErrConnReset) {
		t.Fatalf("write past budget err = %v, want ErrConnReset", err)
	}
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, ErrConnReset) {
		t.Fatalf("read past budget err = %v, want ErrConnReset", err)
	}
}

func TestChaosListenerRefuseAndRecover(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var now atomic.Int64 // manual clock (ns), advanced below; read from the Accept goroutine
	lis := NewChaosListener(inner, Outage{End: time.Second}, func() time.Duration { return time.Duration(now.Load()) })
	defer lis.Close()

	accepted := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()

	// During the outage the connection is aborted at accept and never
	// surfaced. Depending on timing the client sees the RST at connect or
	// at first read; either way the attempt fails.
	conn, err := net.Dial("tcp", inner.Addr().String())
	if err == nil {
		_ = conn.SetReadDeadline(time.Now().Add(time.Second))
		if _, rerr := conn.Read(make([]byte, 1)); rerr == nil {
			t.Fatal("read on refused conn succeeded, want abort")
		}
		conn.Close()
	}
	select {
	case <-accepted:
		t.Fatal("refused connection surfaced to Accept")
	default:
	}

	// After the outage window connections flow again.
	now.Store(int64(2 * time.Second))
	conn2, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatalf("post-outage dial: %v", err)
	}
	defer conn2.Close()
	select {
	case c := <-accepted:
		c.Close()
	case <-time.After(2 * time.Second):
		t.Fatal("post-outage connection never surfaced")
	}
}
