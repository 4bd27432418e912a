package faults

import (
	"fmt"
	"time"
)

// ConnFaultKind classifies connection-level failures, the complement of the
// delay Schedules: where a Schedule degrades a path, a ConnSchedule breaks
// connections outright. The same schedule drives the simulated server, the
// live chaos listener wrapper, and the failure-recovery experiments.
type ConnFaultKind uint8

const (
	// ConnNone means the connection proceeds normally.
	ConnNone ConnFaultKind = iota
	// ConnRefuse fails the connection immediately (RST / connection
	// refused): the fastest-failing fault, visible to dialers in one RTT.
	ConnRefuse
	// ConnBlackhole accepts the connection but never moves data in either
	// direction: the slowest-failing fault, visible only through timeouts
	// or the absence of in-band samples.
	ConnBlackhole
	// ConnReset accepts the connection and kills it after AfterBytes bytes
	// have been relayed (0 = immediately after establishment).
	ConnReset
)

// String names the kind for logs.
func (k ConnFaultKind) String() string {
	switch k {
	case ConnNone:
		return "none"
	case ConnRefuse:
		return "refuse"
	case ConnBlackhole:
		return "blackhole"
	case ConnReset:
		return "reset"
	}
	return "unknown"
}

// ConnFault is one fault decision for one connection attempt.
type ConnFault struct {
	Kind ConnFaultKind
	// AfterBytes applies to ConnReset: the connection dies once this many
	// bytes (both directions combined) have passed through it.
	AfterBytes int
}

// ConnSchedule decides the fault applied to a connection attempt.
//
// id identifies the attempt so probabilistic schedules are deterministic:
// live wrappers pass an accept/dial counter, the simulator passes the flow
// hash (making a faulted flow consistently faulted for its lifetime).
// Implementations must be safe for concurrent use; the provided ones are
// stateless.
type ConnSchedule interface {
	ConnFaultAt(t time.Duration, id uint64) ConnFault
}

// NoConnFaults is the empty connection schedule.
var NoConnFaults ConnSchedule = connNone{}

type connNone struct{}

func (connNone) ConnFaultAt(time.Duration, uint64) ConnFault { return ConnFault{} }

// Outage breaks every connection during [Start, End): refused by default,
// blackholed when Blackhole is set. End zero means "forever", matching Step.
type Outage struct {
	Start     time.Duration
	End       time.Duration
	Blackhole bool
}

// ConnFaultAt implements ConnSchedule.
func (o Outage) ConnFaultAt(t time.Duration, _ uint64) ConnFault {
	if t < o.Start || (o.End > 0 && t >= o.End) {
		return ConnFault{}
	}
	if o.Blackhole {
		return ConnFault{Kind: ConnBlackhole}
	}
	return ConnFault{Kind: ConnRefuse}
}

// String describes the outage for logs.
func (o Outage) String() string {
	mode := "refuse"
	if o.Blackhole {
		mode = "blackhole"
	}
	if o.End > 0 {
		return fmt.Sprintf("outage(%s during [%v,%v))", mode, o.Start, o.End)
	}
	return fmt.Sprintf("outage(%s from %v)", mode, o.Start)
}

// Reset accepts connections during [Start, End) and kills each one after
// AfterBytes relayed bytes — the mid-stream failure mode (process crash,
// conntrack flush) that dial-time health checks never see.
type Reset struct {
	Start      time.Duration
	End        time.Duration
	AfterBytes int
}

// ConnFaultAt implements ConnSchedule.
func (r Reset) ConnFaultAt(t time.Duration, _ uint64) ConnFault {
	if t < r.Start || (r.End > 0 && t >= r.End) {
		return ConnFault{}
	}
	return ConnFault{Kind: ConnReset, AfterBytes: r.AfterBytes}
}

// Flaky fails a deterministic P-fraction of connection attempts during
// [Start, End) with the configured Fault (refuse when zero). Determinism
// comes from hashing the attempt id with the seed, so the same schedule
// replayed over the same ids fails the same attempts — in simulation and in
// chaos tests alike.
type Flaky struct {
	Start time.Duration
	End   time.Duration
	P     float64
	Seed  uint64
	Fault ConnFault
}

// ConnFaultAt implements ConnSchedule.
func (f Flaky) ConnFaultAt(t time.Duration, id uint64) ConnFault {
	if t < f.Start || (f.End > 0 && t >= f.End) {
		return ConnFault{}
	}
	if !chance(f.Seed, id, f.P) {
		return ConnFault{}
	}
	if f.Fault.Kind == ConnNone {
		return ConnFault{Kind: ConnRefuse}
	}
	return f.Fault
}

// ConnStack applies the first non-none fault among several schedules.
type ConnStack []ConnSchedule

// ConnFaultAt implements ConnSchedule.
func (s ConnStack) ConnFaultAt(t time.Duration, id uint64) ConnFault {
	for _, sched := range s {
		if f := sched.ConnFaultAt(t, id); f.Kind != ConnNone {
			return f
		}
	}
	return ConnFault{}
}

// chance maps (seed, id) to a uniform [0,1) value via splitmix64 and
// compares it against p.
func chance(seed, id uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	x := seed ^ (id * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/float64(1<<53) < p
}
