package control

import (
	"inbandlb/internal/maglev"
	"inbandlb/internal/packet"
)

// Snapshot is an immutable routing view published by a Controller: the
// policy's current Maglev table, weight vector, and per-backend admission
// fractions, stamped with a generation counter. The data plane routes
// against a Snapshot with pure reads — no mutex, no channel, no allocation
// — while the control plane builds and publishes the next one. A Snapshot
// is never mutated after publication; readers that loaded an old snapshot
// keep a consistent (at most one control interval stale) view until their
// next load.
//
// Admission generalizes the old boolean eject set: a backend's admit value
// is the fraction (out of admitFull = 1<<16) of its hash range it currently
// accepts. 0 is fully ejected, admitFull fully healthy; intermediate values
// are the half-open trial and slow-start recovery ramp. A flow whose
// backend does not admit it falls back deterministically, so reintroducing
// a recovering backend is a pure RCU republish — no locks appear on the
// routing path.
type Snapshot struct {
	gen     uint64
	policy  string
	table   *maglev.Table
	weights []float64
	admit   []uint32
	cong    []uint64 // cumulative congestion events; nil until any observed
	healthy int      // backends with admit > 0
	full    bool     // every backend at admitFull: Route degenerates to Pick
}

// Generation returns the publication counter; it increases by one with
// every published snapshot, so readers can detect change cheaply.
func (s *Snapshot) Generation() uint64 { return s.gen }

// PolicyName returns the routing policy's name.
func (s *Snapshot) PolicyName() string { return s.policy }

// NumBackends returns the pool size.
func (s *Snapshot) NumBackends() int { return len(s.admit) }

// Weights returns a copy of the weight vector the table was built from
// (nil for unweighted policies).
func (s *Snapshot) Weights() []float64 {
	if s.weights == nil {
		return nil
	}
	return append([]float64(nil), s.weights...)
}

// Ejected reports whether backend i currently admits no traffic at all.
func (s *Snapshot) Ejected(i int) bool { return s.admit[i] == 0 }

// CongestionEvents returns backend i's cumulative transport-distress event
// count (retransmissions + dup-ACK runs + zero-window stalls) as of this
// snapshot's publication. Zero when congestion reporting is idle — the slice
// is only populated once any event has been merged. Like every Snapshot
// field it is frozen at publication; readers needing the live count use
// Controller.CongestionEvents.
func (s *Snapshot) CongestionEvents(i int) uint64 {
	if i < 0 || i >= len(s.cong) {
		return 0
	}
	return s.cong[i]
}

// Admission returns backend i's admission fraction in [0, 1].
func (s *Snapshot) Admission(i int) float64 {
	return float64(s.admit[i]) / float64(admitFull)
}

// PickHash maps a flow hash to a backend index, ignoring health ejection.
func (s *Snapshot) PickHash(hash uint64) int { return s.table.Lookup(hash) }

// Pick maps a flow key to a backend index, ignoring health ejection.
func (s *Snapshot) Pick(key packet.FlowKey) int { return s.table.Lookup(key.Hash()) }

// Route maps a flow key to an admitted backend. When the table's pick does
// not admit the flow it falls back deterministically — scanning upward with
// wraparound, preferring fully-admitted backends, the same rule for every
// LB replica so a flow remaps identically everywhere — and reports
// fellBack. When every backend is ejected it returns -1.
func (s *Snapshot) Route(key packet.FlowKey) (backend int, fellBack bool) {
	return s.RouteHash(key.Hash())
}

// RouteHash is Route over a precomputed flow hash.
func (s *Snapshot) RouteHash(hash uint64) (backend int, fellBack bool) {
	b := s.table.Lookup(hash)
	if s.full || admits(s.admit[b], hash) {
		return b, false
	}
	if s.healthy == 0 {
		return -1, false
	}
	if cand := nextAdmitted(s.admit, b); cand >= 0 {
		return cand, true
	}
	// The pick is the only admitted backend and it is partially open:
	// partial admission shapes load toward *alternatives*, and with none
	// left the flow goes to the pick rather than being dropped.
	if s.admit[b] > 0 {
		return b, false
	}
	return -1, false
}

// NextHealthy returns an admitted backend other than skip, preferring
// fully-admitted ones — the dial-failover target. Returns -1 when no
// alternative exists. Like RouteHash's fallback it is deterministic, so
// every replica fails a given flow over identically.
func (s *Snapshot) NextHealthy(skip int) int {
	return nextAdmitted(s.admit, skip)
}

// admits reports whether a backend with admission a accepts this flow. The
// top 16 hash bits slice the backend's hash range; the Maglev index uses
// the full word modulo a prime, so the two coordinates are decorrelated and
// a half-admitted backend really sees about half its flows.
func admits(a uint32, hash uint64) bool {
	if a == admitFull {
		return true
	}
	return a > 0 && uint32(hash>>48)&0xffff < a
}

// nextAdmitted scans upward from skip (wrapping, never returning skip) for
// an admitted backend, preferring fully-admitted ones so fallback load does
// not pile onto a barely-open trial backend. Partially open backends take
// fallback flows regardless of their hash slice — when nothing is fully
// open there is nowhere better to shed to, and dropping would be worse. A
// fully-ejected pool yields -1.
func nextAdmitted(admit []uint32, skip int) int {
	n := len(admit)
	partial := -1
	for i := 1; i < n; i++ {
		cand := (skip + i) % n
		a := admit[cand]
		if a == admitFull {
			return cand
		}
		if a > 0 && partial < 0 {
			partial = cand
		}
	}
	return partial
}

// TableSource is implemented by policies whose routing state is an
// immutable Maglev table (MaglevStatic, LatencyAware, Proportional). A
// Controller wrapping a TableSource serves Pick from published Snapshots
// instead of taking the policy mutex.
type TableSource interface {
	// Table returns the current routing table. The returned table must be
	// immutable; the policy replaces (never mutates) it on weight changes.
	Table() *maglev.Table
}
