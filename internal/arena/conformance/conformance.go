// Package conformance is the reusable contract every control.Policy must
// honor before the arena will race it. The checks are black-box: they
// drive the policy through scripted closed-loop workloads (honest Pick →
// ObserveLatency sequences on a synthetic clock, with the driver's own
// per-backend open-flow count bound as occupancy) and assert
// behavioral invariants — normalized weights, same-seed determinism,
// bounded reaction to outliers, no starvation of healthy backends, and
// safe behavior on degenerate pools. A policy that passes here can still
// lose the tournament; it cannot corrupt it.
package conformance

import (
	"fmt"
	"math"
	"time"

	"inbandlb/internal/control"
	"inbandlb/internal/packet"
)

// Subject is one policy under test. Build must return a fresh instance
// each call: several checks construct the policy repeatedly, including
// twice with the same seed to compare replay digests. Build may reject a
// pool size with an error (that is itself safe behavior); it must never
// panic.
type Subject struct {
	Name  string
	Build func(n int, seed int64) (control.Policy, error)
}

// Violation is one broken contract clause.
type Violation struct {
	// Check names the clause (e.g. "weights-sanity", "determinism").
	Check string
	// Detail says what was observed.
	Detail string
}

func (v Violation) String() string { return v.Check + ": " + v.Detail }

// Check runs the full conformance suite against the subject and returns
// every violation found. Each check is panic-guarded: a crashing policy
// reports a violation instead of killing the test binary.
func Check(s Subject) []Violation {
	var out []Violation
	checks := []struct {
		name string
		run  func(Subject) []Violation
	}{
		{"weights-sanity", checkWeightsSanity},
		{"determinism", checkDeterminism},
		{"outlier-bounded", checkOutlierBounded},
		{"no-starvation", checkNoStarvation},
		{"adapts-away", checkAdaptsAway},
		{"occupancy-follows", checkOccupancyFollows},
		{"small-pools", checkSmallPools},
	}
	for _, c := range checks {
		out = append(out, guard(c.name, c.run, s)...)
	}
	return out
}

func guard(name string, run func(Subject) []Violation, s Subject) (vs []Violation) {
	defer func() {
		if r := recover(); r != nil {
			vs = append(vs, Violation{name, fmt.Sprintf("panicked: %v", r)})
		}
	}()
	return run(s)
}

// ---- scripted closed-loop driver ----

const (
	stepDur  = 500 * time.Microsecond
	baseLat  = 200 * time.Microsecond
	poolSize = 4
	maxOpen  = 16
)

type openFlow struct{ backend int }

// driver replays an honest closed loop against a bare policy: every step
// opens one flow at the picked backend, feeds back a latency sample for
// that backend (the in-band signal a real LB would surface), and closes
// the oldest flow once maxOpen are in flight. Like a dataplane, it binds
// its per-backend open-flow count as the policy's occupancy. The synthetic
// clock advances stepDur per step, so long scripts cross the latency
// tracker's staleness horizon and re-exploration is observable.
type driver struct {
	pol    control.Policy
	n      int
	now    time.Duration
	seq    int
	open   []openFlow
	occ    []int // open flows per backend: the bound occupancy
	counts []int
	digest uint64

	pickErr   string
	weightErr string
}

func newDriver(pol control.Policy, n int) *driver {
	d := &driver{pol: pol, n: n, occ: make([]int, n), counts: make([]int, n), digest: 14695981039346656037}
	if ob, ok := pol.(control.OccupancyBinder); ok {
		ob.BindOccupancy(func(b int) int { return d.occ[b] })
	}
	return d
}

func (d *driver) fold(v uint64) {
	for i := 0; i < 8; i++ {
		d.digest = (d.digest ^ (v >> (8 * i) & 0xff)) * 1099511628211
	}
}

func keyAt(i int) packet.FlowKey {
	return packet.FlowKey{
		SrcIP:   [4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)},
		DstIP:   [4]byte{192, 0, 2, 1},
		SrcPort: uint16(1024 + i%60000),
		DstPort: 80,
		Proto:   6,
	}
}

// latency is the deterministic service time: baseLat with a small
// step/backend-dependent jitter, multiplied for backends in slow.
func (d *driver) latency(b int, slow map[int]int) time.Duration {
	lat := baseLat + time.Duration((d.seq*7919+b*104729)%50)*time.Microsecond
	if f, ok := slow[b]; ok {
		lat *= time.Duration(f)
	}
	return lat
}

// run advances the script. slow maps backend → latency multiplier; since
// tracks per-backend picks only for steps >= since (pass 0 for all).
func (d *driver) run(steps int, slow map[int]int, since int, tail []int) {
	for s := 0; s < steps; s++ {
		d.now += stepDur
		b := d.pol.Pick(keyAt(d.seq), d.now)
		if b < 0 || b >= d.n {
			if d.pickErr == "" {
				d.pickErr = fmt.Sprintf("step %d: pick %d outside pool of %d", d.seq, b, d.n)
			}
			d.seq++
			continue
		}
		d.counts[b]++
		if tail != nil && s >= since {
			tail[b]++
		}
		d.fold(uint64(b))
		d.pol.ObserveLatency(b, d.now, d.latency(b, slow))
		d.open = append(d.open, openFlow{backend: b})
		d.occ[b]++
		if len(d.open) > maxOpen {
			d.occ[d.open[0].backend]--
			d.open = d.open[1:]
		}
		d.checkWeights()
		d.seq++
	}
}

// checkWeights validates and digests the weight vector of Weighted
// policies after every step: always normalized, never negative.
func (d *driver) checkWeights() {
	w, ok := d.pol.(control.Weighted)
	if !ok {
		return
	}
	ws := w.Weights()
	sum := 0.0
	for i, v := range ws {
		if v < -1e-9 || v > 1+1e-9 {
			if d.weightErr == "" {
				d.weightErr = fmt.Sprintf("step %d: weight[%d] = %v", d.seq, i, v)
			}
		}
		sum += v
		d.fold(math.Float64bits(v))
	}
	if math.Abs(sum-1) > 1e-9 {
		if d.weightErr == "" {
			d.weightErr = fmt.Sprintf("step %d: weights sum to %v", d.seq, sum)
		}
	}
}

func build(s Subject, n int, seed int64) (control.Policy, error) {
	pol, err := s.Build(n, seed)
	if err != nil {
		return nil, err
	}
	if pol == nil {
		return nil, fmt.Errorf("Build(%d) returned nil policy and nil error", n)
	}
	return pol, nil
}

// ---- checks ----

// checkWeightsSanity: under a steady equal-latency workload the published
// weight vector stays normalized and non-negative on every read, and every
// pick lands inside the pool.
func checkWeightsSanity(s Subject) []Violation {
	pol, err := build(s, poolSize, 42)
	if err != nil {
		return []Violation{{"weights-sanity", fmt.Sprintf("Build(%d): %v", poolSize, err)}}
	}
	d := newDriver(pol, poolSize)
	d.run(2000, nil, 0, nil)
	var out []Violation
	if d.pickErr != "" {
		out = append(out, Violation{"weights-sanity", d.pickErr})
	}
	if d.weightErr != "" {
		out = append(out, Violation{"weights-sanity", d.weightErr})
	}
	return out
}

// checkDeterminism: two instances built with the same seed replay an
// identical script to identical pick/weight digests. This is the property
// that makes a CI repro line trustworthy on a laptop.
func checkDeterminism(s Subject) []Violation {
	digest := func() (uint64, error) {
		pol, err := build(s, poolSize, 42)
		if err != nil {
			return 0, err
		}
		d := newDriver(pol, poolSize)
		d.run(1500, map[int]int{0: 5}, 0, nil)
		return d.digest, nil
	}
	a, err := digest()
	if err != nil {
		return []Violation{{"determinism", err.Error()}}
	}
	b, err := digest()
	if err != nil {
		return []Violation{{"determinism", err.Error()}}
	}
	if a != b {
		return []Violation{{"determinism",
			fmt.Sprintf("same-seed replay diverged: %016x vs %016x", a, b)}}
	}
	return nil
}

// checkOutlierBounded: one wild sample must not crater a backend. The
// immediate reaction is bounded (a weighted policy may shift, but not by
// more than 0.35 on a single sample), and after the outlier ages out under
// continued healthy traffic the backend earns back a non-trivial share.
func checkOutlierBounded(s Subject) []Violation {
	pol, err := build(s, poolSize, 7)
	if err != nil {
		return []Violation{{"outlier-bounded", fmt.Sprintf("Build(%d): %v", poolSize, err)}}
	}
	d := newDriver(pol, poolSize)
	d.run(800, nil, 0, nil)

	before := -1.0
	if w, ok := pol.(control.Weighted); ok {
		before = w.Weights()[0]
	}
	pol.ObserveLatency(0, d.now, 20*time.Millisecond) // ~100x the honest signal
	var out []Violation
	if w, ok := pol.(control.Weighted); ok {
		after := w.Weights()[0]
		if after < before-0.35 {
			out = append(out, Violation{"outlier-bounded",
				fmt.Sprintf("single outlier moved weight[0] %.3f -> %.3f", before, after)})
		}
	}

	// 4000 more healthy steps = 2 s of script time: past the 1 s staleness
	// horizon, so even policies that sidelined backend 0 must re-explore.
	tail := make([]int, poolSize)
	d.run(4000, nil, 3000, tail)
	var tailTotal int
	for _, c := range tail {
		tailTotal += c
	}
	if tailTotal > 0 && float64(tail[0])/float64(tailTotal) < 0.025 {
		out = append(out, Violation{"outlier-bounded",
			fmt.Sprintf("backend 0 stuck at %.1f%% share long after a single outlier",
				100*float64(tail[0])/float64(tailTotal))})
	}
	return out
}

// checkNoStarvation: with every backend healthy and statistically
// identical, none may be starved of traffic.
func checkNoStarvation(s Subject) []Violation {
	pol, err := build(s, poolSize, 11)
	if err != nil {
		return []Violation{{"no-starvation", fmt.Sprintf("Build(%d): %v", poolSize, err)}}
	}
	d := newDriver(pol, poolSize)
	const steps = 3000
	d.run(steps, nil, 0, nil)
	var out []Violation
	for i, c := range d.counts {
		if c < steps/(poolSize*10) {
			out = append(out, Violation{"no-starvation",
				fmt.Sprintf("backend %d got %d of %d picks", i, c, steps)})
		}
	}
	return out
}

// checkAdaptsAway: a consistently 5x-slower backend must end up with
// meaningfully less than its uniform share — the one behavior every
// adaptive policy exists to provide.
func checkAdaptsAway(s Subject) []Violation {
	pol, err := build(s, poolSize, 3)
	if err != nil {
		return []Violation{{"adapts-away", fmt.Sprintf("Build(%d): %v", poolSize, err)}}
	}
	d := newDriver(pol, poolSize)
	tail := make([]int, poolSize)
	d.run(4000, map[int]int{0: 5}, 2500, tail)
	var total int
	for _, c := range tail {
		total += c
	}
	if total == 0 {
		return []Violation{{"adapts-away", "no picks recorded"}}
	}
	share := float64(tail[0]) / float64(total)
	if share > 0.7/poolSize {
		return []Violation{{"adapts-away",
			fmt.Sprintf("5x-slower backend still holds %.1f%% share (limit %.1f%%)",
				100*share, 100*0.7/poolSize)}}
	}
	return nil
}

// checkOccupancyFollows: policies that consult occupancy (they implement
// control.OccupancyBinder) must route on the count the dataplane binds, not
// on one of their own. The driver shows backend 0 holding 1000 open flows
// and the rest holding only what the check opens there, with no latency
// signal to outweigh it; every new flow must stay off backend 0.
func checkOccupancyFollows(s Subject) []Violation {
	pol, err := build(s, poolSize, 5)
	if err != nil {
		return []Violation{{"occupancy-follows", fmt.Sprintf("Build(%d): %v", poolSize, err)}}
	}
	if _, ok := pol.(control.OccupancyBinder); !ok {
		return nil // routes on no occupancy
	}
	d := newDriver(pol, poolSize)
	d.occ[0] = 1000
	for i := 0; i < 300; i++ {
		d.now += stepDur
		b := pol.Pick(keyAt(i), d.now)
		if b == 0 {
			return []Violation{{"occupancy-follows",
				fmt.Sprintf("pick %d went to backend 0, bound at %d open flows against %v", i, d.occ[0], d.occ[1:])}}
		}
		if b > 0 && b < poolSize {
			d.occ[b]++ // held open
		}
	}
	return nil
}

// checkSmallPools: empty pools must be rejected with an error (never a
// panic, never a policy that picks out of range); one-backend pools are
// either rejected or always pick 0.
func checkSmallPools(s Subject) []Violation {
	var out []Violation
	if pol, err := s.Build(0, 1); err == nil {
		out = append(out, Violation{"small-pools",
			fmt.Sprintf("Build(0) succeeded (%T); empty pools must error", pol)})
	}
	pol, err := s.Build(1, 1)
	if err != nil {
		return out // refusing one-backend pools is safe
	}
	d := newDriver(pol, 1)
	d.run(50, nil, 0, nil)
	if d.pickErr != "" {
		out = append(out, Violation{"small-pools", d.pickErr})
	}
	if d.counts[0] != 50 {
		out = append(out, Violation{"small-pools",
			fmt.Sprintf("one-backend pool got %d of 50 picks", d.counts[0])})
	}
	return out
}
