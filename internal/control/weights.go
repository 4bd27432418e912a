package control

import (
	"fmt"
	"time"

	"inbandlb/internal/core"
	"inbandlb/internal/maglev"
	"inbandlb/internal/packet"
)

// weightTable is the state the weighted-Maglev feedback policies
// (LatencyAware, Proportional, KnapsackGreedy) share: a weight vector on the
// floored simplex, realized as a weighted Maglev table, and the per-server
// latency aggregation the update rules read. Each policy embeds one and
// keeps only its update rule, which mutates weights in place and then calls
// rebuild.
type weightTable struct {
	name      string
	weights   []float64
	minWeight float64
	builder   *maglev.Builder
	table     *maglev.Table
	lat       *core.ServerLatency
	updates   uint64

	// OnUpdate, when set, observes every table rebuild after the initial
	// one with a copy of the new weight vector; experiments use it to
	// timestamp controller reactions.
	OnUpdate func(now time.Duration, weights []float64)
}

// newWeightTable validates the pool and floor, and builds the uniform
// starting table. tableSize 0 selects 4093: smaller than production Maglev
// because the controllers rebuild on every update.
func newWeightTable(name string, backends []string, tableSize int, minWeight float64, latencyCfg core.ServerLatencyConfig) (weightTable, error) {
	n := len(backends)
	if n < 2 {
		return weightTable{}, fmt.Errorf("control: %s needs >= 2 backends, have %d", name, n)
	}
	if minWeight < 0 || minWeight*float64(n) >= 1 {
		return weightTable{}, fmt.Errorf("control: min weight %v infeasible for %d backends", minWeight, n)
	}
	if tableSize == 0 {
		tableSize = 4093
	}
	builder, err := maglev.NewBuilder(tableSize, backends)
	if err != nil {
		return weightTable{}, err
	}
	wt := weightTable{
		name:      name,
		weights:   make([]float64, n),
		minWeight: minWeight,
		builder:   builder,
		lat:       core.NewServerLatency(n, latencyCfg),
	}
	for i := range wt.weights {
		wt.weights[i] = 1.0 / float64(n)
	}
	if wt.table, err = builder.Build(wt.weights); err != nil {
		return weightTable{}, err
	}
	wt.updates = 1
	return wt, nil
}

// Name implements Policy.
func (wt *weightTable) Name() string { return wt.name }

// NumBackends implements Policy.
func (wt *weightTable) NumBackends() int { return len(wt.weights) }

// Pick implements Policy.
func (wt *weightTable) Pick(key packet.FlowKey, _ time.Duration) int {
	return wt.table.Lookup(key.Hash())
}

// Weights returns a copy of the current weight vector.
func (wt *weightTable) Weights() []float64 {
	return append([]float64(nil), wt.weights...)
}

// Updates returns the number of table builds performed, including the
// initial build (so a freshly constructed policy reports 1).
func (wt *weightTable) Updates() uint64 { return wt.updates }

// Latency exposes the per-server aggregation for instrumentation.
func (wt *weightTable) Latency() *core.ServerLatency { return wt.lat }

// Table implements TableSource: the current (immutable) routing table, for
// snapshot publication by a Controller.
func (wt *weightTable) Table() *maglev.Table { return wt.table }

// project maps the weights back onto the floored simplex: the mass above
// the floor is rescaled so the vector sums to 1 with every share ≥
// minWeight. It expects every weight already ≥ minWeight.
func (wt *weightTable) project() {
	n := len(wt.weights)
	var excess float64
	for _, w := range wt.weights {
		excess += w - wt.minWeight
	}
	if !(excess > 0) {
		for i := range wt.weights {
			wt.weights[i] = 1.0 / float64(n)
		}
		return
	}
	scale := (1 - float64(n)*wt.minWeight) / excess
	for i := range wt.weights {
		wt.weights[i] = wt.minWeight + (wt.weights[i]-wt.minWeight)*scale
	}
}

// rebuild realizes the current weights as the routing table and reports
// the update to OnUpdate. The builder reuses cached per-backend
// permutations, so each rebuild pays only for the population walk. A
// vector the builder rejects is replaced by the last built one, so the
// weights always describe the published table.
func (wt *weightTable) rebuild(now time.Duration) {
	t, err := wt.builder.Build(wt.weights)
	if err != nil {
		for i := range wt.weights {
			wt.weights[i] = wt.table.Backend(i).Weight
		}
		return
	}
	wt.table = t
	wt.updates++
	if wt.OnUpdate != nil {
		wt.OnUpdate(now, wt.Weights())
	}
}
