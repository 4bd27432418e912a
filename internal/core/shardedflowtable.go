package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"inbandlb/internal/packet"
)

// ShardedFlowTable is the concurrent counterpart of FlowTable: N
// lock-striped shards, each owning a private FlowTable, keyed by
// packet.FlowKey.Hash. Flows never migrate between shards, so every flow's
// estimator sees exactly the packet sequence it would see in a single
// FlowTable — per-flow sample sequences are identical for any shard count
// (shard count only partitions the MaxFlows capacity, see
// NewShardedFlowTable). With one shard it is behaviourally identical to a
// mutex-wrapped FlowTable.
//
// All methods are safe for concurrent use. The hot path (Observe) does
// exactly one thing beyond the underlying FlowTable call: lock the owning
// shard. Aggregate counters (Len, Evictions, Rejected) are computed on read
// by briefly locking each shard in turn — stats are read a few times per
// second, packets arrive millions of times per second, so the cost lives on
// the right side.
//
// Nothing outside the benchmark rig's probes and this package's own tests
// calls it: the live proxy keeps each connection's estimator in the
// connection itself.
type ShardedFlowTable struct {
	shards []flowShard
	mask   uint64 // len(shards)-1; shard count is a power of two

	sweepCursor atomic.Uint64
}

// flowShard is padded out to two cache lines so neighbouring shard mutexes
// do not false-share under parallel load (two lines, not one, because the
// adjacent-line spatial prefetcher pulls 128-byte pairs).
type flowShard struct {
	mu sync.Mutex
	ft *FlowTable
	_  [128 - 16]byte
}

// NewShardedFlowTable creates a table with the given shard count, rounded
// up to a power of two; shards <= 0 defaults to runtime.GOMAXPROCS(0).
// cfg.MaxFlows is divided across shards (each shard gets
// ceil(MaxFlows/shards)), so the aggregate capacity matches the
// single-table configuration; because admission is per shard, a skewed key
// distribution can reject slightly earlier than one global table would.
func NewShardedFlowTable(cfg FlowTableConfig, shards int) (*ShardedFlowTable, error) {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	// Validate and default the config once so per-shard division starts
	// from the same numbers NewFlowTable would use.
	if cfg.MaxFlows <= 0 {
		cfg.MaxFlows = 65536
	}
	perShard := cfg.MaxFlows / n
	if cfg.MaxFlows%n != 0 {
		perShard++
	}
	shardCfg := cfg
	shardCfg.MaxFlows = perShard

	t := &ShardedFlowTable{
		shards: make([]flowShard, n),
		mask:   uint64(n - 1),
	}
	for i := range t.shards {
		ft, err := NewFlowTable(shardCfg)
		if err != nil {
			return nil, err
		}
		t.shards[i].ft = ft
	}
	return t, nil
}

// MustSharded is NewShardedFlowTable that panics on config errors.
func MustSharded(cfg FlowTableConfig, shards int) *ShardedFlowTable {
	t, err := NewShardedFlowTable(cfg, shards)
	if err != nil {
		panic(err)
	}
	return t
}

// Shards returns the shard count.
func (t *ShardedFlowTable) Shards() int { return len(t.shards) }

func (t *ShardedFlowTable) shard(key packet.FlowKey) *flowShard {
	return &t.shards[key.Hash()&t.mask]
}

// Observe feeds one packet arrival into the flow's shard, creating the flow
// on first sight, and returns the latency sample produced, if any. Only the
// owning shard's mutex is held, for exactly the duration of the underlying
// FlowTable call.
func (t *ShardedFlowTable) Observe(key packet.FlowKey, now time.Duration) (time.Duration, bool) {
	return t.ObserveHashed(key.Hash(), key, now)
}

// ObserveHashed is Observe for callers that already computed key.Hash() —
// the proxy hashes each flow key once and reuses it for shard selection
// here, sample aggregation, and routing, instead of re-hashing per call.
// hash must equal key.Hash().
func (t *ShardedFlowTable) ObserveHashed(hash uint64, key packet.FlowKey, now time.Duration) (time.Duration, bool) {
	s := &t.shards[hash&t.mask]
	s.mu.Lock()
	sample, ok := s.ft.Observe(key, now)
	s.mu.Unlock()
	return sample, ok
}

// Estimator exposes the per-flow estimator for instrumentation (nil when
// the flow is not tracked). The returned estimator is not synchronized:
// callers must not use it concurrently with Observe calls for the same
// flow.
func (t *ShardedFlowTable) Estimator(key packet.FlowKey) *EnsembleTimeout {
	s := t.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ft.Estimator(key)
}

// Forget drops a flow (connection closed).
func (t *ShardedFlowTable) Forget(key packet.FlowKey) {
	t.ForgetHashed(key.Hash(), key)
}

// ForgetHashed is Forget with a precomputed hash (hash must equal
// key.Hash()).
func (t *ShardedFlowTable) ForgetHashed(hash uint64, key packet.FlowKey) {
	s := &t.shards[hash&t.mask]
	s.mu.Lock()
	s.ft.Forget(key)
	s.mu.Unlock()
}

// Len returns the number of tracked flows across all shards. Shards are
// locked one at a time, so the count is a consistent-per-shard snapshot,
// not a single instant across the whole table — fine for stats.
func (t *ShardedFlowTable) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += s.ft.Len()
		s.mu.Unlock()
	}
	return n
}

// Evictions returns how many flows were evicted to admit new ones.
func (t *ShardedFlowTable) Evictions() uint64 {
	var n uint64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += s.ft.Evictions()
		s.mu.Unlock()
	}
	return n
}

// Rejected returns how many new flows were refused because their shard was
// full and nothing could be evicted.
func (t *ShardedFlowTable) Rejected() uint64 {
	var n uint64
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += s.ft.Rejected()
		s.mu.Unlock()
	}
	return n
}

// Sweep removes idle flows from every shard and returns the number
// removed. Each shard is locked individually, one at a time, so a sweep
// never stalls Observe calls on the other shards.
func (t *ShardedFlowTable) Sweep(now time.Duration) int {
	total := 0
	for i := range t.shards {
		total += t.sweepShard(&t.shards[i], now)
	}
	return total
}

// SweepNext sweeps exactly one shard — the next one in round-robin order —
// and returns the number of flows removed. Calling it shard-count times per
// IdleTimeout gives the same coverage as Sweep with strictly smaller
// per-call hot-path interference; this is the incremental form the live
// proxy uses.
func (t *ShardedFlowTable) SweepNext(now time.Duration) int {
	i := t.sweepCursor.Add(1) - 1
	return t.sweepShard(&t.shards[i&t.mask], now)
}

func (t *ShardedFlowTable) sweepShard(s *flowShard, now time.Duration) int {
	s.mu.Lock()
	n := s.ft.Sweep(now)
	s.mu.Unlock()
	return n
}
