package core

import (
	"time"

	"inbandlb/internal/stats"
)

// ServerLatencyConfig parameterizes per-server latency aggregation.
type ServerLatencyConfig struct {
	// HalfLife is the EWMA half-life for the per-server latency signal.
	// Short half-lives react faster but are noisier. Defaults to 10 ms —
	// a few epochs of the estimator at the paper's timescales.
	HalfLife time.Duration
	// Staleness bounds how old a server's most recent sample may be for
	// the server to participate in Worst(). Defaults to 1 s.
	Staleness time.Duration
	// WindowSlices configures a sliding-window percentile tracker per
	// server of that many windowSliceWidth slices, which the Quantile
	// methods read. Zero keeps no windows: a window is WindowSlices+1
	// histograms of 15 KiB per server plus a record per sample, so only a
	// caller that reads quantiles asks for one. Without windows Quantile
	// returns 0 and WorstQuantile and BestQuantile return -1.
	WindowSlices int
}

// windowSliceWidth is one slice of a quantile window: 8 slices make a
// 1 s window.
const windowSliceWidth = 125 * time.Millisecond

func (c *ServerLatencyConfig) applyDefaults() {
	if c.HalfLife <= 0 {
		c.HalfLife = 10 * time.Millisecond
	}
	if c.Staleness <= 0 {
		c.Staleness = time.Second
	}
}

// ServerLatency aggregates the estimator's per-flow samples into
// per-server latency signals the controller consumes: an EWMA, and when
// configured (WindowSlices) a sliding-window histogram for controllers that
// act on a quantile.
type ServerLatency struct {
	cfg     ServerLatencyConfig
	ewmas   []*stats.EWMA
	windows []*stats.WindowedHistogram // nil without WindowSlices
	lastAt  []time.Duration
	samples []uint64
}

// NewServerLatency creates aggregation state for n servers.
func NewServerLatency(n int, cfg ServerLatencyConfig) *ServerLatency {
	if n <= 0 {
		panic("core: ServerLatency needs at least one server")
	}
	cfg.applyDefaults()
	s := &ServerLatency{
		cfg:     cfg,
		ewmas:   make([]*stats.EWMA, n),
		lastAt:  make([]time.Duration, n),
		samples: make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		s.ewmas[i] = stats.NewEWMA(cfg.HalfLife)
		s.lastAt[i] = -1
	}
	if cfg.WindowSlices > 0 {
		s.windows = make([]*stats.WindowedHistogram, n)
		for i := range s.windows {
			s.windows[i] = stats.NewWindowedHistogram(cfg.WindowSlices, windowSliceWidth)
		}
	}
	return s
}

// NumServers returns the pool size.
func (s *ServerLatency) NumServers() int { return len(s.ewmas) }

// Observe folds a latency sample for server i at time now.
func (s *ServerLatency) Observe(i int, now, sample time.Duration) {
	s.ewmas[i].Update(now, float64(sample))
	if s.windows != nil {
		s.windows[i].Record(now, sample)
	}
	s.lastAt[i] = now
	s.samples[i]++
}

// Latency returns server i's EWMA latency (0 before any sample).
func (s *ServerLatency) Latency(i int) time.Duration {
	return time.Duration(s.ewmas[i].Value())
}

// Quantile returns server i's q-quantile over the sliding window, or 0
// without windows.
func (s *ServerLatency) Quantile(i int, now time.Duration, q float64) time.Duration {
	if s.windows == nil {
		return 0
	}
	return s.windows[i].Quantile(now, q)
}

// Samples returns the total samples folded in for server i.
func (s *ServerLatency) Samples(i int) uint64 { return s.samples[i] }

// LastSample returns when server i last produced a sample (-1 if never).
func (s *ServerLatency) LastSample(i int) time.Duration { return s.lastAt[i] }

// Fresh reports whether server i has a sample within the staleness bound.
func (s *ServerLatency) Fresh(i int, now time.Duration) bool {
	return s.lastAt[i] >= 0 && now-s.lastAt[i] <= s.cfg.Staleness
}

// Worst returns the index of the fresh server with the highest EWMA
// latency, or -1 when no server is fresh. Ties break toward the lower
// index for determinism.
func (s *ServerLatency) Worst(now time.Duration) int {
	worst := -1
	var worstLat float64
	for i := range s.ewmas {
		if !s.Fresh(i, now) {
			continue
		}
		v := s.ewmas[i].Value()
		if worst < 0 || v > worstLat {
			worst = i
			worstLat = v
		}
	}
	return worst
}

// WorstQuantile returns the fresh server with the highest q-quantile
// latency over the sliding window, or -1 when no server is fresh or there
// are no windows. Control on a windowed quantile optimizes the tail
// directly, where the EWMA optimizes the mean — the two can disagree on
// bimodal servers.
func (s *ServerLatency) WorstQuantile(now time.Duration, q float64) int {
	worst := -1
	var worstLat time.Duration
	for i := range s.windows {
		if !s.Fresh(i, now) {
			continue
		}
		v := s.windows[i].Quantile(now, q)
		if worst < 0 || v > worstLat {
			worst = i
			worstLat = v
		}
	}
	return worst
}

// BestQuantile is WorstQuantile's counterpart: the lowest q-quantile, or
// -1 when no server is fresh or there are no windows.
func (s *ServerLatency) BestQuantile(now time.Duration, q float64) int {
	best := -1
	var bestLat time.Duration
	for i := range s.windows {
		if !s.Fresh(i, now) {
			continue
		}
		v := s.windows[i].Quantile(now, q)
		if best < 0 || v < bestLat {
			best = i
			bestLat = v
		}
	}
	return best
}

// Best returns the index of the fresh server with the lowest EWMA latency,
// or -1 when no server is fresh.
func (s *ServerLatency) Best(now time.Duration) int {
	best := -1
	var bestLat float64
	for i := range s.ewmas {
		if !s.Fresh(i, now) {
			continue
		}
		v := s.ewmas[i].Value()
		if best < 0 || v < bestLat {
			best = i
			bestLat = v
		}
	}
	return best
}

// Snapshot returns the current EWMA latencies for all servers.
func (s *ServerLatency) Snapshot() []time.Duration {
	out := make([]time.Duration, len(s.ewmas))
	for i := range s.ewmas {
		out[i] = time.Duration(s.ewmas[i].Value())
	}
	return out
}
