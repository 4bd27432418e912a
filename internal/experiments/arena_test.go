package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smallArena keeps the tournament test-sized: 3 DST seeds, 2 determinism
// replays, and short outage/fig3 legs.
var smallArena = ArenaConfig{Seed: 1, Seeds: 3, Rev: "test"}

func smallPlan(policies ...string) arenaPlan {
	return arenaPlan{
		determinismSeeds: 2,
		policies:         policies,
		outage:           4 * time.Second,
		fig3:             3 * time.Second,
	}
}

func TestArenaTournament(t *testing.T) {
	plan := smallPlan(defaultArenaPlan.policies...)
	tour, err := runArena(smallArena, plan)
	if err != nil {
		t.Fatalf("runArena: %v", err)
	}
	if got, want := len(tour.Policies), len(plan.policies); got != want {
		t.Fatalf("scored %d policies, want %d", got, want)
	}
	seen := map[string]bool{}
	for i, p := range tour.Policies {
		seen[p.Policy] = true
		if p.Rank != i+1 {
			t.Errorf("%s: rank %d at position %d", p.Policy, p.Rank, i)
		}
		if p.DST.Violations != 0 {
			t.Errorf("%s: %d DST violations on seeds %v", p.Policy, p.DST.Violations, p.DST.FailedSeeds)
		}
		if !p.DST.Deterministic {
			t.Errorf("%s: same-seed replay diverged", p.Policy)
		}
		if p.Disqualified {
			t.Errorf("%s: disqualified", p.Policy)
		}
		if p.Score < 0 || p.Score > 100 {
			t.Errorf("%s: score %.2f outside [0,100]", p.Policy, p.Score)
		}
		if len(p.DST.SeedDigests) != plan.determinismSeeds {
			t.Errorf("%s: %d seed digests, want %d", p.Policy, len(p.DST.SeedDigests), plan.determinismSeeds)
		}
		if p.Outage.Responses == 0 || p.Fig3.Responses == 0 {
			t.Errorf("%s: empty leg (outage %d, fig3 %d responses)",
				p.Policy, p.Outage.Responses, p.Fig3.Responses)
		}
		if p.Outage.AdaptLagMs <= 0 {
			t.Errorf("%s: outage adaptation lag %.2f ms", p.Policy, p.Outage.AdaptLagMs)
		}
	}
	for _, name := range plan.policies {
		if !seen[name] {
			t.Errorf("policy %s missing from results", name)
		}
	}

	// Exact pins: every leg is a pure function of the config, so a change
	// that moves any of these numbers changed a scenario, not just code
	// layout.
	type pin struct {
		policy string
		outage arenaOutageLeg
		fig3   arenaFig3Leg
		digest string
	}
	want := []pin{
		{"p2c",
			arenaOutageLeg{P99Ms: 0.472, AdaptLagMs: 66.666667, Timeouts: 12, Responses: 139098, FallbacksPer1k: 84.37611726850197},
			arenaFig3Leg{PreP99Ms: 0.88, PostP99Ms: 0.96, AdaptLagMs: 150, Responses: 53376},
			"ffb17897ec6c9403"},
		{"latency-aware",
			arenaOutageLeg{P99Ms: 0.472, AdaptLagMs: 66.666667, Timeouts: 4, Responses: 143780, FallbacksPer1k: 33.968804159445405, MovedFrac: 0.047991071428571425},
			arenaFig3Leg{PreP99Ms: 0.88, PostP99Ms: 1.376, AdaptLagMs: 150, Responses: 52007},
			"74e1d16d5f15ca5b"},
		{"wlc",
			arenaOutageLeg{P99Ms: 0.472, AdaptLagMs: 66.666667, Timeouts: 5, Responses: 143214, FallbacksPer1k: 108.52173913043478},
			arenaFig3Leg{PreP99Ms: 0.88, PostP99Ms: 1.44, AdaptLagMs: 150, Responses: 49159},
			"5a29d8961bb652d6"},
		{"knapsack",
			arenaOutageLeg{P99Ms: 0.472, AdaptLagMs: 66.666667, Timeouts: 5, Responses: 143192, FallbacksPer1k: 76.22694048033415, MovedFrac: 0.09263392857142858},
			arenaFig3Leg{PreP99Ms: 0.88, PostP99Ms: 1.408, AdaptLagMs: 150, Responses: 51821},
			"b7f5b640269c7f62"},
	}
	for i, w := range want {
		if i >= len(tour.Policies) {
			break
		}
		p := tour.Policies[i]
		if p.Policy != w.policy {
			t.Errorf("rank %d: %s, want %s", i+1, p.Policy, w.policy)
			continue
		}
		if p.Outage != w.outage {
			t.Errorf("%s outage leg:\n got  %+v\n want %+v", p.Policy, p.Outage, w.outage)
		}
		if p.Fig3 != w.fig3 {
			t.Errorf("%s fig3 leg:\n got  %+v\n want %+v", p.Policy, p.Fig3, w.fig3)
		}
		if p.DST.SweepDigest != w.digest {
			t.Errorf("%s sweep digest %s, want %s", p.Policy, p.DST.SweepDigest, w.digest)
		}
	}
}

// TestArenaDeterministic proves the whole tournament — not just the DST
// leg — is a pure function of its config.
func TestArenaDeterministic(t *testing.T) {
	plan := smallPlan("latency-aware", "wlc")
	a, err := runArena(smallArena, plan)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := runArena(smallArena, plan)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("tournament not deterministic:\n%s\nvs\n%s", aj, bj)
	}
}

func TestArenaWriteJSON(t *testing.T) {
	tour := &arenaTournament{
		Rev:      "test",
		Seed:     1,
		DSTSeeds: 3,
		Weights:  arenaScoreWeights,
		Policies: []arenaResult{{Policy: "wlc", Rank: 1, Score: 100}},
	}
	dir := t.TempDir()
	path, err := writeArenaJSON(tour, filepath.Join(dir, "arena"))
	if err != nil {
		t.Fatalf("writeArenaJSON: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	var got arenaTournament
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if got.Rev != "test" || len(got.Policies) != 1 || got.Policies[0].Policy != "wlc" {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
}

// TestArenaUnknownPolicy: a typo'd policy name must fail loudly with the
// registry's candidate list, not produce a silent empty leaderboard.
func TestArenaUnknownPolicy(t *testing.T) {
	if _, err := runArena(smallArena, smallPlan("no-such-policy")); err == nil {
		t.Fatal("runArena accepted an unregistered policy")
	}
}
