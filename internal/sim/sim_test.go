package sim

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/ref"
)

func lineNetwork(n int, seed int64) (*rechord.Network, []ident.ID) {
	return lineNetworkCfg(n, seed, rechord.Config{Workers: 1})
}

func lineNetworkCfg(n int, seed int64, cfg rechord.Config) (*rechord.Network, []ident.ID) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[ident.ID]bool{}
	var ids []ident.ID
	for len(ids) < n {
		id := ident.ID(rng.Uint64())
		if id == 0 || seen[id] {
			continue
		}
		seen[id] = true
		ids = append(ids, id)
	}
	nw := rechord.NewNetwork(cfg)
	for _, id := range ids {
		nw.AddPeer(id)
	}
	for i := 1; i < len(ids); i++ {
		nw.SeedEdge(ref.Real(ids[i-1]), ref.Real(ids[i]), graph.Unmarked)
	}
	return nw, ids
}

func TestRunReachesFixedPoint(t *testing.T) {
	nw, ids := lineNetwork(12, 1)
	idl := rechord.ComputeIdeal(ids)
	res := Run(context.Background(), nw, Options{Ideal: idl, TrackSeries: true})
	if !res.Stable {
		t.Fatal("network did not stabilize")
	}
	if res.Rounds <= 0 {
		t.Errorf("Rounds = %d, want positive", res.Rounds)
	}
	if res.AlmostStableRound < 0 || res.AlmostStableRound > res.Rounds+1 {
		t.Errorf("AlmostStableRound = %d, Rounds = %d", res.AlmostStableRound, res.Rounds)
	}
	if res.TotalMessages <= 0 {
		t.Error("no messages counted")
	}
	if len(res.Series) == 0 {
		t.Fatal("series not tracked")
	}
	if res.Series[0].RealNodes != 12 {
		t.Errorf("series real nodes = %d, want 12", res.Series[0].RealNodes)
	}
}

// TestRunFullSweepFixedPoint: Config.FullSweep wakes every peer each
// round, and quiescence detects the sweep's fixed point at the same
// round, with the same message count and in the same state, as the
// incremental schedule.
func TestRunFullSweepFixedPoint(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		inc, _ := lineNetworkCfg(16, seed, rechord.Config{Workers: 1})
		full, _ := lineNetworkCfg(16, seed, rechord.Config{Workers: 1, FullSweep: true})
		ri := Run(context.Background(), inc, Options{})
		rf := Run(context.Background(), full, Options{})
		if !ri.Stable || !rf.Stable {
			t.Fatalf("seed %d: stable %v (incremental), %v (full sweep)", seed, ri.Stable, rf.Stable)
		}
		if ri.Rounds != rf.Rounds || ri.TotalMessages != rf.TotalMessages {
			t.Errorf("seed %d: %d rounds/%d msgs (incremental) vs %d/%d (full sweep)",
				seed, ri.Rounds, ri.TotalMessages, rf.Rounds, rf.TotalMessages)
		}
		if !inc.TakeSnapshot().Equal(full.TakeSnapshot()) {
			t.Errorf("seed %d: the two schedules stopped in different states", seed)
		}
	}
}

func TestRunMaxRoundsBound(t *testing.T) {
	nw, _ := lineNetwork(30, 2)
	res := Run(context.Background(), nw, Options{MaxRounds: 2})
	if res.Stable {
		t.Error("2 rounds cannot stabilize 30 peers from a line")
	}
	if res.Rounds != 2 {
		t.Errorf("Rounds = %d, want 2", res.Rounds)
	}
}

func TestRunToStableError(t *testing.T) {
	nw, _ := lineNetwork(30, 3)
	if _, err := RunToStable(context.Background(), nw, Options{MaxRounds: 2}); err == nil {
		t.Error("RunToStable must report non-convergence")
	}
}

func TestMeasureCountsKinds(t *testing.T) {
	nw, _ := lineNetwork(8, 4)
	Run(context.Background(), nw, Options{})
	m := Measure(nw)
	if m.RealNodes != 8 {
		t.Errorf("RealNodes = %d, want 8", m.RealNodes)
	}
	if m.VirtualNodes <= 0 {
		t.Error("no virtual nodes at stabilization")
	}
	if m.UnmarkedEdges <= 0 {
		t.Error("no unmarked edges at stabilization")
	}
	if m.RingEdges < 2 {
		t.Errorf("RingEdges = %d, want >= 2", m.RingEdges)
	}
	if m.NormalEdges() != m.UnmarkedEdges+m.RingEdges {
		t.Error("NormalEdges mismatch")
	}
	if m.TotalEdges() != m.NormalEdges()+m.ConnectionEdges {
		t.Error("TotalEdges mismatch")
	}
	if m.TotalNodes() != m.RealNodes+m.VirtualNodes {
		t.Error("TotalNodes mismatch")
	}
}

func TestDefaultMaxRounds(t *testing.T) {
	if DefaultMaxRounds(0) <= 0 || DefaultMaxRounds(1) <= 0 {
		t.Error("DefaultMaxRounds must be positive")
	}
	if DefaultMaxRounds(100) <= DefaultMaxRounds(10) {
		t.Error("DefaultMaxRounds must grow with n")
	}
	// Must exceed the paper's O(n log n) with slack.
	if DefaultMaxRounds(105) < 105*7 {
		t.Errorf("DefaultMaxRounds(105) = %d, too small", DefaultMaxRounds(105))
	}
}

func TestSeriesMessagesRecorded(t *testing.T) {
	nw, _ := lineNetwork(6, 5)
	res := Run(context.Background(), nw, Options{TrackSeries: true})
	total := 0
	for _, m := range res.Series {
		total += m.Messages
	}
	if total != res.TotalMessages {
		t.Errorf("series messages %d != total %d", total, res.TotalMessages)
	}
}
