package rechord

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/ref"
)

// Lockstep tests for the inverted dependency index and the hash-based
// settle check: the incremental implementations must reproduce the
// full-scan wake sets and the clone-and-compare settle decisions
// round for round, under convergence and churn, in both schedulers.
// Config.ParanoidSettle does the per-barrier comparison inside the
// engine; these tests drive enough schedule diversity through it and
// add direct comparisons of their own.

// stableNetCfg is stableNet with a caller-chosen config.
func stableNetCfg(t *testing.T, n int, seed int64, cfg Config) (*Network, []ident.ID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ids := make([]ident.ID, 0, n)
	seen := map[ident.ID]bool{}
	for len(ids) < n {
		id := ident.ID(rng.Uint64())
		if id == 0 || seen[id] {
			continue
		}
		seen[id] = true
		ids = append(ids, id)
	}
	nw := NewNetwork(cfg)
	for _, id := range ids {
		nw.AddPeer(id)
	}
	for i := 1; i < len(ids); i++ {
		nw.SeedEdge(ref.Real(ids[i-1]), ref.Real(ids[i]), graph.Unmarked)
	}
	for r := 0; r < 8000; r++ {
		nw.Step()
		if nw.Quiescent() {
			return nw, ids
		}
	}
	t.Fatalf("network of %d peers did not quiesce", n)
	return nil, nil
}

// checkDepIndex rebuilds the expected dependency counts from the
// peers' actual state (edge sets plus standing buckets) and compares
// them against the live index, both directions.
func checkDepIndex(t *testing.T, nw *Network, when string) {
	t.Helper()
	want := map[ident.ID]map[uint32]uint32{}
	bump := func(id ident.ID, slot uint32) {
		m := want[id]
		if m == nil {
			m = map[uint32]uint32{}
			want[id] = m
		}
		m[slot]++
	}
	for slot, n := range nw.pt.nodes {
		if n == nil {
			continue
		}
		for _, v := range n.vnodes {
			if v == nil {
				continue
			}
			for _, r := range v.Nu.Slice() {
				bump(r.Owner, uint32(slot))
			}
			for _, r := range v.Nr.Slice() {
				bump(r.Owner, uint32(slot))
			}
			for _, r := range v.Nc.Slice() {
				bump(r.Owner, uint32(slot))
			}
		}
		for _, b := range n.in {
			sp := b.flow.spans[b.span]
			for _, pm := range b.flow.packed[sp.start:sp.end] {
				bump(b.flow.syms[pm.sym], uint32(slot))
			}
		}
	}
	for id, m := range want {
		got := nw.deps.dependents(id)
		if len(got) != len(m) {
			t.Fatalf("%s: index for %s has %d dependents, want %d", when, id, len(got), len(m))
		}
		for _, e := range got {
			if m[e.peer] != e.cnt {
				t.Fatalf("%s: index for %s slot %d count %d, want %d", when, id, e.peer, e.cnt, m[e.peer])
			}
		}
	}
	for id, key := range nw.deps.keyOf {
		if want[id] == nil {
			t.Fatalf("%s: index holds %s (%d dependents) not present in the state", when, id, len(nw.deps.deps[key]))
		}
	}
}

// checkWakeSets compares the indexed and scan wake sets directly for a
// batch of synthetic change sets: live owners, a departed owner,
// unknown owners, and exact virtual refs at several levels.
func checkWakeSets(t *testing.T, nw *Network, ids []ident.ID, departed ident.ID, rng *rand.Rand) {
	t.Helper()
	cases := []struct {
		owners map[ident.ID]bool
		refs   map[ref.Ref]bool
	}{
		{owners: map[ident.ID]bool{ids[rng.Intn(len(ids))]: true}},
		{owners: map[ident.ID]bool{departed: true}},
		{owners: map[ident.ID]bool{ident.ID(rng.Uint64() | 1): true}},
		{refs: map[ref.Ref]bool{ref.Real(ids[rng.Intn(len(ids))]): true}},
		{refs: map[ref.Ref]bool{ref.Virtual(ids[rng.Intn(len(ids))], 1+rng.Intn(4)): true}},
		{
			owners: map[ident.ID]bool{ids[rng.Intn(len(ids))]: true, departed: true},
			refs: map[ref.Ref]bool{
				ref.Virtual(ids[rng.Intn(len(ids))], 2): true,
				ref.Real(ids[rng.Intn(len(ids))]):       true,
			},
		},
	}
	for i, c := range cases {
		idx := nw.wakeSetIndexed(c.owners, c.refs, nil)
		scan := nw.wakeSetScan(c.owners, c.refs, nil)
		sortSlots(idx)
		sortSlots(scan)
		if !slotsEqual(idx, scan) {
			t.Fatalf("case %d: indexed wake set %v != scan %v (owners=%v refs=%v)", i, idx, scan, c.owners, c.refs)
		}
	}
}

// TestWakeIndexMatchesScan drives convergence and churn through both
// schedulers with ParanoidSettle on (every barrier cross-checks the
// indexed wake set against the full scan and the hashed settle
// decision against the clone) and adds direct wake-set and index
// consistency checks at the quiescent points.
func TestWakeIndexMatchesScan(t *testing.T) {
	t.Run("sync", func(t *testing.T) {
		nw, ids := stableNetCfg(t, 48, 17, Config{Workers: 1, ParanoidSettle: true})
		checkDepIndex(t, nw, "settled")
		rng := rand.New(rand.NewSource(5))
		departed := ids[7]
		if err := nw.Fail(departed); err != nil {
			t.Fatal(err)
		}
		if err := nw.Leave(ids[20]); err != nil {
			t.Fatal(err)
		}
		joiner := ident.ID(rng.Uint64() | 1)
		if err := nw.Join(joiner, ids[3]); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 8000 && !nw.Quiescent(); r++ {
			nw.Step()
		}
		if !nw.Quiescent() {
			t.Fatal("did not re-quiesce after churn")
		}
		if err := ComputeIdeal(nw.Peers()).Matches(nw); err != nil {
			t.Fatalf("wrong state after churn: %v", err)
		}
		checkDepIndex(t, nw, "after churn")
		checkWakeSets(t, nw, nw.Peers(), departed, rng)
		// Rejoin under a departed identifier: the index must wake the
		// peers still holding stale references to it.
		if err := nw.Join(departed, nw.Peers()[0]); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 8000 && !nw.Quiescent(); r++ {
			nw.Step()
		}
		if err := ComputeIdeal(nw.Peers()).Matches(nw); err != nil {
			t.Fatalf("wrong state after rejoin: %v", err)
		}
		checkDepIndex(t, nw, "after rejoin")
	})

	t.Run("fullsweep-churn", func(t *testing.T) {
		// FullSweep skips the settle path but still routes churn wakes
		// through the index; the wake cross-check covers those.
		nw, ids := stableNetCfg(t, 24, 29, Config{Workers: 1, FullSweep: true, ParanoidSettle: true})
		if err := nw.Fail(ids[5]); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 2000 && !nw.Quiescent(); r++ {
			nw.Step()
		}
		if err := ComputeIdeal(nw.Peers()).Matches(nw); err != nil {
			t.Fatalf("wrong state after fullsweep churn: %v", err)
		}
		checkDepIndex(t, nw, "fullsweep after churn")
	})

	t.Run("async", func(t *testing.T) {
		nw, ids := stableNetCfg(t, 32, 41, Config{Workers: 1, ParanoidSettle: true})
		rng := rand.New(rand.NewSource(43))
		a := NewAsyncRunner(nw, AsyncConfig{ActivationProb: 0.5, MaxDelay: 3}, rng)
		if err := nw.Fail(ids[9]); err != nil {
			t.Fatal(err)
		}
		joiner := ident.ID(rng.Uint64() | 1)
		if err := nw.Join(joiner, ids[2]); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 60000 && !a.Quiescent(); s++ {
			a.Step()
		}
		if !a.Quiescent() {
			t.Fatal("async run did not quiesce after churn")
		}
		if err := ComputeIdeal(nw.Peers()).Matches(nw); err != nil {
			t.Fatalf("wrong async state after churn: %v", err)
		}
		checkDepIndex(t, nw, "async after churn")
		checkWakeSets(t, nw, nw.Peers(), ids[9], rng)
	})
}

// TestSettleHashMatchesClone proves the hashed settle decision agrees
// with the clone-and-compare baseline (the paranoid engine panics on
// the first disagreement) and that an injected hash collision IS
// caught: with the victim's hash pinned to its stored value, its next
// real state change must trip the cross-check.
func TestSettleHashMatchesClone(t *testing.T) {
	t.Run("agrees-under-churn", func(t *testing.T) {
		nw, ids := stableNetCfg(t, 40, 53, Config{Workers: 1, ParanoidSettle: true})
		for _, victim := range []ident.ID{ids[4], ids[13]} {
			if err := nw.Fail(victim); err != nil {
				t.Fatal(err)
			}
		}
		for r := 0; r < 8000 && !nw.Quiescent(); r++ {
			nw.Step()
		}
		if err := ComputeIdeal(nw.Peers()).Matches(nw); err != nil {
			t.Fatalf("wrong state after churn: %v", err)
		}
	})

	t.Run("forced-collision-caught", func(t *testing.T) {
		nw, ids := stableNetCfg(t, 24, 61, Config{Workers: 1, ParanoidSettle: true})
		// Pin the victim's per-level hashes to their stored values: from
		// now on every recomputation "collides" with the pre-change
		// state, so the hash path can never see the victim change.
		victim := ids[10]
		slot, _, ok := nw.PeerSlot(victim)
		if !ok {
			t.Fatal("victim not in network")
		}
		testVNodeHash = func(v *VNode) (uint64, bool) {
			if v == nil || v.Self.Owner != victim {
				return 0, false
			}
			stored := nw.vhash[slot]
			if v.Self.Level < len(stored) {
				return stored[v.Self.Level], true
			}
			return 0, false
		}
		defer func() { testVNodeHash = nil }()

		// A join next to the victim changes its closest-neighbor state
		// during reconvergence; the first barrier at which the victim's
		// state really changes must panic, because the pinned hash
		// claims it did not.
		live := nw.Peers()
		var contact ident.ID
		for i, id := range live {
			if id == victim {
				contact = live[(i+1)%len(live)]
			}
		}
		joiner := victim + 1 // immediately clockwise of the victim
		if err := nw.Join(joiner, contact); err != nil {
			t.Fatal(err)
		}

		caught := ""
		func() {
			defer func() {
				if r := recover(); r != nil {
					caught, _ = r.(string)
				}
			}()
			for r := 0; r < 8000 && !nw.Quiescent(); r++ {
				nw.Step()
			}
		}()
		if caught == "" {
			t.Fatal("forced hash collision was not caught by ParanoidSettle")
		}
		if !strings.Contains(caught, "rechord:") {
			t.Fatalf("unexpected panic: %s", caught)
		}
	})
}

// TestWakeUnknownNoOp pins Wake's contract for identifiers that do not
// resolve: never present, or departed.
func TestWakeUnknownNoOp(t *testing.T) {
	nw, ids := stableNet(t, 8, 77)
	never := ident.ID(0xdeadbeefcafe)
	nw.Wake(never)
	if !nw.Quiescent() {
		t.Fatal("waking an unknown identifier dirtied the network")
	}
	departed := ids[3]
	if err := nw.Fail(departed); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4000 && !nw.Quiescent(); r++ {
		nw.Step()
	}
	if !nw.Quiescent() {
		t.Fatal("did not re-quiesce after failure")
	}
	nw.Wake(departed)
	if !nw.Quiescent() {
		t.Fatal("waking a departed identifier dirtied the network")
	}
	if got := nw.FrontierSize(); got != 0 {
		t.Fatalf("FrontierSize = %d after no-op wakes, want 0", got)
	}
}
