package rechord_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/topogen"
)

// The shared-flow engine claims storage-only status: pointing standing
// buckets at refcounted spans of the sender's flow template instead of
// deep-copying []Message must not change a single observable bit.
// These tests run the shared engine against a deep-copy twin — the same
// network with every standing bucket copied into private storage
// between steps (CopyBuckets, a test-only hook) — in lockstep under
// join/leave/fail/rejoin churn and compare the full global state —
// snapshots, fingerprints, in-flight counts, and (for the asynchronous
// scheduler) the event digest and RNG consumption — after every single
// round, across the synchronous, full-sweep, and asynchronous
// schedulers.

// flowChurnEvents builds a deterministic churn script that exercises
// join, graceful leave, crash failure, and a rejoin under a previously
// failed identifier.
func flowChurnEvents(seed int64) []lockstepEvent {
	rng := rand.New(rand.NewSource(seed ^ 0xf10e))
	evs := make([]lockstepEvent, 0, 6)
	rejoin := ident.ID(rng.Uint64() | 1)
	for i := 0; i < 4; i++ {
		evs = append(evs, lockstepEvent{
			round:   2 + i*9 + int(rng.Intn(4)),
			kind:    i % 3,
			fresh:   ident.ID(rng.Uint64() | 1),
			victim:  rng.Intn(64),
			contact: rng.Intn(64),
		})
	}
	// A fail followed by a rejoin of the same identifier: the stalest
	// standing-bucket path (handle generation bump plus AddPeer
	// rematerialization from live templates).
	evs = append(evs,
		lockstepEvent{round: 40, kind: 2, fresh: rejoin, victim: 1, contact: 1},
		lockstepEvent{round: 46, kind: 0, fresh: rejoin, contact: 0},
	)
	return evs
}

// runFlowLockstep steps the shared-storage engine and its deep-copy
// twin for `rounds` rounds under the event script and fails the test on
// the first observable divergence.
func runFlowLockstep(t *testing.T, name string, seed int64, n, rounds int, cfg rechord.Config, events []lockstepEvent) {
	t.Helper()
	build := func() *rechord.Network {
		rng := rand.New(rand.NewSource(seed))
		ids := topogen.RandomIDs(n, rng)
		return topogen.Random().Build(ids, rng, cfg)
	}
	shared, deep := build(), build()

	apply := func(nw *rechord.Network, ev lockstepEvent) error {
		peers := nw.Peers()
		switch {
		case ev.kind == 0 || len(peers) < 3:
			// A failing join (identifier still present) is fine as long
			// as it fails on both twins — membership is identical.
			_ = nw.Join(ev.fresh, peers[ev.contact%len(peers)])
			return nil
		case ev.kind == 1:
			return nw.Leave(peers[ev.victim%len(peers)])
		default:
			return nw.Fail(peers[ev.victim%len(peers)])
		}
	}

	for r := 0; r < rounds; r++ {
		for _, ev := range events {
			if ev.round != r {
				continue
			}
			if err := apply(shared, ev); err != nil {
				t.Fatalf("%s seed=%d round=%d: shared event: %v", name, seed, r, err)
			}
			if err := apply(deep, ev); err != nil {
				t.Fatalf("%s seed=%d round=%d: deep-copy event: %v", name, seed, r, err)
			}
		}
		rechord.CopyBuckets(deep)
		shared.Step()
		deep.Step()
		if sf, df := shared.StateFingerprint(nil), deep.StateFingerprint(nil); sf != df {
			t.Fatalf("%s seed=%d: fingerprint diverged at round %d: shared %x, deep-copy %x", name, seed, r+1, sf, df)
		}
		if !shared.TakeSnapshot().Equal(deep.TakeSnapshot()) {
			t.Fatalf("%s seed=%d: global state diverged at round %d", name, seed, r+1)
		}
		if si, di := shared.InFlight(), deep.InFlight(); si != di {
			t.Fatalf("%s seed=%d: in-flight diverged at round %d: shared %d, deep-copy %d", name, seed, r+1, si, di)
		}
	}
	if !shared.Graph().Equal(deep.Graph()) {
		t.Fatalf("%s seed=%d: Graph() diverged after %d rounds", name, seed, rounds)
	}
}

// TestFlowSharedMatchesDeepCopySync: the synchronous activity-tracked
// engine, serial and parallel, with the ParanoidSettle write
// barrier armed on the shared side of one variant.
func TestFlowSharedMatchesDeepCopySync(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  rechord.Config
	}{
		{"serial", rechord.Config{Workers: 1}},
		{"parallel", rechord.Config{Workers: 4}},
		{"paranoid", rechord.Config{Workers: 4, ParanoidSettle: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{1, 7, 1011} {
				runFlowLockstep(t, tc.name, seed, 12, 60, tc.cfg, flowChurnEvents(seed))
			}
		})
	}
}

// TestFlowSharedMatchesDeepCopyFullSweep: the exhaustive scheduler
// rewrites every bucket every round — the worst case for template
// generation turnover.
func TestFlowSharedMatchesDeepCopyFullSweep(t *testing.T) {
	for _, seed := range []int64{3, 501} {
		runFlowLockstep(t, "fullsweep", seed, 10, 50, rechord.Config{Workers: 2, FullSweep: true}, flowChurnEvents(seed))
	}
}

// TestFlowSharedMatchesDeepCopyAsync runs the event-driven scheduler on
// both storage modes with identical RNGs and compares state, event
// digest, and RNG consumption each step — the bucket representation
// must not influence a single coin flip or delay draw.
func TestFlowSharedMatchesDeepCopyAsync(t *testing.T) {
	for _, seed := range []int64{5, 99} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			build := func() (*rechord.Network, *rechord.AsyncRunner, *rand.Rand) {
				rng := rand.New(rand.NewSource(seed))
				ids := topogen.RandomIDs(10, rng)
				nw := topogen.Random().Build(ids, rng, rechord.Config{Workers: 2})
				arng := rand.New(rand.NewSource(seed ^ 0xa57))
				a := rechord.NewAsyncRunner(nw, rechord.AsyncConfig{ActivationProb: 0.7, MaxDelay: 3}, arng)
				return nw, a, arng
			}
			sharedNW, shared, sharedRNG := build()
			deepNW, deep, deepRNG := build()
			events := flowChurnEvents(seed)

			apply := func(nw *rechord.Network, ev lockstepEvent) {
				peers := nw.Peers()
				switch {
				case ev.kind == 0 || len(peers) < 3:
					_ = nw.Join(ev.fresh, peers[ev.contact%len(peers)])
				case ev.kind == 1:
					_ = nw.Leave(peers[ev.victim%len(peers)])
				default:
					_ = nw.Fail(peers[ev.victim%len(peers)])
				}
			}
			for s := 0; s < 220; s++ {
				for _, ev := range events {
					if ev.round*3 == s { // spread the script over async time
						apply(sharedNW, ev)
						apply(deepNW, ev)
					}
				}
				rechord.CopyBuckets(deepNW)
				shared.Step()
				deep.Step()
				if sf, df := sharedNW.StateFingerprint(nil), deepNW.StateFingerprint(nil); sf != df {
					t.Fatalf("fingerprint diverged at step %d: shared %x, deep-copy %x", s+1, sf, df)
				}
				if se, de := shared.EventFingerprint(), deep.EventFingerprint(); se != de {
					t.Fatalf("event digest diverged at step %d: shared %x, deep-copy %x", s+1, se, de)
				}
				if si, di := shared.InFlight(), deep.InFlight(); si != di {
					t.Fatalf("in-flight diverged at step %d: shared %d, deep-copy %d", s+1, si, di)
				}
			}
			if !sharedNW.TakeSnapshot().Equal(deepNW.TakeSnapshot()) {
				t.Fatal("global state diverged after the run")
			}
			// Identical RNG consumption: both runners must draw their
			// next random word from the same stream position.
			if sv, dv := sharedRNG.Uint64(), deepRNG.Uint64(); sv != dv {
				t.Fatalf("RNG consumption diverged: next draw %x (shared) vs %x (deep-copy)", sv, dv)
			}
		})
	}
}
