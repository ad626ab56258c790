package rechord_test

import (
	"math/rand"
	"testing"

	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/topogen"
)

// Golden pins: fixed seeds, fixed churn scripts, and the exact
// outcomes the engine produced for them, recorded as constants. They
// pin more than the lockstep suites do — those compare two
// configurations of the current engine with each other, these compare
// the current engine with its own past — so any change to the barrier
// that alters a single round's state, a single RNG draw or a single
// event shows up here. A deliberate semantic change must re-record
// them and say why.

// chainFP folds one per-round fingerprint into a running hash chain, so
// a single constant covers the state after every round, not only the
// last one.
func chainFP(h, fp uint64) uint64 {
	h ^= fp
	h *= 0x100000001b3
	return h ^ h>>29
}

// goldenChurn is the membership script every golden run applies: a
// join, a graceful leave, a crash failure, and a rejoin of the crashed
// identifier, at fixed times.
type goldenOp struct {
	at     int
	kind   int // 0 join, 1 leave, 2 fail, 3 rejoin the last failed peer
	victim int // index into the peer list at op time
}

var goldenChurn = []goldenOp{
	{at: 3, kind: 0, victim: 2},
	{at: 9, kind: 1, victim: 5},
	{at: 14, kind: 2, victim: 1},
	{at: 22, kind: 3, victim: 0},
}

// applyGolden applies the ops due at time `at`; failed records the last
// crashed identifier for the rejoin.
func applyGolden(t *testing.T, nw *rechord.Network, at int, seed int64, failed *ident.ID) {
	t.Helper()
	for _, op := range goldenChurn {
		if op.at != at {
			continue
		}
		peers := nw.Peers()
		var err error
		switch op.kind {
		case 0:
			err = nw.Join(ident.ID(uint64(seed)*0x9E3779B97F4A7C15|1), peers[op.victim%len(peers)])
		case 1:
			err = nw.Leave(peers[op.victim%len(peers)])
		case 2:
			*failed = peers[op.victim%len(peers)]
			err = nw.Fail(*failed)
		case 3:
			err = nw.Join(*failed, peers[op.victim%len(peers)])
		}
		if err != nil {
			t.Fatalf("seed %d: op at %d: %v", seed, at, err)
		}
	}
}

const goldenLastOp = 22

type syncGolden struct {
	seed   int64
	rounds int
	chain  uint64
}

// TestGoldenSyncMonolith pins the synchronous engine: rounds to
// quiescence and the chain of per-round StateFingerprint(nil), at one
// worker and at four.
func TestGoldenSyncMonolith(t *testing.T) {
	want := []syncGolden{
		{seed: 1, rounds: 37, chain: 0x3b514d47f14da361},
		{seed: 2, rounds: 35, chain: 0x65eb3004f13515da},
		{seed: 3, rounds: 35, chain: 0x2d80a86d1296fdd5},
	}
	for _, workers := range []int{1, 4} {
		for _, w := range want {
			rng := rand.New(rand.NewSource(w.seed))
			ids := topogen.RandomIDs(24, rng)
			nw := topogen.Random().Build(ids, rng, rechord.Config{Workers: workers})
			var failed ident.ID
			var h uint64
			for r := 0; r < 5000; r++ {
				applyGolden(t, nw, r, w.seed, &failed)
				nw.Step()
				h = chainFP(h, nw.StateFingerprint(nil))
				if r >= goldenLastOp && nw.Quiescent() {
					break
				}
			}
			if got := (syncGolden{seed: w.seed, rounds: nw.Round(), chain: h}); got != w {
				t.Errorf("workers=%d: got {seed: %d, rounds: %d, chain: %#x}, want %+v", workers, got.seed, got.rounds, got.chain, w)
			}
		}
	}
}

type asyncGolden struct {
	seed   int64
	steps  int
	events uint64
	chain  uint64
}

// TestGoldenAsyncRunner pins the asynchronous runner (activation
// probability 0.5, delays up to 3, churn): steps to quiescence, the
// event fingerprint, and the chain of per-step state fingerprints. The
// RNG stream is part of what is pinned — one extra or missing draw
// reorders every later event.
func TestGoldenAsyncRunner(t *testing.T) {
	want := []asyncGolden{
		{seed: 11, steps: 70, events: 0x76dee9ace200f14, chain: 0x3c84bc42b54d768d},
		{seed: 12, steps: 73, events: 0x5e09c564ca13d800, chain: 0x1a08f98441c0def5},
		{seed: 13, steps: 73, events: 0x6f3ac1cf78972bb3, chain: 0x4c94cf9222673a40},
	}
	for _, workers := range []int{1, 4} {
		for _, w := range want {
			rng := rand.New(rand.NewSource(w.seed))
			ids := topogen.RandomIDs(24, rng)
			nw := topogen.Random().Build(ids, rng, rechord.Config{Workers: workers})
			a := rechord.NewAsyncRunner(nw, rechord.AsyncConfig{ActivationProb: 0.5, MaxDelay: 3}, rand.New(rand.NewSource(w.seed+1000)))
			var failed ident.ID
			var h uint64
			for s := 0; s < 20000; s++ {
				applyGolden(t, nw, s, w.seed, &failed)
				a.Step()
				h = chainFP(h, nw.StateFingerprint(nil))
				if s >= goldenLastOp && a.Quiescent() {
					break
				}
			}
			got := asyncGolden{seed: w.seed, steps: a.Steps(), events: a.EventFingerprint(), chain: h}
			if got != w {
				t.Errorf("workers=%d: got {seed: %d, steps: %d, events: %#x, chain: %#x}, want %+v", workers, got.seed, got.steps, got.events, got.chain, w)
			}
		}
	}
}
