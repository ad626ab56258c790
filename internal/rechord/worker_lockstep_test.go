package rechord_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/topogen"
)

// The barrier (barrier.go) claims exact worker-count independence:
// Workers=1 and Workers=N must produce identical global state at every
// round boundary, under any churn, in every scheduler. These tests run
// the two configurations in lockstep — with ParanoidSettle on, so the
// clone cross-check and the wake-set equivalence check are armed — and
// compare snapshots and state fingerprints at phase-3 granularity
// (after every single Step), not just at quiescence.

// wlEvent is one membership change applied to both worker
// configurations at the same round. kind 3 is a REJOIN: a previously
// departed identifier comes back, which exercises AddPeer's standing-
// flow re-materialization against the parallel prepare's diffs.
type wlEvent struct {
	round  int
	kind   int // 0 join, 1 leave, 2 fail, 3 rejoin
	fresh  ident.ID
	victim int
}

func runWorkersLockstep(t *testing.T, seed int64, n int, gen topogen.Generator, mode string, rounds int, events []wlEvent) bool {
	t.Helper()
	build := func(workers int) *rechord.Network {
		rng := rand.New(rand.NewSource(seed))
		ids := topogen.RandomIDs(n, rng)
		cfg := rechord.Config{Workers: workers, ParanoidSettle: true, FullSweep: mode == "fullsweep"}
		return gen.Build(ids, rng, cfg)
	}
	serial, sharded := build(1), build(8)
	var aSerial, aSharded *rechord.AsyncRunner
	if mode == "async" {
		acfg := rechord.AsyncConfig{ActivationProb: 0.5, MaxDelay: 3}
		aSerial = rechord.NewAsyncRunner(serial, acfg, rand.New(rand.NewSource(seed+99)))
		aSharded = rechord.NewAsyncRunner(sharded, acfg, rand.New(rand.NewSource(seed+99)))
	}

	// The two networks hold identical peer sets by induction, so one
	// departed list serves both sides.
	var departed []ident.ID
	apply := func(nw *rechord.Network, ev wlEvent, record bool) error {
		peers := nw.Peers()
		switch {
		case ev.kind == 0 || len(peers) < 3:
			return nw.Join(ev.fresh, peers[ev.victim%len(peers)])
		case ev.kind == 3 && len(departed) > 0:
			back := departed[ev.victim%len(departed)]
			if record {
				i := ev.victim % len(departed)
				departed = append(departed[:i], departed[i+1:]...)
			}
			return nw.Join(back, peers[ev.victim%len(peers)])
		default:
			victim := peers[ev.victim%len(peers)]
			if record {
				departed = append(departed, victim)
			}
			if ev.kind == 1 || ev.kind == 3 {
				return nw.Leave(victim)
			}
			return nw.Fail(victim)
		}
	}

	for r := 0; r < rounds; r++ {
		for _, ev := range events {
			if ev.round != r {
				continue
			}
			if err := apply(sharded, ev, false); err != nil {
				t.Logf("seed=%d round=%d: sharded event: %v", seed, r, err)
				return false
			}
			if err := apply(serial, ev, true); err != nil {
				t.Logf("seed=%d round=%d: serial event: %v", seed, r, err)
				return false
			}
		}
		if mode == "async" {
			aSerial.Step()
			aSharded.Step()
		} else {
			serial.Step()
			sharded.Step()
		}
		if fa, fb := serial.StateFingerprint(nil), sharded.StateFingerprint(nil); fa != fb {
			t.Logf("seed=%d n=%d gen=%s mode=%s: fingerprint diverged at round %d: %x vs %x",
				seed, n, gen.Name, mode, r+1, fa, fb)
			return false
		}
		if !serial.TakeSnapshot().Equal(sharded.TakeSnapshot()) {
			t.Logf("seed=%d n=%d gen=%s mode=%s: global state diverged at round %d (frontier=%d)",
				seed, n, gen.Name, mode, r+1, serial.FrontierSize())
			return false
		}
	}
	if serial.LastChangeRound() != sharded.LastChangeRound() {
		t.Logf("seed=%d mode=%s: last-change round %d (serial) vs %d (sharded)",
			seed, mode, serial.LastChangeRound(), sharded.LastChangeRound())
		return false
	}
	if !serial.Graph().Equal(sharded.Graph()) || !serial.ReChordGraph().Equal(sharded.ReChordGraph()) {
		t.Logf("seed=%d n=%d gen=%s mode=%s: graph exports diverged", seed, n, gen.Name, mode)
		return false
	}
	if mode == "async" && aSerial.EventFingerprint() != aSharded.EventFingerprint() {
		t.Logf("seed=%d: async event fingerprint diverged: %x vs %x — the parallel barrier consumed RNG",
			seed, aSerial.EventFingerprint(), aSharded.EventFingerprint())
		return false
	}
	return true
}

// TestWorkersLockstepChurn is the worker-count equivalence property
// under join/leave/fail/rejoin churn, for the synchronous engine, the
// asynchronous adversary (whose RNG consumption must be byte-identical
// across worker counts) and the FullSweep baseline.
func TestWorkersLockstepChurn(t *testing.T) {
	gens := []topogen.Generator{topogen.Random(), topogen.Garbage(), topogen.PreStabilized()}
	for _, mode := range []string{"sync", "async", "fullsweep"} {
		t.Run(mode, func(t *testing.T) {
			f := func(seed int64, sizeRaw, genRaw uint8, evRaw [5]uint8) bool {
				n := 4 + int(sizeRaw)%12
				gen := gens[int(genRaw)%len(gens)]
				rng := rand.New(rand.NewSource(seed ^ 0x713c))
				events := make([]wlEvent, 0, len(evRaw))
				for i, raw := range evRaw {
					events = append(events, wlEvent{
						round:  2 + i*9 + int(raw)%4,
						kind:   int(raw) % 4,
						fresh:  ident.ID(rng.Uint64() | 1),
						victim: rng.Intn(64),
					})
				}
				rounds := 60
				if mode == "async" {
					rounds = 90 // activation prob 0.5 stretches convergence
				}
				return runWorkersLockstep(t, seed, n, gen, mode, rounds, events)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
				t.Error(err)
			}
		})
	}
}
