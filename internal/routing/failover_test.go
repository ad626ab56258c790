package routing

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/churn"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/rechord"
)

// TestFailoverFallsBackToWalk drives Failover through its fallback
// path: a crash left unrepaired strands table routes on fingers that
// name the departed peer. Every fallback must be flagged on the trace
// and answer exactly what the state walk answers; a stable network and
// a walk-only router must count none.
func TestFailoverFallsBackToWalk(t *testing.T) {
	const n, grid = 64, 512
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nw, ids, err := churn.StableNetwork(context.Background(), n, rng, rechord.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cached, walkOnly := NewFailover(nw, true), NewFailover(nw, false)
		walker := Walker{NW: nw}
		victim := ids[rng.Intn(n)]

		// lookups routes the key grid through f from every live home in
		// turn and checks each fallback against the walk.
		lookups := func(f *Failover) {
			live := nw.Peers()
			for i := 0; i < grid; i++ {
				key := ident.ID(uint64(i) * (^uint64(0) / grid))
				from := live[i%len(live)]
				tr := &obs.LookupTrace{}
				before := f.Fallbacks()
				owner, hops, err := f.ResolveTraced(from, key, tr)
				fell := f.Fallbacks() != before
				if fell != tr.Failover {
					t.Fatalf("seed %d, key %s: counted fallback %v, trace Failover %v", seed, key, fell, tr.Failover)
				}
				if !fell && f.Cache() != nil {
					continue
				}
				wOwner, wHops, wErr := walker.Resolve(from, key)
				if owner != wOwner || hops != wHops || (err == nil) != (wErr == nil) ||
					(err != nil && err.Error() != wErr.Error()) {
					t.Fatalf("seed %d, key %s: failover (%s, %d, %v), walk (%s, %d, %v)",
						seed, key, owner, hops, err, wOwner, wHops, wErr)
				}
			}
		}

		lookups(cached)
		if fb := cached.Fallbacks(); fb != 0 {
			t.Fatalf("seed %d: %d fallbacks on the stable network", seed, fb)
		}
		if err := nw.Fail(victim); err != nil {
			t.Fatal(err)
		}
		lookups(cached)
		lookups(walkOnly)
		if cached.Fallbacks() == 0 {
			t.Errorf("seed %d: no fallbacks after an unrepaired crash; the path went unexercised", seed)
		}
		if fb := walkOnly.Fallbacks(); fb != 0 {
			t.Errorf("seed %d: the walk-only router counted %d fallbacks", seed, fb)
		}
		t.Logf("seed %d: %d of %d lookups fell back after the crash", seed, cached.Fallbacks(), grid)
	}
}
