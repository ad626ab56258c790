package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/dht"
	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topogen"
)

const (
	// maxKeys bounds the keys a workload preloads.
	maxKeys = 16384
	// setupRepeats is how many times a run builds a workload's state,
	// so that setup_s is an average of several; even, so that both
	// CPUs of a 2-vCPU rotation build it equally often.
	setupRepeats = 4
)

// keyNames and valueNames are formatted once, so the measured loop
// formats nothing.
var (
	keyNames = func() []string {
		ks := make([]string, maxKeys)
		for i := range ks {
			ks[i] = "key-" + strconv.Itoa(i)
		}
		return ks
	}()
	valueNames = func() []string {
		vs := make([]string, 16)
		for i := range vs {
			vs[i] = "value-" + strconv.Itoa(i)
		}
		return vs
	}()
)

// failover is the cluster facade's resolver, rebuilt here so the
// benchmark can time each leg: the epoch-cached table router first,
// the state walk when a table is incomplete or stale mid-repair. The
// goroutine that runs the KV operations is the only one using it.
type failover struct {
	cache     *routing.Cache
	walk      routing.Walker
	tr        *tracer
	fallbacks int64
	// resolves and hops are counted in the traced pass only, to keep
	// the untraced path as lean as the facade's.
	resolves, hops int64
}

func (f *failover) Resolve(from, key ident.ID) (ident.ID, int, error) {
	t := f.tr.begin()
	owner, hops, err := f.cache.Resolve(from, key)
	f.tr.end(spResolve, t)
	if err != nil {
		f.fallbacks++
		t = f.tr.begin()
		owner, hops, err = f.walk.Resolve(from, key)
		f.tr.end(spWalk, t)
	}
	if f.tr != nil {
		f.resolves++
		f.hops += int64(hops)
	}
	return owner, hops, err
}

// kvState is a settled network with its routing cache and a store
// holding keys keyNames[:keys].
type kvState struct {
	keys  int
	nw    *rechord.Network
	ids   []ident.ID
	cache *routing.Cache
	res   *failover
	store *dht.Store
}

// buildKV makes a settled network of peers peers and preloads keys
// keys (each written as version 0, the shadow's zero value), timing the
// three set-up steps apart. It follows churn.StableNetwork's steps
// (oracle-seeded build, then settle to the fixed point) so the build
// and the settle can be timed separately; the oracle check runs
// outside the timings.
func buildKV(seed int64, peers, keys int, steps stepLog) (*kvState, error) {
	rng := rand.New(rand.NewSource(seed))
	t0 := time.Now()
	ids := topogen.RandomIDs(peers, rng)
	nw := topogen.PreStabilized().Build(ids, rng, rechord.Config{})
	t1 := time.Now()
	if _, err := sim.RunToStable(context.Background(), nw, sim.Options{MaxRounds: sim.DefaultMaxRounds(peers)}); err != nil {
		return nil, err
	}
	t2 := time.Now()
	st := &kvState{keys: keys, nw: nw, ids: ids, cache: routing.NewCache(nw)}
	st.res = &failover{cache: st.cache, walk: routing.Walker{NW: nw}}
	st.store = dht.NewWithResolver(nw, st.res)
	for k := range keyNames[:keys] {
		if _, _, err := st.store.Put(ids[k%len(ids)], keyNames[k], valueNames[0]); err != nil {
			return nil, fmt.Errorf("preload %s: %w", keyNames[k], err)
		}
	}
	t3 := time.Now()
	steps.add("build", t1.Sub(t0))
	steps.add("settle", t2.Sub(t1))
	steps.add("preload", t3.Sub(t2))
	steps.add("total", t3.Sub(t0))
	if err := rechord.ComputeIdeal(ids).Matches(nw); err != nil {
		return nil, fmt.Errorf("settled network is not the oracle topology: %w", err)
	}
	return st, nil
}

// Shadow entries: the version of the key's live value, or one of
// these.
const (
	absent = -1 // deleted; a Get must report not found
	exempt = -2 // held by a crashed peer; not checked
)

// kvClient is the benchmark's own KV client. It times each operation
// from issue to return, counts failures against operations attempted,
// and keeps a shadow of every key's expected value, so every answer is
// checked. dht wraps its errors, so they are classified with errors.Is.
type kvClient struct {
	store  *dht.Store
	tr     *tracer
	shadow []int32  // by key index
	lat    []uint32 // op latencies in ns since the caller last reset it

	attempted, failed, missed int64
	// wrong is the first answer that contradicts the shadow.
	wrong error
}

func newKVClient(st *kvState, latCap int) *kvClient {
	return &kvClient{store: st.store, shadow: make([]int32, st.keys), lat: make([]uint32, 0, latCap)}
}

func (c *kvClient) record(t0 time.Time) { c.lat = append(c.lat, latency(time.Since(t0))) }

func (c *kvClient) get(home ident.ID, k int) {
	t0 := time.Now()
	ts := c.tr.begin()
	v, _, err := c.store.Get(home, keyNames[k])
	c.tr.end(spKV, ts)
	c.record(t0)
	c.attempted++
	want := c.shadow[k]
	switch {
	case err == nil:
		if want == exempt {
			return
		}
		if want == absent || v != valueNames[want] {
			c.setWrong(fmt.Errorf("get %s = %q, want version %d", keyNames[k], v, want))
		}
	case errors.Is(err, dht.ErrNotFound):
		if want >= 0 {
			c.missed++
		}
	default:
		c.failed++ // a routing or unknown-peer error
	}
}

func (c *kvClient) put(home ident.ID, k int) {
	ver := int32(0)
	if cur := c.shadow[k]; cur >= 0 {
		ver = (cur + 1) % int32(len(valueNames))
	}
	t0 := time.Now()
	ts := c.tr.begin()
	_, _, err := c.store.Put(home, keyNames[k], valueNames[ver])
	c.tr.end(spKV, ts)
	c.record(t0)
	c.attempted++
	if err != nil {
		c.failed++
		return
	}
	c.shadow[k] = ver
}

func (c *kvClient) del(home ident.ID, k int) {
	t0 := time.Now()
	ts := c.tr.begin()
	existed, _, err := c.store.Delete(home, keyNames[k])
	c.tr.end(spKV, ts)
	c.record(t0)
	c.attempted++
	if err != nil {
		c.failed++
		return
	}
	if existed != (c.shadow[k] >= 0) {
		c.setWrong(fmt.Errorf("delete %s reported existed=%v, shadow version %d", keyNames[k], existed, c.shadow[k]))
	}
	c.shadow[k] = absent
}

func (c *kvClient) setWrong(err error) {
	if c.wrong == nil {
		c.wrong = err
	}
}

// readBack checks, outside any timing, that every key reads back as
// its shadow says.
func (c *kvClient) readBack(homes []ident.ID) error {
	for k := range c.shadow {
		if c.shadow[k] == exempt {
			continue
		}
		v, _, err := c.store.Get(homes[k%len(homes)], keyNames[k])
		switch {
		case c.shadow[k] == absent:
			if !errors.Is(err, dht.ErrNotFound) {
				return fmt.Errorf("deleted key %s: got %q, %v", keyNames[k], v, err)
			}
		case err != nil:
			return fmt.Errorf("live key %s: %w", keyNames[k], err)
		case v != valueNames[c.shadow[k]]:
			return fmt.Errorf("live key %s = %q, want %q", keyNames[k], v, valueNames[c.shadow[k]])
		}
	}
	return nil
}
