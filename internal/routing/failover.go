package routing

import (
	"sync/atomic"

	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/rechord"
)

// Failover is the serving-path router: table routing through the
// epoch cache, falling back to the state walk when a table is
// incomplete or stale mid-repair. Table routing is the fast path; the
// walk is the one that tolerates partially repaired state. Without a
// cache every lookup walks, and no fallback is ever counted.
//
// Failover is safe for concurrent use under the Cache's contract:
// lookups must be serialized externally against network mutation.
type Failover struct {
	cache     *Cache // nil: walk only
	walk      Walker
	fallbacks atomic.Int64
}

// NewFailover returns the router over the network, with a fresh
// epoch cache when cached is set and walk-only otherwise.
func NewFailover(nw *rechord.Network, cached bool) *Failover {
	f := &Failover{walk: Walker{NW: nw}}
	if cached {
		f.cache = NewCache(nw)
	}
	return f
}

// Resolve routes from the home peer to the key's owner, returning the
// number of inter-peer hops of the route that answered.
func (f *Failover) Resolve(from, key ident.ID) (ident.ID, int, error) {
	return f.ResolveTraced(from, key, nil)
}

// ResolveTraced is Resolve with a per-lookup trace. A table route that
// fails sets tr.Failover; the trace keeps the failed attempt's cache
// attribution, and its path is the walk's. A nil trace is the
// untraced fast path.
func (f *Failover) ResolveTraced(from, key ident.ID, tr *obs.LookupTrace) (ident.ID, int, error) {
	if f.cache != nil {
		owner, hops, err := f.cache.RouteTraced(from, key, tr)
		if err == nil {
			return owner, hops, nil
		}
		f.fallbacks.Add(1)
		if tr != nil {
			tr.Failover, tr.Err = true, ""
		}
	}
	return f.walk.ResolveTraced(from, key, tr)
}

// Cache returns the epoch cache, or nil for a walk-only router.
func (f *Failover) Cache() *Cache { return f.cache }

// Fallbacks returns how many table routes failed over to the walk
// since creation.
func (f *Failover) Fallbacks() int64 { return f.fallbacks.Load() }

// Prune drops cached tables of departed or changed peers (see
// Cache.Prune); a walk-only router has nothing to prune.
func (f *Failover) Prune() {
	if f.cache != nil {
		f.cache.Prune()
	}
}
