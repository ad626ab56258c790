// Package workload is the serving layer of the reproduction: an
// open/closed-loop traffic generator that fires concurrent Get/Put/
// Delete operations at a live Re-Chord network from a pool of client
// workers, with pluggable key distributions (uniform, Zipf, shifting
// hotspot), deterministic per-worker RNG seeding, and optional churn
// interleaved with the traffic so lookups race against
// re-stabilization — the regime the self-stabilization protocol exists
// for (Theorem 1.1's "faithfully emulate any applications on top of
// Chord", under the churn of Section 4).
//
// The hot path is built on the two layers refactored for it: the
// sharded dht.Store (per-peer buckets behind fine-grained locks) and
// the epoch-cached routing.Cache (tables invalidated by peer change
// epochs instead of rebuilt per lookup). Per-op latency and hop counts
// are recorded into per-worker stats.Histogram shards and merged after
// the run, so the measurement itself adds no cross-worker contention.
//
// Concurrency model: client workers only read the network (routing)
// and share the store's shard locks; the churn driver is the only
// network mutator. A single RWMutex serializes the two — workers hold
// the read side per operation, the driver takes the write side to
// apply a membership event or step the protocol a few rounds, then
// releases it so lookups interleave with a network that is mid-repair.
package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/churn"
	"repro/internal/dht"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/rechord"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ErrConfig reports an invalid Config, distinguishable with errors.Is
// from runtime failures (routing errors, empty network) so callers can
// keep configuration mistakes and serving faults in separate buckets.
var ErrConfig = errors.New("workload: invalid configuration")

// ChurnConfig interleaves membership events with the traffic.
type ChurnConfig struct {
	// Events is the number of membership events (random mix of join,
	// leave, fail) applied during the run; 0 disables churn.
	Events int
	// EveryOps is how many completed operations separate consecutive
	// events (default: spread evenly across the run).
	EveryOps int
	// StepChunk is how many protocol rounds the driver executes per
	// write-lock acquisition while the network re-stabilizes; smaller
	// chunks give lookups more interleavings with mid-repair state
	// (default 4).
	StepChunk int
	// OnApply, when non-nil, is called after each membership event is
	// successfully applied (from the churn-driver goroutine, no locks
	// held). The cluster facade uses it to publish lifecycle events.
	OnApply func(ev churn.Event)
	// OnSettle, when non-nil, is called after the network re-stabilizes
	// following an applied event, with the number of protocol rounds
	// the repair took (from the churn-driver goroutine, no locks held).
	OnSettle func(rounds int)
}

// Config parameterizes one workload run.
type Config struct {
	// Workers is the number of concurrent client workers (default 4).
	Workers int
	// Ops is the total operation count, split across workers.
	Ops int
	// Duration, when positive, replaces Ops as the stop condition:
	// workers run until the deadline. Duration runs are not
	// reproducible op-for-op (the count depends on timing).
	Duration time.Duration
	// Keyspace is the number of distinct keys (default 4096; must be
	// at least Workers).
	Keyspace int
	// Distribution is uniform, zipf or hotspot (default uniform).
	Distribution string
	// ZipfS, ZipfV parameterize the zipf distribution (default 1.2, 1).
	ZipfS, ZipfV float64
	// HotFraction, HotKeys, HotShiftEvery parameterize the shifting
	// hotspot (defaults 0.9, Keyspace/64, 1000 ops).
	HotFraction   float64
	HotKeys       int
	HotShiftEvery int
	// GetFrac, PutFrac, DeleteFrac is the op mix (default .80/.15/.05;
	// must sum to ~1).
	GetFrac, PutFrac, DeleteFrac float64
	// Preload stores this many keys before the measured run.
	Preload int
	// Seed drives every random choice. Same seed + same config =>
	// identical per-worker op sequences and identical final store
	// contents (writes are owner-partitioned per worker, see below).
	Seed int64
	// Rate, when positive, paces the run as an open loop targeting
	// this many ops/sec across all workers; 0 is a closed loop (each
	// worker fires its next op as soon as the previous returns).
	Rate float64
	// NoCache disables the epoch-cached table router and routes every
	// operation through the state-walk router (the baseline the cache
	// is measured against).
	NoCache bool
	// Churn interleaves membership events with the traffic.
	Churn ChurnConfig
	// Cache, when non-nil (and NoCache unset), is the router cache to
	// serve table lookups from instead of a fresh per-run one — the
	// cluster facade injects its long-lived cache so hit/miss/
	// invalidation telemetry spans the cache's whole life while the
	// run's report stays a per-run delta.
	Cache *routing.Cache
	// Obs, when non-nil, receives live serving-path telemetry during
	// the run (in-flight gauge, error taxonomy, sharded latency/hop
	// histograms) in addition to the per-run Result. It must have at
	// least numOps op slots, in OpGet/OpPut/OpDelete order; the
	// cluster facade passes one long-lived set so metrics accumulate
	// across runs and can be snapshotted mid-run without locks.
	Obs *obs.WorkloadMetrics
}

// withDefaults validates and fills in defaults.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Keyspace <= 0 {
		cfg.Keyspace = 4096
	}
	if cfg.Keyspace < cfg.Workers {
		return cfg, fmt.Errorf("%w: keyspace %d smaller than %d workers", ErrConfig, cfg.Keyspace, cfg.Workers)
	}
	if cfg.Ops <= 0 && cfg.Duration <= 0 {
		return cfg, fmt.Errorf("%w: need Ops or Duration", ErrConfig)
	}
	if cfg.GetFrac == 0 && cfg.PutFrac == 0 && cfg.DeleteFrac == 0 {
		cfg.GetFrac, cfg.PutFrac, cfg.DeleteFrac = 0.80, 0.15, 0.05
	}
	sum := cfg.GetFrac + cfg.PutFrac + cfg.DeleteFrac
	if sum < 0.999 || sum > 1.001 {
		return cfg, fmt.Errorf("%w: op mix %.3f+%.3f+%.3f does not sum to 1",
			ErrConfig, cfg.GetFrac, cfg.PutFrac, cfg.DeleteFrac)
	}
	if _, err := newKeyGen(cfg, rand.New(rand.NewSource(0))); err != nil {
		return cfg, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if cfg.Churn.Events > 0 {
		if cfg.Churn.EveryOps <= 0 {
			if cfg.Ops <= 0 {
				// Duration mode has no op total to spread events over;
				// a derived default would fire them all at the start.
				return cfg, fmt.Errorf("%w: Duration mode with churn requires Churn.EveryOps", ErrConfig)
			}
			every := cfg.Ops / (cfg.Churn.Events + 1)
			if every < 1 {
				every = 1
			}
			cfg.Churn.EveryOps = every
		}
		if cfg.Churn.StepChunk <= 0 {
			cfg.Churn.StepChunk = 4
		}
	}
	return cfg, nil
}

// Op kinds, indexing Result.PerOp.
const (
	OpGet = iota
	OpPut
	OpDelete
	numOps
)

var opNames = [numOps]string{"get", "put", "delete"}

// OpStats is the telemetry of one operation kind.
type OpStats struct {
	Name    string
	Count   int
	Errors  int
	Latency *stats.Histogram // nanoseconds
	Hops    *stats.Histogram // inter-peer hops
}

// Result is the merged telemetry of a run.
type Result struct {
	Ops        int           // operations completed
	Errors     int           // routing failures surfaced to clients
	NotFound   int           // Gets that reached the owner but missed
	Fallbacks  int           // table-route failures recovered by the state walk
	Elapsed    time.Duration // wall-clock of the measured phase
	Throughput float64       // ops per second

	Latency *stats.Histogram // all ops, nanoseconds
	Hops    *stats.Histogram // all ops, inter-peer hops
	PerOp   [numOps]OpStats

	CacheHits, CacheMisses uint64 // routing.Cache counters (0 with NoCache)
	ChurnApplied           int    // membership events actually applied

	// OpsFingerprint hashes every worker's (kind, key) op sequence,
	// combined order-insensitively across workers; StoreFingerprint
	// hashes the final key -> value contents independent of bucket
	// placement. Same seed + config reproduce both (StoreFingerprint
	// additionally requires a churn-free run, since a mid-churn routing
	// failure can drop a write).
	OpsFingerprint   uint64
	StoreFingerprint uint64
	StoreLen         int
}

// Summary renders the headline numbers as one line.
func (r *Result) Summary() string {
	return fmt.Sprintf("%d ops in %v (%.0f ops/s), lat p50=%s p99=%s p99.9=%s, hops mean=%.2f p99=%.0f, errors=%d notfound=%d fallbacks=%d",
		r.Ops, r.Elapsed.Round(time.Millisecond), r.Throughput,
		time.Duration(r.Latency.Percentile(50)), time.Duration(r.Latency.Percentile(99)),
		time.Duration(r.Latency.Percentile(99.9)),
		r.Hops.Mean(), r.Hops.Percentile(99), r.Errors, r.NotFound, r.Fallbacks)
}

// failoverResolver routes through the epoch-cached table router and
// falls back to the state-walk router when a table is incomplete or
// stale mid-churn — table routing is the fast path, the walk is the
// one that tolerates partially repaired state.
type failoverResolver struct {
	cache     *routing.Cache
	walk      routing.Walker
	fallbacks *atomic.Int64
}

func (r failoverResolver) Resolve(from, key ident.ID) (ident.ID, int, error) {
	if owner, hops, err := r.cache.Resolve(from, key); err == nil {
		return owner, hops, nil
	}
	r.fallbacks.Add(1)
	return r.walk.Resolve(from, key)
}

// workerResult is one worker's private telemetry shard; merged after
// the run so the hot path shares nothing.
type workerResult struct {
	lat, hops stats.Histogram
	perLat    [numOps]stats.Histogram
	perHops   [numOps]stats.Histogram
	count     [numOps]int
	errs      [numOps]int
	notFound  int
	ops       int
	opsHash   uint64
}

// opStall, when set (by tests, before Run), runs inside every op's
// timed section: the injection point for a slow operation.
var opStall func(w, i int)

type engine struct {
	sched rechord.Scheduler
	nw    *rechord.Network
	cfg   Config
	store *dht.Store
	cache *routing.Cache

	// netMu serializes network mutation (churn driver, write side)
	// against routing reads (workers, read side).
	netMu sync.RWMutex

	opsDone   atomic.Int64
	fallbacks atomic.Int64
	deadline  time.Time

	// Cache counters at run start, so the result reports a per-run
	// delta even over an injected long-lived cache.
	cacheHits0, cacheMisses0 uint64
}

// Run drives the workload against the scheduler's network and returns
// the merged telemetry. Passing the network itself serves traffic
// under the synchronous round engine; passing a rechord.AsyncRunner
// serves the same traffic while re-stabilization proceeds under the
// asynchronous adversary — lookups then race genuinely stale state
// mid-repair, delayed messages and all. The network must currently be
// stable; it is returned re-stabilized (the churn driver runs every
// event to quiescence before the run ends).
//
// Cancellation is honored end to end: workers stop before their next
// operation, and the churn driver stops both its event waiting and its
// re-stabilization stepping. A canceled Run returns the telemetry
// gathered so far together with ctx.Err(); the network is left at a
// step barrier, consistent and steppable (possibly mid-repair — run
// sim.Run on the same scheduler to finish the re-stabilization).
func Run(ctx context.Context, sched rechord.Scheduler, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nw := sched.Network()
	e := &engine{sched: sched, nw: nw, cfg: cfg}

	var resolver dht.Resolver
	var hits0, misses0 uint64
	if cfg.NoCache {
		resolver = routing.Walker{NW: nw}
	} else {
		e.cache = cfg.Cache
		if e.cache == nil {
			e.cache = routing.NewCache(nw)
		}
		// The caller may hand in a long-lived, pre-warmed cache; the
		// run's report stays a per-run delta either way.
		hits0, misses0 = e.cache.Stats()
		resolver = failoverResolver{cache: e.cache, walk: routing.Walker{NW: nw}, fallbacks: &e.fallbacks}
	}
	e.cacheHits0, e.cacheMisses0 = hits0, misses0
	e.store = dht.NewWithResolver(nw, resolver)

	homes := nw.Peers()
	if len(homes) == 0 {
		return nil, fmt.Errorf("workload: empty network")
	}

	// Preload, unmeasured: key i gets a deterministic seed value. Its
	// later fate is deterministic too, because only the worker owning
	// i's residue class ever writes it.
	for i := 0; i < cfg.Preload && i < cfg.Keyspace; i++ {
		if _, _, err := e.store.Put(homes[i%len(homes)], keyName(i), fmt.Sprintf("seed#%d", i)); err != nil {
			return nil, fmt.Errorf("workload: preload: %w", err)
		}
	}

	// Pre-generate the churn sequence from the pre-run membership so
	// the event list itself is seed-deterministic.
	var events []churn.Event
	if cfg.Churn.Events > 0 {
		events = churn.RandomEvents(nw, cfg.Churn.Events, rand.New(rand.NewSource(cfg.Seed^0x5DEECE66D)))
	}

	results := make([]workerResult, cfg.Workers)
	start := time.Now()
	if cfg.Duration > 0 {
		e.deadline = start.Add(cfg.Duration)
	}

	workersDone := make(chan struct{})
	churnDone := make(chan int, 1)
	go func() {
		churnDone <- e.churnDriver(ctx, events, workersDone)
	}()

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e.worker(ctx, w, homes, start, &results[w])
		}(w)
	}
	wg.Wait()
	close(workersDone)
	applied := <-churnDone
	elapsed := time.Since(start)

	// Merge the shards.
	res := &Result{
		Elapsed:      elapsed,
		ChurnApplied: applied,
		Fallbacks:    int(e.fallbacks.Load()),
		Latency:      &stats.Histogram{},
		Hops:         &stats.Histogram{},
	}
	for k := 0; k < numOps; k++ {
		res.PerOp[k] = OpStats{Name: opNames[k], Latency: &stats.Histogram{}, Hops: &stats.Histogram{}}
	}
	for w := range results {
		r := &results[w]
		res.Ops += r.ops
		res.NotFound += r.notFound
		res.Latency.Merge(&r.lat)
		res.Hops.Merge(&r.hops)
		for k := 0; k < numOps; k++ {
			res.PerOp[k].Count += r.count[k]
			res.PerOp[k].Errors += r.errs[k]
			res.Errors += r.errs[k]
			res.PerOp[k].Latency.Merge(&r.perLat[k])
			res.PerOp[k].Hops.Merge(&r.perHops[k])
		}
		res.OpsFingerprint ^= mix64(r.opsHash + uint64(w)*0x9E3779B97F4A7C15)
	}
	if elapsed > 0 {
		res.Throughput = float64(res.Ops) / elapsed.Seconds()
	}
	if e.cache != nil {
		hits, misses := e.cache.Stats()
		res.CacheHits, res.CacheMisses = hits-e.cacheHits0, misses-e.cacheMisses0
	}
	res.StoreFingerprint = e.store.Fingerprint()
	res.StoreLen = e.store.Len()
	return res, ctx.Err()
}

// worker runs one client: a deterministic op stream (seeded RNG per
// worker) executed against the store under the network read lock. It
// returns early when the context is done.
func (e *engine) worker(ctx context.Context, w int, homes []ident.ID, start time.Time, out *workerResult) {
	cfg := e.cfg
	rng := rand.New(rand.NewSource(cfg.Seed + int64(w+1)*int64(0x9E3779B97F4A7C15>>1)))
	// The distribution was validated by withDefaults, so this cannot
	// fail.
	gen, _ := newKeyGen(cfg, rng)
	n := opsFor(cfg, w)
	var interval time.Duration
	if cfg.Rate > 0 {
		interval = time.Duration(float64(cfg.Workers) / cfg.Rate * float64(time.Second))
	}
	for i := 0; cfg.Duration > 0 || i < n; i++ {
		if ctx.Err() != nil {
			return
		}
		if cfg.Duration > 0 && time.Now().After(e.deadline) {
			return
		}
		var release time.Time
		if interval > 0 {
			// Open loop: release op i at its scheduled time, measuring
			// the latency the op would impose on an arrival process
			// rather than the worker's own completion pace. The pacing
			// sleep stays interruptible so cancellation is not delayed
			// by a slow target rate.
			release = start.Add(time.Duration(i) * interval)
			if !sleepCtx(ctx, time.Until(release)) {
				return
			}
		}
		kind := pickOp(rng, cfg)
		idx := gen.next(i)
		if kind != OpGet {
			idx = writeSlot(idx, w, cfg)
		}
		key := keyName(idx)
		out.opsHash = fnvMix(out.opsHash, kind, idx)
		hi := rng.Intn(len(homes))

		if cfg.Obs != nil {
			cfg.Obs.InFlight.Add(1)
		}
		// An open-loop op's clock starts at its scheduled release, not
		// when the worker gets to it: ops queued behind a slow one carry
		// the wait in their latency, as the arrivals they model would.
		t0 := time.Now()
		if interval > 0 {
			t0 = release
		}
		e.netMu.RLock()
		if opStall != nil {
			opStall(w, i)
		}
		home := e.aliveHome(homes, hi)
		var hops int
		var opErr error
		switch kind {
		case OpGet:
			_, hops, opErr = e.store.Get(home, key)
		case OpPut:
			_, hops, opErr = e.store.Put(home, key, fmt.Sprintf("w%d#%d", w, i))
		case OpDelete:
			_, hops, opErr = e.store.Delete(home, key)
		}
		e.netMu.RUnlock()
		lat := float64(time.Since(t0).Nanoseconds())
		if cfg.Obs != nil {
			cfg.Obs.InFlight.Add(-1)
		}

		out.ops++
		out.count[kind]++
		out.lat.Observe(lat)
		out.perLat[kind].Observe(lat)
		routed := opErr == nil || errorsIsNotFound(opErr)
		switch {
		case opErr == nil:
			out.hops.Observe(float64(hops))
			out.perHops[kind].Observe(float64(hops))
		case errorsIsNotFound(opErr):
			out.notFound++
			out.hops.Observe(float64(hops))
			out.perHops[kind].Observe(float64(hops))
		default:
			out.errs[kind]++
		}
		if cfg.Obs != nil {
			e.observeOp(w, kind, lat, hops, routed, opErr)
		}
		e.opsDone.Add(1)
	}
}

// observeOp mirrors one completed op into the live metrics set. It
// observes into worker-sharded histograms, so concurrent workers never
// contend, and routed ops (including not-found, which resolved an
// owner) contribute their hop count while routing failures feed the
// error taxonomy instead.
func (e *engine) observeOp(w, kind int, lat float64, hops int, routed bool, opErr error) {
	m := e.cfg.Obs
	m.Ops.Inc()
	m.LatencyNS.Observe(w, lat)
	op := m.Op(kind)
	op.Ops.Inc()
	op.LatencyNS.Observe(w, lat)
	if routed {
		m.Hops.Observe(w, float64(hops))
		op.Hops.Observe(w, float64(hops))
	}
	switch {
	case opErr == nil:
	case errorsIsNotFound(opErr):
		m.NotFound.Inc()
	case errors.Is(opErr, dht.ErrUnknownPeer):
		m.UnknownPeer.Inc()
		op.Errors.Inc()
	default:
		m.RouteErrors.Inc()
		op.Errors.Inc()
	}
}

// aliveHome returns homes[hi] or, when churn removed it, the next
// still-present home clockwise in the snapshot (callers hold the
// network read lock).
func (e *engine) aliveHome(homes []ident.ID, hi int) ident.ID {
	for range homes {
		if e.nw.Peer(homes[hi]) != nil {
			return homes[hi]
		}
		hi = (hi + 1) % len(homes)
	}
	// Every pre-run home departed; fall back to any current peer.
	return e.nw.Peers()[0]
}

// churnDriver applies the pre-generated events, spaced by completed
// ops, and steps whichever scheduler is active back to quiescence in
// small chunks so client lookups interleave with mid-repair state
// (under the asynchronous scheduler, with mid-flight delayed messages
// too). After each event it rebalances the store onto the new
// membership and prunes dead cache entries. Returns how many events
// were applied.
//
// Cancellation stops the driver at every stage: while waiting for the
// next event's op target, between re-stabilization chunks, and before
// the post-event rebalance — no churn step runs after the context is
// done and the current chunk finishes.
func (e *engine) churnDriver(ctx context.Context, events []churn.Event, done <-chan struct{}) int {
	applied := 0
	for i, ev := range events {
		target := int64(i+1) * int64(e.cfg.Churn.EveryOps)
		for e.opsDone.Load() < target {
			select {
			case <-ctx.Done():
				return applied
			case <-done:
				return applied
			default:
				time.Sleep(100 * time.Microsecond)
			}
		}
		if ctx.Err() != nil {
			return applied
		}
		e.netMu.Lock()
		var err error
		switch ev.Kind {
		case "join":
			err = e.nw.Join(ev.ID, ev.Contact)
		case "leave":
			err = e.nw.Leave(ev.ID)
		case "fail":
			err = e.nw.Fail(ev.ID)
		}
		e.netMu.Unlock()
		if err != nil {
			// The event list was generated against pre-run membership;
			// an event that no longer applies is skipped.
			continue
		}
		applied++
		if e.cfg.Churn.OnApply != nil {
			e.cfg.Churn.OnApply(ev)
		}

		maxRounds := sim.DefaultBudget(e.sched)
		stepped := 0
		canceled := false
		for {
			e.netMu.Lock()
			quiescent := e.sched.Quiescent()
			for c := 0; c < e.cfg.Churn.StepChunk && !quiescent; c++ {
				e.sched.Step()
				stepped++
				quiescent = e.sched.Quiescent()
			}
			e.netMu.Unlock()
			if quiescent || stepped > maxRounds {
				break
			}
			if ctx.Err() != nil {
				// Leave the network mid-repair but at a round barrier;
				// the caller resumes or finishes the stabilization.
				canceled = true
				break
			}
			runtime.Gosched()
		}
		if canceled {
			return applied
		}
		if e.cfg.Churn.OnSettle != nil {
			e.cfg.Churn.OnSettle(stepped)
		}

		// Hand the stored pairs to their new owners and drop cache
		// entries whose peers changed or departed.
		e.netMu.RLock()
		_, _ = e.store.Rebalance()
		if e.cache != nil {
			e.cache.Prune()
		}
		e.netMu.RUnlock()
	}
	return applied
}

// opsFor splits cfg.Ops across workers, remainder to the low indices.
func opsFor(cfg Config, w int) int {
	n := cfg.Ops / cfg.Workers
	if w < cfg.Ops%cfg.Workers {
		n++
	}
	return n
}

// pickOp draws the op kind from the configured mix.
func pickOp(rng *rand.Rand, cfg Config) int {
	x := rng.Float64()
	switch {
	case x < cfg.GetFrac:
		return OpGet
	case x < cfg.GetFrac+cfg.PutFrac:
		return OpPut
	default:
		return OpDelete
	}
}

// writeSlot snaps a key index to worker w's residue class, making w
// the only writer of that key: concurrent runs then agree on every
// key's final value regardless of scheduling, which is what makes the
// store fingerprint reproducible. Reads are unrestricted.
func writeSlot(idx, w int, cfg Config) int {
	slot := idx - idx%cfg.Workers + w
	if slot >= cfg.Keyspace {
		slot -= cfg.Workers
	}
	return slot
}

// keyName renders a key index as the stored key.
func keyName(idx int) string { return fmt.Sprintf("key-%06d", idx) }

// fnvMix folds one (kind, key index) op into a running FNV-1a hash.
func fnvMix(h uint64, kind, idx int) uint64 {
	if h == 0 {
		h = 14695981039346656037 // FNV offset basis
	}
	for _, b := range [...]byte{byte(kind), byte(idx), byte(idx >> 8), byte(idx >> 16), byte(idx >> 24)} {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// mix64 finalizes a hash (splitmix64 finalizer) before the
// order-insensitive XOR combine across workers.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// errorsIsNotFound reports whether the op failed only because the key
// was absent at its owner.
func errorsIsNotFound(err error) bool { return errors.Is(err, dht.ErrNotFound) }

// sleepCtx sleeps for d or until the context is done, reporting true
// when the full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
