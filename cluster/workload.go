package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/churn"
	"repro/internal/sim"
	"repro/internal/workload"
)

// peerEventKinds maps a churn event kind to its stream event kind.
var peerEventKinds = map[string]EventKind{
	"join":  EventPeerJoined,
	"leave": EventPeerLeft,
	"fail":  EventPeerFailed,
}

// resettle is the post-repair step of the serving path: rebalance the
// store onto current ownership and prune the router's stale tables.
// Callers hold the write lock.
func (c *Cluster) resettle() error {
	_, err := c.store.Rebalance()
	c.router.Prune()
	if err != nil {
		return fmt.Errorf("%w: rebalance: %v", ErrUnknownPeer, err)
	}
	return nil
}

// restoreInvariants re-establishes the facade guarantees after
// anything churned the membership: refresh the home list, finish any
// interrupted repair, resettle the serving path, and publish an epoch
// event when any peer state changed since epoch0. Callers hold the
// write lock.
func (c *Cluster) restoreInvariants(epoch0 int) error {
	c.refreshHomes()
	if !c.sched.Quiescent() {
		sim.Run(context.Background(), c.sched, sim.Options{})
	}
	err := c.resettle()
	if epoch := c.nw.EpochClock(); epoch != epoch0 {
		c.bus.publish(Event{Kind: EventEpochBumped, Epoch: epoch, Round: c.clock()})
	}
	return err
}

// WorkloadConfig parameterizes one RunWorkload call. The zero value of
// every field means "engine default"; only Ops or Duration must be
// set. Whether operations route through the epoch-cached router is the
// cluster's WithRouterCache option, not a per-run knob.
type WorkloadConfig struct {
	// Workers is the number of concurrent client workers (default 4).
	Workers int
	// Ops is the total operation count, split across workers.
	Ops int
	// Duration, when positive, replaces Ops as the stop condition.
	Duration time.Duration
	// Keyspace is the number of distinct keys (default 4096).
	Keyspace int
	// Distribution is DistUniform, DistZipf or DistHotspot.
	Distribution string
	// ZipfS, ZipfV parameterize the zipf distribution.
	ZipfS, ZipfV float64
	// HotFraction, HotKeys, HotShiftEvery parameterize the shifting
	// hotspot.
	HotFraction   float64
	HotKeys       int
	HotShiftEvery int
	// GetFrac, PutFrac, DeleteFrac is the op mix (default .80/.15/.05).
	GetFrac, PutFrac, DeleteFrac float64
	// Preload stores this many keys before the measured run.
	Preload int
	// Seed drives every random choice of the run (op streams, churn
	// selection). Same seed + same config: identical op streams.
	Seed int64
	// Rate, when positive, paces an open loop at this many ops/sec
	// across all workers; 0 is a closed loop.
	Rate float64
	// ChurnEvents is the number of membership events interleaved with
	// the traffic; 0 disables churn.
	ChurnEvents int
	// ChurnEveryOps spaces consecutive events by completed operations
	// (default: spread evenly across the run).
	ChurnEveryOps int
	// ChurnStepChunk is how many repair rounds the churn driver runs
	// per lock acquisition while re-stabilizing (default 4).
	ChurnStepChunk int
}

// OpReport is the telemetry of one operation kind.
type OpReport struct {
	Name          string
	Count, Errors int
	Latency       *Histogram // nanoseconds
	Hops          *Histogram // inter-peer hops
}

// WorkloadReport is the merged telemetry of one RunWorkload call.
type WorkloadReport struct {
	Ops        int           // operations completed
	Errors     int           // routing failures surfaced to clients
	NotFound   int           // Gets that reached the owner but missed
	Fallbacks  int           // table-route failures recovered by the state walk
	Elapsed    time.Duration // wall-clock of the measured phase
	Throughput float64       // ops per second

	Latency *Histogram // all ops, nanoseconds
	Hops    *Histogram // all ops, inter-peer hops
	PerOp   []OpReport

	CacheHits, CacheMisses uint64 // router cache counters for the run
	ChurnApplied           int    // membership events actually applied

	// OpsFingerprint hashes the op streams, StoreFingerprint and
	// StoreLen describe the cluster's store after the run (pairs stored
	// before it included); same seed + config reproduce both (the store
	// fingerprint additionally requires the same starting contents and
	// a churn-free run).
	OpsFingerprint   uint64
	StoreFingerprint uint64
	StoreLen         int

	summary string
}

// Summary renders the headline numbers as one line.
func (r *WorkloadReport) Summary() string { return r.summary }

// RunWorkload drives the concurrent traffic engine against the
// cluster: a pool of client workers firing Get/Put/Delete at the
// overlay, optionally racing membership churn, returning the merged
// telemetry. The run serves through the cluster's own store and
// router, so its preloaded and written pairs stay visible to Get and
// Keys afterwards and its fallbacks count in Metrics. The call holds the cluster's write side for the whole run
// (facade KV methods block until it returns); the fine-grained
// interleaving of lookups with re-stabilization happens inside the
// engine. Cancellation stops workers and the churn driver end to end
// and returns the partial telemetry together with ctx.Err(); the
// network is finished re-stabilizing by the facade before the method
// returns, so the cluster stays serviceable.
//
// Workload churn is published on the event stream: one peer event per
// applied membership change, a region-settled event per completed
// repair, and one epoch-bumped event when the run changed any peer
// state.
func (c *Cluster) RunWorkload(ctx context.Context, cfg WorkloadConfig) (*WorkloadReport, error) {
	if err := c.ready(ctx); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	epoch0 := c.nw.EpochClock()
	wcfg := workload.Config{
		Workers:       cfg.Workers,
		Ops:           cfg.Ops,
		Duration:      cfg.Duration,
		Keyspace:      cfg.Keyspace,
		Distribution:  cfg.Distribution,
		ZipfS:         cfg.ZipfS,
		ZipfV:         cfg.ZipfV,
		HotFraction:   cfg.HotFraction,
		HotKeys:       cfg.HotKeys,
		HotShiftEvery: cfg.HotShiftEvery,
		GetFrac:       cfg.GetFrac,
		PutFrac:       cfg.PutFrac,
		DeleteFrac:    cfg.DeleteFrac,
		Preload:       cfg.Preload,
		Seed:          cfg.Seed,
		Rate:          cfg.Rate,
		Obs:           c.met,
		Churn: workload.ChurnConfig{
			Events:    cfg.ChurnEvents,
			EveryOps:  cfg.ChurnEveryOps,
			StepChunk: cfg.ChurnStepChunk,
			// Engine-driven events carry no Round: the callbacks run on
			// the churn-driver goroutine, which may not read the round
			// counter while workers are mid-operation.
			OnApply: func(ev churn.Event) {
				c.bus.publish(Event{Kind: peerEventKinds[ev.Kind], Peer: PeerID(ev.ID)})
			},
			OnSettle: func(rounds int) {
				c.bus.publish(Event{Kind: EventRegionSettled, Rounds: rounds, Peers: c.nw.NumPeers()})
			},
		},
	}

	res, runErr := workload.Run(ctx, c.sched, c.store, c.router, wcfg)
	if res == nil {
		switch {
		case runErr == nil:
			return nil, nil
		case errors.Is(runErr, workload.ErrConfig):
			// The engine rejected the configuration before starting.
			return nil, fmt.Errorf("%w: %v", ErrConfig, runErr)
		case ctx.Err() != nil:
			return nil, runErr
		default:
			// A runtime failure before the measured run began (empty
			// network, preload routing error on an unstable topology).
			return nil, fmt.Errorf("%w: %v", ErrNoRoute, runErr)
		}
	}

	// The run may have churned the membership (and a canceled run may
	// have left the repair unfinished): restore the facade invariants
	// before releasing the lock.
	if err := c.restoreInvariants(epoch0); err != nil && runErr == nil {
		runErr = err
	}

	rep := &WorkloadReport{
		Ops:              res.Ops,
		Errors:           res.Errors,
		NotFound:         res.NotFound,
		Fallbacks:        res.Fallbacks,
		Elapsed:          res.Elapsed,
		Throughput:       res.Throughput,
		Latency:          res.Latency,
		Hops:             res.Hops,
		CacheHits:        res.CacheHits,
		CacheMisses:      res.CacheMisses,
		ChurnApplied:     res.ChurnApplied,
		OpsFingerprint:   res.OpsFingerprint,
		StoreFingerprint: res.StoreFingerprint,
		StoreLen:         res.StoreLen,
		summary:          res.Summary(),
	}
	for _, op := range res.PerOp {
		rep.PerOp = append(rep.PerOp, OpReport{
			Name: op.Name, Count: op.Count, Errors: op.Errors,
			Latency: op.Latency, Hops: op.Hops,
		})
	}
	return rep, runErr
}

// Recovery reports how one churn event was absorbed.
type Recovery struct {
	// Kind is "join", "leave" or "fail".
	Kind string
	// Peer is the peer that joined or departed.
	Peer PeerID
	// Rounds is how many repair rounds the re-stabilization took.
	Rounds int
}

// ChurnRandom applies a seed-derived random mix of joins, graceful
// leaves and crash failures, re-stabilizing (and verifying the stable
// state) after each event, and returns the per-event recovery costs.
// Each event is published on the event stream as soon as it is
// applied, followed by its region-settled event once the repair
// completes. Cancellation returns the completed recoveries with
// ctx.Err(); the interrupted repair is finished by the facade before
// the method returns.
func (c *Cluster) ChurnRandom(ctx context.Context, events int) (recs []Recovery, err error) {
	if err := c.ready(ctx); err != nil {
		return nil, err
	}
	if events < 0 {
		return nil, fmt.Errorf("%w: churn events %d is negative", ErrConfig, events)
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	epoch0 := c.nw.EpochClock()
	defer func() {
		if rerr := c.restoreInvariants(epoch0); rerr != nil && err == nil {
			err = rerr
		}
	}()

	var out []Recovery
	for _, ev := range churn.RandomEvents(c.nw, events, c.rng) {
		if aerr := ev.Apply(c.nw); aerr != nil {
			return out, fmt.Errorf("%w: %s: %v", ErrUnknownPeer, ev.Kind, aerr)
		}
		// Published as soon as the membership change is visible, before
		// the repair — the stream's contract.
		c.bus.publish(Event{Kind: peerEventKinds[ev.Kind], Peer: PeerID(ev.ID), Round: c.clock()})

		res := sim.Run(ctx, c.sched, sim.Options{})
		if res.Canceled {
			return out, ctx.Err()
		}
		if !res.Stable {
			return out, fmt.Errorf("%w: network did not re-stabilize after %s of %s", ErrUnstable, ev.Kind, ev.ID)
		}
		if verr := churn.VerifyStable(c.nw); verr != nil {
			return out, fmt.Errorf("%w: after %s of %s: %v", ErrUnstable, ev.Kind, ev.ID, verr)
		}
		c.bus.publish(Event{Kind: EventRegionSettled, Rounds: res.Rounds, Peers: c.nw.NumPeers(), Round: c.clock()})
		out = append(out, Recovery{Kind: ev.Kind, Peer: PeerID(ev.ID), Rounds: res.Rounds})
	}
	return out, nil
}
