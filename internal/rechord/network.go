package rechord

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/ref"
)

// Config controls protocol variants and execution.
type Config struct {
	// DisableRing turns off rule 5, for the linearization-only
	// ablation: the network converges to a sorted list, never a ring.
	DisableRing bool
	// DisableConnection turns off rule 6, demonstrating why connection
	// edges are needed (sibling clusters can stay disconnected).
	DisableConnection bool
	// Workers sets the number of goroutines that execute node rules in
	// parallel within a round. 0 means GOMAXPROCS; 1 forces serial
	// execution. Results are identical for any value: nodes only read
	// their own state plus an immutable snapshot, and all cross-node
	// effects are delayed messages merged at the round barrier.
	Workers int
	// FullSweep disables the activity-tracked scheduler and runs rules
	// 1-6 at every peer every round, the paper's literal execution
	// model. The default incremental schedule produces the identical
	// round-by-round global state (see DESIGN.md for the argument and
	// the lockstep property test for the proof-by-execution); FullSweep
	// keeps the exhaustive schedule available as the equivalence
	// baseline and for debugging.
	FullSweep bool
	// ParanoidSettle cross-checks the incremental barrier machinery
	// against its O(n) baselines on every batch: the hash-based settle
	// decision against the old clone-and-compare, and the inverted
	// dependency index's wake set against the full-peer scan. Any
	// disagreement panics. Intended for tests (the lockstep suites run
	// with it on); it restores the per-barrier clone cost the hashes
	// exist to remove.
	ParanoidSettle bool
}

// RoundStats reports what happened during one Step of a Scheduler:
// one synchronous round, or one asynchronous time step.
type RoundStats struct {
	Round         int // the round or step number just executed (1-based)
	Activated     int // peers whose rules ran this step
	MessagesSent  int
	VirtualMade   int
	VirtualKilled int
}

// viewEntry is one virtual node's published rl/rr state, readable by
// other peers' rule-3 guards (the state-reading model). The zero value
// means "nothing published".
type viewEntry struct {
	rl, rr       ref.Ref
	hasRL, hasRR bool
}

// publish extracts the published tuple of a virtual node, normalized
// so that unset sides carry a zero ref and absent == zero entry.
func publish(v *VNode) viewEntry {
	var e viewEntry
	if v.HasRL {
		e.hasRL, e.rl = true, v.RL
	}
	if v.HasRR {
		e.hasRR, e.rr = true, v.RR
	}
	return e
}

// Network is the synchronous-round simulation of a Re-Chord system:
// the set of peers, their virtual nodes and edge sets, and the message
// queues between rounds. It implements the standard synchronous
// message-passing model of Section 2.1.
//
// Step runs an activity-tracked (dirty-set) schedule: only peers whose
// inputs changed since their last execution run rules 1-6; peers at a
// local fixed point are skipped entirely, and their repeating output
// flow is represented by the standing per-sender inbox buckets (see
// RealNode.in). A network with an empty frontier is quiescent: Step
// degenerates to a counter increment, giving O(1) fixed-point
// detection.
type Network struct {
	cfg   Config
	pt    interner   // id ↔ dense slot registry; all hot per-peer state hangs off it
	order []ident.ID // sorted, for deterministic iteration
	round int

	// view is the published rl/rr state of every virtual node,
	// slot-indexed: view[slot][level] is the entry other peers' rule-3
	// guards read. Inner slices track each peer's level span and are
	// maintained incrementally at round barriers; rules read them
	// concurrently during the parallel phase, writes happen only
	// between phases. A zero entry means "nothing published" (the old
	// map representation only stored non-zero entries).
	view [][]viewEntry

	// vhash is the per-(slot, level) content hash of every peer's
	// virtual nodes, the incremental settle check's state (see
	// hash.go). Between batches vhash[slot] describes the peer's
	// current state; phase 2 recomputes it for the peers that ran.
	vhash [][]uint64

	// deps is the inverted dependency index (see depindex.go):
	// referenced owner identifier -> peers whose edge sets or standing
	// buckets mention it. stateDeps[slot] is the peer's own edge-set
	// contribution (sorted owner multiset), diffed against the index at
	// the barrier when the peer's content hash changed.
	deps      depIndex
	stateDeps [][]ownerCount

	// frontier lists the slots of peers whose dirty flag is set.
	// Entries may be stale (peer departed, slot re-collected); Step
	// filters by liveness and the flag.
	frontier []uint32

	// lastChange is the most recent round whose execution changed the
	// global state, the quantity convergence experiments report.
	lastChange int

	// epochClock issues peer change epochs (RealNode.epoch): it is
	// incremented on every bump, so two changes to the same peer are
	// never stamped equal even within one round (AddPeer followed by
	// SeedEdge before the first Step, for instance).
	epochClock int

	// bucketMsgs counts the messages across all standing buckets: the
	// per-round message flow of the current schedule.
	bucketMsgs int

	// flow is the flow-storage accounting (live templates, resident
	// bytes, shared vs unique bucket bytes, install tallies), updated by
	// the serial mutation points and flushed to the telemetry gauges by
	// flushFlowGauges.
	flow flowTally

	pool    *workerPool
	active  []uint32
	results []nodeResult
	pres    [][]*VNode

	// prep holds the per-active-index output of the parallel prepare
	// sub-phase (see barrier.go), readable by the scheduler until
	// finishBatch; it reuses its buffers across batches and is dropped
	// together with results/pres when the frontier contracts.
	prep []prepOut

	// br is the persistent batch fan-out machinery (task closure,
	// WaitGroup, work counter, per-phase bodies) reused across batches;
	// bActive/bMode are the running batch's parameters, read by br's
	// persistent closures instead of being captured fresh every batch,
	// and bt its phase clock, closed by finishBatch.
	br      batchRun
	bActive []uint32
	bMode   batchMode
	bt      batchTimes

	// ownerChangedB/viewChangedB are the reusable per-barrier change
	// sets feeding wakeDependents — cleared, never reallocated, after
	// each batch.
	ownerChangedB map[ident.ID]bool
	viewChangedB  map[ref.Ref]bool

	// met is the engine's always-on telemetry (shared with any
	// AsyncRunner driving this network). The hot-path contract: a
	// quiescent Step adds exactly one atomic increment; a non-quiescent
	// batch tallies into plain integers and flushes one atomic add per
	// counter at the barrier. Embedded by value so a zero-constructed
	// Network is still safe to step.
	met obs.EngineMetrics
}

// Obs returns the engine's telemetry counters. The returned metrics
// are live and safe to read concurrently with stepping.
func (nw *Network) Obs() *obs.EngineMetrics { return &nw.met }

// rrGroup is one recipient's slice of a rerouted output.
type rrGroup struct {
	owner ident.ID
	msgs  []Message
}

// NewNetwork creates an empty network.
func NewNetwork(cfg Config) *Network {
	return &Network{cfg: cfg}
}

// Reserve pre-sizes the per-peer tables for n additional peers, so
// bulk topology builds (topogen, large-scale experiments) do not grow
// the dense state peer by peer.
func (nw *Network) Reserve(n int) {
	nw.pt.reserve(n)
	if cap(nw.view)-len(nw.view) < n {
		nw.view = append(make([][]viewEntry, 0, len(nw.view)+n), nw.view...)
	}
	if cap(nw.vhash)-len(nw.vhash) < n {
		nw.vhash = append(make([][]uint64, 0, len(nw.vhash)+n), nw.vhash...)
	}
	if cap(nw.stateDeps)-len(nw.stateDeps) < n {
		nw.stateDeps = append(make([][]ownerCount, 0, len(nw.stateDeps)+n), nw.stateDeps...)
	}
	if cap(nw.order)-len(nw.order) < n {
		nw.order = append(make([]ident.ID, 0, len(nw.order)+n), nw.order...)
	}
}

// node returns the live peer registered under the identifier, or nil.
func (nw *Network) node(id ident.ID) *RealNode { return nw.pt.node(id) }

// AddPeer inserts a real node with the identifier and no edges. It is
// the caller's job (topogen, Join) to give it initial knowledge.
func (nw *Network) AddPeer(id ident.ID) *RealNode {
	if _, ok := nw.pt.lookup(id); ok {
		panic(fmt.Sprintf("rechord: duplicate peer id %s", id))
	}
	n := &RealNode{id: id, vnodes: []*VNode{newVNode(id, 0)}}
	slot := nw.pt.intern(n)
	for int(slot) >= len(nw.view) {
		nw.view = append(nw.view, nil)
		nw.vhash = append(nw.vhash, nil)
		nw.stateDeps = append(nw.stateDeps, nil)
	}
	nw.view[slot] = nw.view[slot][:0]
	nw.view[slot] = append(nw.view[slot], viewEntry{})
	nw.vhash[slot] = append(nw.vhash[slot][:0], hashVNode(n.vnodes[0]))
	nw.stateDeps[slot] = nw.stateDeps[slot][:0] // a fresh peer references nothing
	nw.bumpEpoch(n)
	nw.insertOrder(id)
	nw.markDirtyIdx(slot)
	if nw.round > 0 {
		// Re-materialize standing flow addressed to this identifier: a
		// peer re-joining under an id that live senders still target
		// must see their repeating messages, exactly as a full sweep
		// would re-deliver them. Peers that merely hold stale
		// references to the id behave differently now that it resolves
		// again, so they are woken too.
		for _, s := range nw.pt.nodes {
			if s == nil || s == n || s.lastFlow == nil {
				continue
			}
			si := s.lastFlow.findSpan(id)
			if si < 0 {
				continue
			}
			nw.writeBucket(n, s.h(), s.lastFlow, si, effQuiet)
		}
		nw.flushFlowGauges()
		nw.wakeDependents(map[ident.ID]bool{id: true}, nil)
	}
	return n
}

func (nw *Network) insertOrder(id ident.ID) {
	i := 0
	for i < len(nw.order) && nw.order[i] < id {
		i++
	}
	nw.order = append(nw.order, 0)
	copy(nw.order[i+1:], nw.order[i:])
	nw.order[i] = id
}

func (nw *Network) removeOrder(id ident.ID) {
	for i, x := range nw.order {
		if x == id {
			nw.order = append(nw.order[:i], nw.order[i+1:]...)
			return
		}
	}
}

// markDirtyIdx puts the peer in the slot on the frontier: its inputs
// (inbox, purge environment, or published neighbor state) may have
// changed, so the next Step must run its rules.
func (nw *Network) markDirtyIdx(slot uint32) {
	if n := nw.pt.nodes[slot]; n != nil && !n.dirty {
		n.dirty = true
		nw.frontier = append(nw.frontier, slot)
	}
}

// markDirty is markDirtyIdx for callers holding only the identifier.
func (nw *Network) markDirty(id ident.ID) {
	if slot, ok := nw.pt.lookup(id); ok {
		nw.markDirtyIdx(slot)
	}
}

// Wake schedules the peer to run in the next round. State reached
// through the public API (Step, Join, Leave, Fail, SeedEdge) wakes the
// affected peers automatically; callers that mutate a peer's state out
// of band (fault injection, perturbation tests) must Wake it so the
// activity scheduler notices the change. Waking an identifier that is
// unknown — never present, or departed (including via a now-stale
// rejoin) — is an explicit no-op: there is no peer to schedule, and a
// later AddPeer under the same identifier starts dirty anyway.
func (nw *Network) Wake(id ident.ID) {
	slot, ok := nw.pt.lookup(id)
	if !ok {
		return
	}
	nw.markDirtyIdx(slot)
}

// Quiescent reports whether the frontier is empty: no peer's inputs
// have changed since it last reached a local fixed point. A quiescent
// network is at the global fixed point, and every further Step is the
// identity on the global state.
func (nw *Network) Quiescent() bool {
	for _, slot := range nw.frontier {
		if n := nw.pt.nodes[slot]; n != nil && n.dirty {
			return false
		}
	}
	return true
}

// FrontierSize returns the number of peers currently scheduled to run
// in the next round. Stale frontier entries (a peer that departed
// while dirty, its slot possibly re-tenanted) are deduplicated the
// same way Step's collection pass is: by the dirty flag, counting each
// slot once.
func (nw *Network) FrontierSize() int {
	seen := make(map[uint32]bool, len(nw.frontier))
	c := 0
	for _, slot := range nw.frontier {
		if seen[slot] {
			continue
		}
		seen[slot] = true
		if n := nw.pt.nodes[slot]; n != nil && n.dirty {
			c++
		}
	}
	return c
}

// Incremental reports whether the activity-tracked scheduler is in
// effect (false under Config.FullSweep).
func (nw *Network) Incremental() bool { return !nw.cfg.FullSweep }

// LastChangeRound returns the most recent round whose execution
// changed the global state (0 if no round changed anything yet).
func (nw *Network) LastChangeRound() int { return nw.lastChange }

// bumpEpoch stamps the peer with a fresh change epoch.
func (nw *Network) bumpEpoch(n *RealNode) {
	nw.epochClock++
	n.epoch = nw.epochClock
}

// PeerEpoch returns the peer's current change epoch: a monotone stamp
// that advances whenever the peer's own protocol state (virtual nodes,
// edge sets, rl/rr) may have changed. Derived per-peer state — a
// routing table read off the peer's virtual nodes, say — is fresh
// exactly as long as the epoch it was computed under still equals the
// current one. The second result is false when the peer is not in the
// network. The incremental scheduler stamps only peers whose state
// actually changed; under Config.FullSweep every executed peer is
// stamped every round (conservative, so caches merely lose their
// effectiveness, never their correctness).
func (nw *Network) PeerEpoch(id ident.ID) (int, bool) {
	n := nw.pt.node(id)
	if n == nil {
		return 0, false
	}
	return n.epoch, true
}

// PeerSlot exposes the peer's dense interner slot and the generation
// of its current incarnation. Slot-indexed side tables (the routing
// table cache, say) use the pair instead of an id-keyed map: the slot
// addresses the entry, the generation guards against a slot reused by
// a later peer. ok is false when the peer is not in the network.
func (nw *Network) PeerSlot(id ident.ID) (slot int, gen uint32, ok bool) {
	i, ok := nw.pt.lookup(id)
	if !ok {
		return 0, 0, false
	}
	return int(i), nw.pt.gens[i], true
}

// SlotSpan returns the size of the interner's slot space (live plus
// free slots): the bound consumers sizing slot-indexed tables need.
func (nw *Network) SlotSpan() int { return nw.pt.span() }

// PeerSlotEpoch is PeerSlot and PeerEpoch in one resolution: slot,
// generation and change epoch of the peer's current incarnation.
func (nw *Network) PeerSlotEpoch(id ident.ID) (slot int, gen uint32, epoch int, ok bool) {
	i, ok := nw.pt.lookup(id)
	if !ok {
		return 0, 0, 0, false
	}
	return int(i), nw.pt.gens[i], nw.pt.nodes[i].epoch, true
}

// EpochClock returns the current value of the global epoch clock: the
// monotone counter that stamps per-peer change epochs. It advances
// whenever any peer's protocol state changes, so observing it move
// between two points in time means some peer's state (and any derived
// cache entry) changed in between.
func (nw *Network) EpochClock() int { return nw.epochClock }

// SeedEdge gives the peer owning `from` initial knowledge of `to` as an
// edge of the kind, creating the source virtual node if needed. Used to
// build arbitrary initial states.
func (nw *Network) SeedEdge(from, to ref.Ref, k graph.Kind) {
	slot, ok := nw.pt.lookup(from.Owner)
	if !ok {
		panic(fmt.Sprintf("rechord: SeedEdge from unknown peer %s", from.Owner))
	}
	n := nw.pt.nodes[slot]
	v := n.ensureLevel(from.Level)
	if int32(from.Level) > nw.pt.maxLv[slot] {
		nw.pt.maxLv[slot] = int32(from.Level)
	}
	added := false
	if to != v.Self {
		switch k {
		case graph.Unmarked:
			added = v.Nu.Add(to)
		case graph.Ring:
			added = v.Nr.Add(to)
		case graph.Connection:
			added = v.Nc.Add(to)
		}
	}
	// Out-of-band state mutation: keep the stored content hashes and
	// the inverted dependency index describing the current state. Bulk
	// seeding (topogen) calls SeedEdge once per edge, so the update is
	// incremental — new levels are hashed as they appear, the touched
	// level is rehashed, and the one new reference enters the index —
	// instead of a whole-peer refresh per call.
	hs := nw.vhash[slot]
	for len(hs) < len(n.vnodes) {
		hs = append(hs, hashVNode(n.vnodes[len(hs)]))
	}
	hs[from.Level] = hashVNode(v)
	nw.vhash[slot] = hs
	if added {
		nw.deps.add(to.Owner, slot, 1)
		nw.stateDepAdd(slot, to.Owner)
	}
	nw.bumpEpoch(n)
	nw.markDirtyIdx(slot)
}

// Peers returns the identifiers of all real nodes in increasing order.
func (nw *Network) Peers() []ident.ID {
	return append([]ident.ID(nil), nw.order...)
}

// Peer returns the real node with the identifier, or nil.
func (nw *Network) Peer(id ident.ID) *RealNode { return nw.pt.node(id) }

// NumPeers returns the number of real nodes.
func (nw *Network) NumPeers() int { return nw.pt.live }

// Round returns the number of rounds executed so far.
func (nw *Network) Round() int { return nw.round }

// rebuildLevels recomputes the per-slot max levels from scratch. The
// engine maintains them incrementally; the white-box rule fixtures
// refresh them wholesale after mutating peer state directly.
func (nw *Network) rebuildLevels() {
	for slot, n := range nw.pt.nodes {
		if n != nil {
			nw.pt.maxLv[slot] = int32(n.MaxLevel())
		}
	}
}

// rebuildView recomputes the published rl/rr view from scratch (see
// rebuildLevels for when this is needed instead of the incremental
// maintenance).
func (nw *Network) rebuildView() {
	for slot, n := range nw.pt.nodes {
		if n == nil {
			nw.view[slot] = nil
			continue
		}
		vs := nw.view[slot][:0]
		for _, v := range n.vnodes {
			e := viewEntry{}
			if v != nil {
				e = publish(v)
			}
			vs = append(vs, e)
		}
		nw.view[slot] = vs
	}
}

// viewOf reads the published rl/rr entry of the referenced virtual
// node: the round-start state rule 3's guards consult. Unknown peers
// and out-of-span levels read as the zero entry, exactly like the
// absent keys of the old ref-keyed map.
func (nw *Network) viewOf(r ref.Ref) viewEntry {
	slot, ok := nw.pt.lookup(r.Owner)
	if !ok {
		return viewEntry{}
	}
	vs := nw.view[slot]
	if r.Level >= len(vs) {
		return viewEntry{}
	}
	return vs[r.Level]
}

// resolve maps a reference onto a node that currently exists: dead
// peers yield ok=false; references to deleted virtual levels of a live
// peer fall back to the peer's real node, which in a deployment is the
// process that answers for all of the peer's virtual addresses.
func (nw *Network) resolve(r ref.Ref) (ref.Ref, bool) {
	slot, ok := nw.pt.lookup(r.Owner)
	if !ok {
		return ref.Ref{}, false
	}
	if int32(r.Level) > nw.pt.maxLv[slot] {
		return ref.Real(r.Owner), true
	}
	return r, true
}

// purge rewrites every edge set of n, dropping references to departed
// peers and redirecting references to deleted virtual nodes to the
// owning peer (perfect failure detection, the substitution documented
// in DESIGN.md for the paper's implicit fault model).
func (nw *Network) purge(n *RealNode) {
	for _, v := range n.vnodes {
		if v == nil {
			continue
		}
		for _, s := range []*ref.Set{&v.Nu, &v.Nr, &v.Nc} {
			var fixed []ref.Ref
			dirty := false
			for _, r := range s.Slice() {
				rr, ok := nw.resolve(r)
				if !ok || rr != r {
					dirty = true
					if ok {
						fixed = append(fixed, rr)
					}
					continue
				}
				fixed = append(fixed, r)
			}
			if dirty {
				s.Clear()
				for _, r := range fixed {
					if r != v.Self {
						s.Add(r)
					}
				}
			}
		}
	}
}

// deliver applies the pending inbox of n: the one-shot messages (which
// are consumed) and the standing per-sender buckets (which persist,
// representing the senders' repeating output flow). Messages to
// virtual levels the peer no longer simulates are merged into the
// closest surviving virtual node u_m, per rule 1's merge semantics.
// Delivery is a commutative, idempotent set-union, so the iteration
// order over buckets does not matter.
func (nw *Network) deliver(n *RealNode) int {
	delivered := len(n.inbox)
	apply := func(msg Message) {
		var v *VNode
		if msg.To.Level < len(n.vnodes) {
			v = n.vnodes[msg.To.Level]
		}
		if v == nil {
			v = n.vnodes[n.MaxLevel()]
		}
		switch msg.Kind {
		case graph.Unmarked:
			v.addNu(msg.Add)
		case graph.Ring:
			v.addNr(msg.Add)
		case graph.Connection:
			v.addNc(msg.Add)
		}
	}
	for _, msg := range n.inbox {
		apply(msg)
	}
	n.inbox = n.inbox[:0]
	for _, b := range n.in {
		sp := b.flow.spans[b.span]
		delivered += int(sp.end - sp.start)
		for i := sp.start; i < sp.end; i++ {
			apply(b.flow.msgAt(sp.owner, i))
		}
	}
	return delivered
}

// workerPool is a persistent set of goroutines executing the parallel
// rule phase, so Step does not respawn goroutines every round. The
// workers reference only the task channel, never the Network, so the
// Network stays collectable; a runtime cleanup closes the channel and
// lets the workers exit when the Network is garbage collected.
type workerPool struct {
	tasks chan func()
	size  int
}

// defaultWorkers is the Config.Workers=0 parallelism: one worker per
// schedulable CPU.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

func (nw *Network) ensurePool(workers int) *workerPool {
	if nw.pool == nil {
		p := &workerPool{tasks: make(chan func()), size: workers}
		for i := 0; i < workers; i++ {
			go func() {
				for f := range p.tasks {
					f()
				}
			}()
		}
		nw.pool = p
		runtime.AddCleanup(nw, func(ch chan func()) { close(ch) }, p.tasks)
	}
	return nw.pool
}

// Step executes one synchronous round over the current frontier:
// deliver pending messages, purge dead references, then run rules 1-6
// at every dirty peer (in parallel) and merge the effects at the round
// barrier. Clean peers are skipped; their state and standing output
// are provably what a full sweep would recompute. Under
// Config.FullSweep every peer is dirtied first, reproducing the
// paper's literal schedule.
func (nw *Network) Step() RoundStats {
	nw.round++
	nw.met.Steps.Inc()
	stats := RoundStats{Round: nw.round}

	if nw.cfg.FullSweep {
		for slot, n := range nw.pt.nodes {
			if n != nil {
				nw.markDirtyIdx(uint32(slot))
			}
		}
	}

	active := nw.collectFrontier()
	stats.Activated = len(active)
	if len(active) == 0 {
		// Quiescent: the round is the identity on the global state.
		// The standing buckets are exactly the messages every peer
		// keeps regenerating, so the per-round flow is their count.
		stats.MessagesSent = nw.bucketMsgs
		return stats
	}

	mode := batchSync
	if nw.cfg.FullSweep {
		mode = batchSweep
	}
	if nw.runBatch(active, mode, &stats) {
		nw.lastChange = nw.round
	}
	nw.finishBatch()
	stats.MessagesSent = nw.bucketMsgs
	return stats
}

// collectFrontier drains the frontier into a deterministic active list
// of slots (sorted by peer identifier), clearing dirty flags so that
// barrier-time re-dirtying schedules peers for the NEXT round. The
// returned slice is owned by the network and reused across rounds.
func (nw *Network) collectFrontier() []uint32 {
	active := nw.active[:0]
	for _, slot := range nw.frontier {
		if n := nw.pt.nodes[slot]; n != nil && n.dirty {
			n.dirty = false
			active = append(active, slot)
		}
	}
	nw.frontier = nw.frontier[:0]
	nw.active = active
	nw.sortSlotsByID(active)
	return active
}

// sortSlotsByID orders live slots by their peers' identifiers: the
// deterministic execution order every barrier and rng-consuming
// schedule relies on.
func (nw *Network) sortSlotsByID(slots []uint32) {
	if len(slots) > 1 {
		ids := nw.pt.ids
		sort.Slice(slots, func(i, j int) bool { return ids[slots[i]] < ids[slots[j]] })
	}
}

// batchMode selects the scheduler-specific parts of a batch.
type batchMode uint8

const (
	// batchSync is the activity-tracked synchronous round (also the
	// partition's): settled peers leave the frontier, changed outputs
	// are rewritten into the recipients' buckets.
	batchSync batchMode = iota
	// batchSweep is Config.FullSweep: no settle decision, every
	// executed peer is re-stamped and none leaves the frontier early.
	batchSweep
	// batchAsync is the asynchronous runner's batch: the three-way link
	// rule of prepAsyncEffects replaces the synchronous rewrite.
	batchAsync
)

// batchTimes is the running batch's phase clock: the boundaries
// runBatch passed, closed by finishBatch.
type batchTimes struct {
	start, deliver, execute, prepare, commit, end time.Time
}

// runBatch executes one phased batch over the active (sorted) peers:
// deliver and purge in parallel, run rules 1-6 in parallel, prepare
// each peer's effect list in parallel, commit the lists serially, then
// settle unchanged peers and wake dependents in the serial epilogue
// (see barrier.go). It reports whether the global state changed.
//
// The effect lists stay readable in nw.prep[:len(active)] until the
// scheduler calls finishBatch: the asynchronous runner ships its
// handoffs from them, the partition its remote bucket rewrites and
// publishes. Bucket effects index the peers' lastFlow by then.
func (nw *Network) runBatch(active []uint32, mode batchMode, stats *RoundStats) bool {
	t0 := time.Now()
	if cap(nw.results) < len(active) {
		nw.results = make([]nodeResult, len(active))
		pres := make([][]*VNode, len(active))
		copy(pres, nw.pres)
		nw.pres = pres
		prep := make([]prepOut, len(active))
		copy(prep, nw.prep)
		nw.prep = prep
	}
	results := nw.results[:len(active)]
	changed := false
	settle := mode != batchSweep

	workers := nw.parallelism()
	nw.bActive, nw.bMode = active, mode
	if nw.ownerChangedB == nil {
		nw.ownerChangedB = make(map[ident.ID]bool)
		nw.viewChangedB = make(map[ref.Ref]bool)
	}
	br := &nw.br

	// Phase 1 (parallel): deliver and purge the active peers. The
	// settle check compares the stored content hashes (which describe
	// the pre-round state by invariant) against a phase-2
	// recomputation, so no pre-round copy is needed; under
	// ParanoidSettle the old deep clone is kept alongside to
	// cross-check every settle decision. Every step touches only the
	// peer's own state (purge reads the interner's tables, which phase
	// 1 never writes), so large batches fan out over the pool like the
	// rule phase does.
	if br.phase1 == nil {
		br.phase1 = func(i int) {
			n := nw.pt.nodes[nw.bActive[i]]
			if nw.bMode != batchSweep && nw.cfg.ParanoidSettle {
				nw.pres[i] = n.cloneVNodes(nw.pres[i])
			}
			if len(n.inbox) > 0 {
				// Consuming a one-shot message changes the global state
				// even when the peer's own state ends up unchanged.
				br.anyInbox.Store(true)
			}
			nw.results[i].delivered = nw.deliver(n)
			nw.purge(n)
		}
	}
	br.anyInbox.Store(false)
	nw.runParallel(workers, workers, len(active), br.phase1)
	if br.anyInbox.Load() {
		changed = true
	}
	tDeliver := time.Now()

	// Phase 2 (parallel): run rules 1-6 on the active peers, then
	// recompute each peer's content hashes — hchanged is the settle
	// decision. Each peer reads only its own state and the immutable
	// view of published rl/rr values (the hash refresh writes only the
	// peer's own vhash slot), so execution order is irrelevant. The
	// phase-1 delivery tally rides through the overwrite.
	if br.phase2 == nil {
		br.phase2 = func(i int) {
			slot := nw.bActive[i]
			n := nw.pt.nodes[slot]
			d := nw.results[i].delivered
			nw.results[i] = nw.runRules(n, n.scratch.out[:0])
			nw.results[i].delivered = d
			nw.results[i].hchanged = nw.refreshHashSlot(slot, n)
		}
	}
	nw.runParallel(workers, workers, len(active), br.phase2)
	tExecute := time.Now()

	// Phase 3a (parallel): prepare — publish each peer's own view and
	// level slot, take the settle and output-change verdicts, and write
	// the peer's dependency deltas and effect list into its own prep
	// entry.
	if br.prepare == nil {
		br.prepare = func(i int) { nw.prepareIndex(i) }
	}
	nw.runParallel(workers, workers, len(active), br.prepare)
	tPrepare := time.Now()

	// Phase 3b (serial, active order): commit the effect lists.
	nw.commit(active)
	tCommit := time.Now()

	// Phase 3c (serial epilogue, active order): everything that is
	// ordered state — epoch stamps, settle bookkeeping, the change-set
	// merge — plus the paranoid verdicts deferred out of the pool
	// goroutines.
	ownerChanged, viewChanged := nw.ownerChangedB, nw.viewChangedB
	// Batch-local telemetry tallies: plain integers here, one atomic
	// add per counter at the barrier flush below.
	var ruleFired [obs.NumRules]uint64
	var deliveredN, settledN, unsettledN, epochBumpN int
	for i, slot := range active {
		n := nw.pt.nodes[slot]
		res := &results[i]
		p := &nw.prep[i]
		stats.VirtualMade += res.made
		stats.VirtualKilled += res.killed
		deliveredN += res.delivered
		for k, f := range res.fired {
			ruleFired[k] += uint64(f)
		}
		if p.paranoidBad {
			panic(fmt.Sprintf("rechord: settle hash says changed=%v but clone compare says %v for peer %s", p.stateChanged, !p.stateChanged, n.id))
		}
		if settle && nw.cfg.ParanoidSettle {
			nw.pres[i] = nw.pres[i][:0] // keep the buffer for the next batch
		}
		if p.ownerChanged {
			ownerChanged[n.id] = true
		}
		for _, r := range p.viewRefs {
			viewChanged[r] = true
		}
		out := res.out
		if p.outChanged {
			changed = true
		}
		if settle {
			if p.stateChanged {
				nw.bumpEpoch(n)
				epochBumpN++
			}
			if p.outChanged || p.stateChanged {
				// Not a local fixed point yet: stay on the frontier.
				nw.markDirtyIdx(slot)
				changed = true
				unsettledN++
			} else {
				settledN++
			}
		} else {
			// The full sweep keeps no pre-round copy to diff against, so
			// every executed peer is stamped (conservative: epoch-keyed
			// caches rebuild each round but never serve stale state).
			nw.bumpEpoch(n)
			epochBumpN++
		}
		// lastFlow adopts the batch template (taking over the builder's
		// reference); the old generation loses its sender reference and
		// dies once the commit's repoints have migrated every surviving
		// bucket. The scratch output buffer is recycled for the peer's
		// next run, right-sized when its capacity is a transient-peak
		// leftover.
		if p.outChanged {
			if n.lastFlow != nil {
				releaseFlow(n.lastFlow, &nw.flow)
			}
			n.lastFlow = p.newFlow
			nw.flow.tallyBirth(p.newFlow)
			p.newFlow = nil
		}
		if settle && !p.outChanged && !p.stateChanged {
			// Local fixed point: the peer just left the frontier, and
			// its rule scratch is re-derivable on the next wake.
			// Releasing it means a settled peer holds only protocol
			// state, its standing flow, and its last output — the
			// number bench-mem tracks.
			n.scratch = ruleScratch{}
		} else if cap(out) > 4*len(out)+8 {
			n.scratch.out = nil
		} else {
			n.scratch.out = out[:0]
		}
		results[i] = nodeResult{} // release the output alias
	}

	woken := 0
	if len(ownerChanged) > 0 || len(viewChanged) > 0 {
		fBefore := len(nw.frontier)
		nw.wakeDependents(ownerChanged, viewChanged)
		woken = len(nw.frontier) - fBefore
		clear(ownerChanged)
		clear(viewChanged)
	}

	// Barrier flush: one atomic add per counter for the whole batch.
	m := &nw.met
	m.Batches.Inc()
	m.Activated.Add(uint64(len(active)))
	m.Delivered.Add(uint64(deliveredN))
	m.Settled.Add(uint64(settledN))
	m.Unsettled.Add(uint64(unsettledN))
	m.EpochBumps.Add(uint64(epochBumpN))
	m.Woken.Add(uint64(woken))
	for k, f := range ruleFired {
		if f != 0 {
			m.RuleFired[k].Add(f)
		}
	}
	nw.flushFlowGauges()
	nw.bt = batchTimes{start: t0, deliver: tDeliver, execute: tExecute, prepare: tPrepare, commit: tCommit, end: time.Now()}
	return changed
}

// finishBatch closes the batch once its scheduler has consumed the
// effect lists. The reroute phase is the effect application: the
// commit plus the scheduler's consumption since runBatch returned; the
// publish phase is the serial epilogue (settle bookkeeping, change-set
// merge, dependent wakes).
func (nw *Network) finishBatch() {
	b := &nw.bt
	consume := time.Since(b.end)
	m := &nw.met
	m.PhaseDeliver.Observe(float64(b.deliver.Sub(b.start)))
	m.PhaseExecute.Observe(float64(b.execute.Sub(b.deliver)))
	m.PhasePrepare.Observe(float64(b.prepare.Sub(b.execute)))
	m.PhaseReroute.Observe(float64(b.commit.Sub(b.prepare) + consume))
	m.PhasePublish.Observe(float64(b.end.Sub(b.commit)))
	// Drop the batch arrays (and the vnode clones pinned by the settle
	// buffers, and the message buffers pinned by the prep scratch) once
	// the frontier has contracted well below their capacity: keeping
	// them would retain a near-full copy of the network's peak-round
	// state for the rest of the run.
	if len(nw.bActive)*4 < cap(nw.results) {
		nw.results, nw.pres, nw.prep = nil, nil, nil
	}
}

// flushFlowGauges publishes the flow-storage accounting to the
// telemetry gauges: one atomic store per gauge per batch (or churn
// operation), never on the per-message path. A quiescent Step does not
// reach this — its telemetry cost stays one atomic increment.
func (nw *Network) flushFlowGauges() {
	m := &nw.met
	m.FlowTemplates.Set(int64(nw.flow.births - nw.flow.deaths))
	m.FlowResidentBytes.Set(int64(nw.flow.residentBytes))
	m.FlowSharedBytes.Set(int64(nw.flow.sharedBytes))
	m.FlowUniqueBytes.Set(int64(nw.flow.uniqueBytes))
	m.FlowInstallsShared.Set(int64(nw.flow.installsShared))
	m.FlowInstallsCopied.Set(int64(nw.flow.installsCopied))
}

// nodeResult carries one peer's delayed effects out of the parallel
// section.
type nodeResult struct {
	out          []Message
	made, killed int
	// delivered counts the messages phase 1 applied at this peer
	// (one-shot inbox entries plus standing-bucket messages); fired
	// tallies rules 1-6 actions from phase 2. Both are plain batch-local
	// integers, summed serially at the barrier and flushed to the
	// telemetry counters with one atomic add each — the hot path never
	// touches shared state.
	delivered int
	fired     [obs.NumRules]uint32
	// hchanged reports whether the peer's content hashes changed over
	// the run: the settle decision (see hash.go).
	hchanged bool
}

// Snapshot is a deep copy of the network state at a round boundary,
// used for fixed-point detection and analysis.
type Snapshot struct {
	Round int
	nodes map[ident.ID]*RealNode
}

// TakeSnapshot deep-copies the current state (including pending
// inboxes, which are part of the global state of the synchronous
// model).
func (nw *Network) TakeSnapshot() *Snapshot {
	s := &Snapshot{Round: nw.round, nodes: make(map[ident.ID]*RealNode, nw.pt.live)}
	for _, n := range nw.pt.nodes {
		if n != nil {
			s.nodes[n.id] = n.clone()
		}
	}
	return s
}

// Equal reports whether two snapshots are identical global states.
func (s *Snapshot) Equal(o *Snapshot) bool {
	if len(s.nodes) != len(o.nodes) {
		return false
	}
	for id, n := range s.nodes {
		on, ok := o.nodes[id]
		if !ok || !n.equal(on) {
			return false
		}
	}
	return true
}

// Graph exports the current state as a graph snapshot over all real
// and virtual nodes with their marked edges. Edges pending in inboxes
// (delayed assignments already issued, visible next round) are
// included: in the synchronous model they are part of the global
// state, and the steady-state connection- and ring-edge flows live
// there at round boundaries.
func (nw *Network) Graph() *graph.Graph {
	g := graph.New()
	for _, id := range nw.order {
		n := nw.pt.node(id)
		for _, v := range n.vnodesByLevel() {
			g.AddNode(v.Self)
			for _, r := range v.Nu.Slice() {
				g.AddEdge(v.Self, r, graph.Unmarked)
			}
			for _, r := range v.Nr.Slice() {
				g.AddEdge(v.Self, r, graph.Ring)
			}
			for _, r := range v.Nc.Slice() {
				g.AddEdge(v.Self, r, graph.Connection)
			}
		}
	}
	for _, id := range nw.order {
		for _, msg := range nw.pt.node(id).inboxMessages() {
			if msg.To != msg.Add {
				g.AddEdge(msg.To, msg.Add, msg.Kind)
			}
		}
	}
	return g
}

// ReChordGraph exports E_ReChord (Section 2.2): the projection of the
// unmarked and ring edges onto the real nodes — edge (u,v) whenever
// some (u_i, v) is in E_u or E_r. Self-loops from edges between a
// peer's own virtual nodes are omitted.
func (nw *Network) ReChordGraph() *graph.Graph {
	g := graph.New()
	for _, id := range nw.order {
		g.AddNode(ref.Real(id))
	}
	for _, id := range nw.order {
		n := nw.pt.node(id)
		for _, v := range n.vnodes {
			if v == nil {
				continue
			}
			for _, set := range []ref.Set{v.Nu, v.Nr} {
				for _, r := range set.Slice() {
					if r.Owner != id {
						g.AddEdge(ref.Real(id), ref.Real(r.Owner), graph.Unmarked)
					}
				}
			}
		}
	}
	return g
}
