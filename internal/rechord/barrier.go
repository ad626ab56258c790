package rechord

import (
	"sync"
	"sync/atomic"

	"repro/internal/ident"
	"repro/internal/ref"
)

// This file is the round barrier shared by every scheduler: phase 3 of
// runBatch, split into a parallel *prepare* that turns each active
// peer's run into an ordered effect list, a serial *commit* that
// applies those lists, and a short serial epilogue.
//
//   - Prepare (parallel over active indexes): each active peer i
//     publishes its own view/level slot (view[slot], maxLv[slot] — no
//     other peer's prepare reads them, rules only read the view during
//     phase 2), takes the settle and output-change verdicts, re-derives
//     its edge-set dependency multiset when its state changed, and
//     diffs its output against the standing buckets it owns at its
//     recipients. The result lands ONLY in its own prepOut: the
//     dependency deltas and the effect list. Buckets and the dep index
//     are read, never written.
//   - Commit (serial, active order): applies each peer's dependency
//     deltas and bucket effects through writeBucket, the package's one
//     bucket write, which keeps bucketMsgs, the dep index, the flow
//     tally and the recipients' wakes in step.
//   - Epilogue (serial, active order): epoch bumps (the global epoch
//     clock is ordered state), settle bookkeeping, lastFlow swaps,
//     paranoid panics deferred out of pool goroutines, and the merge of
//     per-index change sets into the reusable viewChanged/ownerChanged
//     maps feeding wakeDependents.
//
// The effect list is the one thing the three schedulers consume
// differently, after runBatch returns and before finishBatch: the
// synchronous engine is done once it is committed; the asynchronous
// runner draws a delay for each handoff effect and ships its span as
// one-shot messages; the partition ships the waking bucket effects
// whose recipient it does not host, then its peers' publishes.
//
// Why Workers=1 and Workers=N stay snapshot-for-snapshot identical:
// prepare writes only per-index and own-slot state, and it reads only
// state no prepare writes (a sender's bucket at a recipient is keyed by
// the sender, so no two peers' diffs touch the same bucket); everything
// order-sensitive — the commit, epoch stamps, the RNG draws of the
// asynchronous runner, the partition's sink traffic — runs serially in
// active (identifier) order. The frontier is an order-insensitive SET
// (collectFrontier and the async drainFrontier sort it by identifier
// before consuming it).

// batchRun is the persistent fan-out machinery of runBatch: one task
// closure, WaitGroup and work counter reused across every batch (the
// old per-batch runOnPool closure allocated all three each round), plus
// the lazily built per-phase closures, which read the batch parameters
// from the Network's batch fields instead of capturing them.
type batchRun struct {
	wg   sync.WaitGroup
	next atomic.Int64
	n    int
	f    func(i int)
	task func()

	// per-phase bodies, built once on first use
	phase1, phase2, prepare func(i int)

	// anyInbox records that phase 1 consumed a one-shot message
	// somewhere (a global-state change even when no peer state moved).
	anyInbox atomic.Bool
}

// parallelism resolves Config.Workers: the worker count requested and
// the pool size to lazily spawn (sized from the configuration, not
// from any one round's frontier, so a small first round does not cap
// later large rounds).
func (nw *Network) parallelism() int {
	w := nw.cfg.Workers
	if w <= 0 {
		w = defaultWorkers()
	}
	return w
}

// runParallel fans f(i) for i in [0, n) over the worker pool; f must
// only touch per-index/per-peer state. w <= 1 — or a single item —
// runs inline on the caller's goroutine, which is also what keeps
// paranoid panics recoverable in the serial configuration.
func (nw *Network) runParallel(w, poolSize, n int, f func(i int)) {
	if n == 0 {
		return
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	pool := nw.ensurePool(poolSize)
	if w > pool.size {
		w = pool.size
	}
	br := &nw.br
	if br.task == nil {
		br.task = func() {
			defer br.wg.Done()
			for {
				i := int(br.next.Add(1)) - 1
				if i >= br.n {
					return
				}
				br.f(i)
			}
		}
	}
	br.n, br.f = n, f
	br.next.Store(0)
	br.wg.Add(w)
	for k := 0; k < w; k++ {
		pool.tasks <- br.task
	}
	br.wg.Wait()
	br.f = nil // do not pin a stale closure between batches
}

// prepOut is the per-active-index output of the parallel prepare
// sub-phase. Entries are reused across batches (sized alongside
// results/pres and dropped with them when the frontier contracts).
type prepOut struct {
	ownerChanged bool // the peer's level span moved
	outChanged   bool // total output differs from lastOut
	stateChanged bool // the settle decision (content hashes moved)
	paranoidBad  bool // clone cross-check disagreed; panic in epilogue

	// viewRefs lists the virtual refs whose published rl/rr entry
	// changed this batch (merged into the barrier's viewChanged map by
	// the epilogue). Together with ownerChanged it is the peer's
	// publish set.
	viewRefs []ref.Ref

	// newFlow is the freshly frozen template of this batch's output,
	// built whenever outChanged. It carries one reference that the
	// epilogue hands to the peer's lastFlow.
	newFlow *flowTemplate

	// effects is the peer's effect list: its bucket rewrites at its
	// recipients (spans of the batch template — newFlow, or lastFlow
	// when the output did not change), in the order prepFlowEffects or
	// prepAsyncEffects emits them. deps are the dependency-index deltas
	// of the peer's own edge-set change.
	effects []bucketEffect
	deps    []depDelta

	// scratch: recipient grouping (frozen into newFlow before the
	// commit), the output-diff cursors, the template symbol collector,
	// and the stateDeps diff buffers.
	groups  []rrGroup
	cursors []uint32
	symbuf  []ident.ID
	owners  []ident.ID
	counts  []ownerCount
}

// effectKind says how writeBucket applies a bucket effect.
type effectKind uint8

const (
	// effSet rewrites the bucket (span -1 deletes it) and wakes the
	// recipient: its standing input changed.
	effSet effectKind = iota
	// effQuiet rewrites the bucket without waking the recipient: the
	// asynchronous runner's run-stable install, whose content already
	// reached the recipient as one-shot messages.
	effQuiet
	// effRepoint moves a content-identical bucket to the batch template,
	// a storage-only change that lets the old generation die.
	effRepoint
	// effShot is the asynchronous runner's handoff: the commit drops the
	// bucket quietly, and the runner ships the span as one-shot messages
	// after a drawn delay.
	effShot
)

// bucketEffect is one entry of a peer's effect list: make the peer's
// standing bucket at the recipient slot hold span `span` of the batch
// template, or hold nothing when span is -1.
type bucketEffect struct {
	dst  uint32
	span int32
	kind effectKind
}

// depDelta is one inverted-index adjustment from the peer's own slot:
// k > 0 adds, k < 0 removes references to the identifier.
type depDelta struct {
	id ident.ID
	k  int32
}

// prepareIndex is the parallel prepare body for active index i: the
// publish diff, the settle verdicts, the dependency deltas and the
// effect list. Writes touch only the peer's own view/maxLv/stateDeps
// slots and prep[i].
func (nw *Network) prepareIndex(i int) {
	slot := nw.bActive[i]
	n := nw.pt.nodes[slot]
	res := &nw.results[i]
	p := &nw.prep[i]
	p.viewRefs = p.viewRefs[:0]
	p.effects = p.effects[:0]
	p.deps = p.deps[:0]
	p.ownerChanged, p.paranoidBad = false, false

	id := n.id
	// Publish the peer's level so other peers' purges detect stale
	// references to its deleted virtual nodes. Own-slot write: nothing
	// else reads maxLv or the view during prepare.
	oldMax := int(nw.pt.maxLv[slot])
	newMax := n.MaxLevel()
	if newMax != oldMax {
		nw.pt.maxLv[slot] = int32(newMax)
		p.ownerChanged = true
	}
	// Publish rl/rr changes (including entries of deleted levels).
	vs := nw.view[slot]
	for lvl := newMax + 1; lvl < len(vs); lvl++ {
		if vs[lvl] != (viewEntry{}) {
			p.viewRefs = append(p.viewRefs, ref.Virtual(id, lvl))
		}
	}
	if len(vs) > newMax+1 {
		vs = vs[:newMax+1]
	}
	for len(vs) <= newMax {
		vs = append(vs, viewEntry{})
	}
	for lvl, v := range n.vnodes {
		cur := viewEntry{}
		if v != nil {
			cur = publish(v)
		}
		if vs[lvl] != cur {
			vs[lvl] = cur
			p.viewRefs = append(p.viewRefs, ref.Virtual(id, lvl))
		}
	}
	nw.view[slot] = vs

	// The settle decision is the phase-2 hash comparison; ParanoidSettle
	// re-derives it from the deep clone and insists they agree. The
	// panic is deferred to the serial epilogue: a panic raised on a pool
	// goroutine could not be recovered by the tests that prove the
	// paranoid mode catches injected collisions.
	p.stateChanged = false
	if nw.bMode != batchSweep {
		p.stateChanged = res.hchanged
		if nw.cfg.ParanoidSettle {
			if cloneChanged := !n.vnodesEqual(nw.pres[i]); cloneChanged != p.stateChanged {
				p.paranoidBad = true
			}
		}
	}
	if nw.cfg.ParanoidSettle && n.lastFlow != nil {
		// Write barrier over the shared representation: any in-place
		// mutation of the (immutable) template since build panics here.
		n.lastFlow.verify("lastFlow of " + id.String())
	}
	p.outChanged = !flowEqualsOutput(n.lastFlow, res.out, &p.cursors)
	p.newFlow = nil
	if p.outChanged {
		nw.prepFlow(res.out, p)
	}

	if res.hchanged {
		// The peer's edge sets changed: re-derive its dependency
		// contribution and turn the diff into commit deltas.
		nw.prepStateDeps(slot, n, p)
	}
	if nw.bMode == batchAsync {
		nw.prepAsyncEffects(n, p)
	} else if p.outChanged {
		nw.prepFlowEffects(n, p)
	}
}

// prepStateDeps recomputes the peer's edge-set dependency multiset,
// replaces its stateDeps slot with it (an own-slot write) and appends
// the difference to the stored one to p.deps, for applyDeps.
func (nw *Network) prepStateDeps(slot uint32, n *RealNode, p *prepOut) {
	buf := p.owners[:0]
	for _, v := range n.vnodes {
		if v == nil {
			continue
		}
		for _, r := range v.Nu.Slice() {
			buf = append(buf, r.Owner)
		}
		for _, r := range v.Nr.Slice() {
			buf = append(buf, r.Owner)
		}
		for _, r := range v.Nc.Slice() {
			buf = append(buf, r.Owner)
		}
	}
	ident.Sort(buf)
	p.owners = buf

	nc := p.counts[:0]
	for i := 0; i < len(buf); {
		j := i
		for j < len(buf) && buf[j] == buf[i] {
			j++
		}
		nc = append(nc, ownerCount{owner: buf[i], cnt: uint32(j - i)})
		i = j
	}
	p.counts = nc

	old := nw.stateDeps[slot]
	i, j := 0, 0
	for i < len(old) || j < len(nc) {
		switch {
		case j == len(nc) || (i < len(old) && old[i].owner < nc[j].owner):
			p.deps = append(p.deps, depDelta{id: old[i].owner, k: -int32(old[i].cnt)})
			i++
		case i == len(old) || nc[j].owner < old[i].owner:
			p.deps = append(p.deps, depDelta{id: nc[j].owner, k: int32(nc[j].cnt)})
			j++
		default:
			if nc[j].cnt != old[i].cnt {
				p.deps = append(p.deps, depDelta{id: nc[j].owner, k: int32(nc[j].cnt) - int32(old[i].cnt)})
			}
			i++
			j++
		}
	}
	nw.stateDeps[slot] = append(old[:0], nc...)
}

// applyDeps applies the peer slot's dependency deltas to the index.
func (nw *Network) applyDeps(slot uint32, deps []depDelta) {
	for _, d := range deps {
		if d.k > 0 {
			nw.deps.add(d.id, slot, uint32(d.k))
		} else {
			nw.deps.remove(d.id, slot, uint32(-d.k))
		}
	}
}

// groupByRecipient sorts out into per-recipient groups (preserving
// per-recipient emission order) using groups as reusable storage.
// Returns the grown storage and the number of live groups.
func groupByRecipient(groups []rrGroup, out []Message) ([]rrGroup, int) {
	ng := 0
	for _, m := range out {
		owner := m.To.Owner
		lo, hi := 0, ng
		for lo < hi {
			mid := (lo + hi) / 2
			if groups[mid].owner < owner {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == ng || groups[lo].owner != owner {
			if ng == len(groups) {
				groups = append(groups, rrGroup{})
			}
			ins := groups[ng] // recycle the spare entry's msgs buffer
			copy(groups[lo+1:ng+1], groups[lo:ng])
			ins.owner = owner
			ins.msgs = ins.msgs[:0]
			groups[lo] = ins
			ng++
		}
		groups[lo].msgs = append(groups[lo].msgs, m)
	}
	return groups, ng
}

// prepFlow freezes the sender's new output into p.newFlow. The
// template is born with one reference, which the epilogue hands to the
// peer's lastFlow; bucket installs take their own.
func (nw *Network) prepFlow(out []Message, p *prepOut) {
	var ng int
	p.groups, ng = groupByRecipient(p.groups, out)
	p.newFlow, p.symbuf = buildFlow(p.groups, ng, len(out), p.symbuf)
}

// prepFlowEffects is the synchronous rule: every recipient span of the
// new template that differs from the standing bucket is rewritten
// (waking the recipient), recipients of the old flow with no new
// contribution lose their bucket, and unchanged contributions are
// repointed at the new generation. Deletions come first, then the new
// spans in recipient order — the order the partition ships them in.
func (nw *Network) prepFlowEffects(n *RealNode, p *prepOut) {
	nf := p.newFlow
	if old := n.lastFlow; old != nil {
		for _, sp := range old.spans {
			if nf.findSpan(sp.owner) < 0 {
				nw.prepEffect(n, sp.owner, nf, -1, false, p)
			}
		}
	}
	for si := range nf.spans {
		nw.prepEffect(n, nf.spans[si].owner, nf, int32(si), false, p)
	}
}

// prepAsyncEffects is the asynchronous runner's three-way rule, decided
// per recipient link in identifier order (the order the runner draws
// the handoffs' delays in):
//
//   - A contribution that did not change since the sender's last run is
//     run-stable: it is (if not yet) installed as the standing bucket,
//     without waking the recipient — its content already reached the
//     recipient when it last changed.
//   - A changed contribution of a STATE-STABLE run is a relay flow
//     (rules 3, 5 and 6 keep re-deriving it from unchanged state) and is
//     rewritten into the standing bucket exactly like the synchronous
//     rule does, so every downstream run sees the same input view and
//     relay chains stop flapping with arrival phases.
//   - A changed contribution of a STATE-CHANGING run is a handoff (a
//     rule-4 forward moves an edge out of the sender's state into the
//     message): the bucket is revoked, and the new version travels as
//     one-shot messages, consumed exactly once — never replayed out of a
//     bucket after the system moved past it. A handoff to no
//     contribution deletes the bucket and wakes the recipient.
func (nw *Network) prepAsyncEffects(n *RealNode, p *prepOut) {
	lf := n.lastFlow
	if !p.outChanged {
		if lf != nil {
			for si := range lf.spans {
				nw.prepEffect(n, lf.spans[si].owner, lf, int32(si), true, p)
			}
		}
		return
	}
	nf := p.newFlow
	var old []flowSpan
	if lf != nil {
		old = lf.spans
	}
	for i, j := 0, 0; i < len(old) || j < len(nf.spans); {
		oi, ni := int32(-1), int32(-1)
		var dstID ident.ID
		switch {
		case j == len(nf.spans) || (i < len(old) && old[i].owner < nf.spans[j].owner):
			dstID, oi = old[i].owner, int32(i)
			i++
		case i == len(old) || nf.spans[j].owner < old[i].owner:
			dstID, ni = nf.spans[j].owner, int32(j)
			j++
		default:
			dstID, oi, ni = old[i].owner, int32(i), int32(j)
			i++
			j++
		}
		switch {
		case oi >= 0 && ni >= 0 && spansEqual(lf, oi, nf, ni):
			nw.prepEffect(n, dstID, nf, ni, true, p)
		case !p.stateChanged || ni < 0:
			nw.prepEffect(n, dstID, nf, ni, false, p)
		default:
			if slot, ok := nw.pt.lookup(dstID); ok {
				p.effects = append(p.effects, bucketEffect{dst: slot, span: ni, kind: effShot})
			}
		}
	}
}

// prepEffect appends the effect that makes n's bucket at the recipient
// hold span si of t (nothing when si < 0), if the bucket does not
// already; quiet turns a waking rewrite into a silent one. Departed
// recipients get no effect.
func (nw *Network) prepEffect(n *RealNode, dstID ident.ID, t *flowTemplate, si int32, quiet bool, p *prepOut) {
	slot, ok := nw.pt.lookup(dstID)
	if !ok {
		return
	}
	kind, ok := diffBucket(nw.pt.nodes[slot], n.h(), t, si)
	if !ok {
		return
	}
	if quiet && kind == effSet {
		kind = effQuiet
	}
	p.effects = append(p.effects, bucketEffect{dst: slot, span: si, kind: kind})
}

// diffBucket decides how the sender's bucket at dst must change to hold
// span si of t (nothing when si < 0): a rewrite when the content
// differs, a repoint when only a shared template generation does, and
// ok=false when the bucket is already right. It only reads the bucket.
func diffBucket(dst *RealNode, sender handle, t *flowTemplate, si int32) (kind effectKind, ok bool) {
	bi := dst.findBucket(sender)
	if bi < 0 {
		return effSet, si >= 0
	}
	if si < 0 {
		return effSet, true
	}
	old := dst.in[bi]
	if !spansEqual(old.flow, old.span, t, si) {
		return effSet, true
	}
	// Private templates (partition shadows, test copies) pin no shared
	// generation, so only shared-to-shared moves are worth a repoint.
	return effRepoint, old.flow != t && !old.flow.private && !t.private
}

// commit applies the batch's dependency deltas and effect lists,
// serially in active order. Bucket effects index the peer's batch
// template: newFlow when its output changed, lastFlow otherwise.
func (nw *Network) commit(active []uint32) {
	for i, slot := range active {
		p := &nw.prep[i]
		nw.applyDeps(slot, p.deps)
		if len(p.effects) == 0 {
			continue
		}
		n := nw.pt.nodes[slot]
		h, t := n.h(), p.newFlow
		if t == nil {
			t = n.lastFlow
		}
		for _, e := range p.effects {
			si, kind := e.span, e.kind
			if kind == effShot {
				si, kind = -1, effQuiet
			}
			nw.writeBucket(nw.pt.nodes[e.dst], h, t, si, kind)
		}
	}
}
