package rechord

import (
	"fmt"

	"repro/internal/ident"
	"repro/internal/ref"
)

// This file is the partitioned scheduler: the piece that lets one
// Re-Chord network be executed by several processes, each running the
// rules for a subset of the peers ("hosted" peers) while holding the
// full membership as passive stubs.
//
// The design exploits two properties of the round engine. First, a
// peer's rules read only its own state, the published view of the
// peers it references (viewOf), and the static config — so a process
// that keeps its stubs' published views and max levels up to date can
// execute its hosted peers exactly as the monolith would. Second, the
// barrier's effect lists (see barrier.go) are the only points where one
// peer's execution touches another peer's inputs — so shipping the
// waking bucket effects, one-shot deliveries, and per-owner view
// publishes to the recipients' hosting processes is sufficient for
// semantic equivalence. Churn-free runs are round-for-round identical
// to the monolith; runs with churn skew by at most the op round and
// converge to the same unique stable topology (the paper's
// self-stabilization theorem), which the wire equivalence gate checks
// via StateFingerprint.
//
// Each round, every process: applies the round's membership ops, steps
// its hosted frontier, hands the resulting cross-partition effects to
// its PartitionSink, and then applies the effects received from every
// other process before the next round begins. The exchange protocol
// itself (frames, transports, the lockstep barrier) lives in
// internal/wire; this file only defines the effect payloads and their
// local application.

// BucketUpdate mirrors one sender's standing contribution at one
// recipient: the wire form of a waking bucket effect. Empty Msgs
// deletes the bucket.
type BucketUpdate struct {
	From, To ident.ID
	Msgs     []Message
}

// OneShot delivers messages to one peer's one-shot inbox: goodbye
// introductions from a graceful leave and final flushes of a departed
// sender's standing flow travel this way.
type OneShot struct {
	To   ident.ID
	Msgs []Message
}

// PublishedView is one virtual level's published rl/rr tuple, the wire
// form of the engine's internal view entry.
type PublishedView struct {
	RL, RR       ref.Ref
	HasRL, HasRR bool
}

// PeerPublish replicates one hosted peer's published state — max
// virtual level and the full per-level view — to the processes holding
// it as a stub. Receivers diff it against their replica, so applying
// it reproduces the monolith barrier's exact wake set.
type PeerPublish struct {
	Owner    ident.ID
	MaxLevel int
	Views    []PublishedView
}

// PartitionSink receives the cross-partition effects of one local
// round. Buckets and one-shots are addressed (the recipient's hosting
// process applies them; applying them everywhere is also sound, since
// bucket rewrites are idempotent and one-shot application is
// hosted-gated); publishes are broadcast. Slices passed in are owned
// by the callee.
type PartitionSink interface {
	SendBucket(u BucketUpdate)
	SendOneShot(u OneShot)
	PublishState(p PeerPublish)
}

// Partition executes the hosted subset of a replicated Network. The
// network must be built identically at every process (same topology
// generator, same seed, same op sequence) so that membership, slot
// assignment and initial state agree everywhere.
type Partition struct {
	nw     *Network
	hosted func(ident.ID) bool
	sink   PartitionSink
}

var _ Scheduler = (*Partition)(nil)

// NewPartition wraps the network for partitioned execution. hosted
// decides which peers this process runs; sink (may be nil for
// single-process use) receives the cross-partition effects.
func NewPartition(nw *Network, hosted func(ident.ID) bool, sink PartitionSink) *Partition {
	return &Partition{nw: nw, hosted: hosted, sink: sink}
}

// Network returns the underlying (replicated) network.
func (p *Partition) Network() *Network { return p.nw }

// Time returns the global round counter.
func (p *Partition) Time() int { return p.nw.round }

// LastChange returns the last round whose local execution changed
// hosted state.
func (p *Partition) LastChange() int { return p.nw.lastChange }

// InFlight counts locally standing messages (hosted and shadow
// buckets plus pending inboxes).
func (p *Partition) InFlight() int { return p.nw.InFlight() }

// Wake schedules a hosted peer; waking a stub is a no-op at this
// process (its host wakes it).
func (p *Partition) Wake(id ident.ID) {
	if p.hosted(id) {
		p.nw.Wake(id)
	}
}

// Quiescent reports whether any HOSTED peer is scheduled to run.
// Stubs on the frontier don't count: they were woken as bookkeeping
// side effects and are filtered out of every batch anyway.
func (p *Partition) Quiescent() bool {
	for _, slot := range p.nw.frontier {
		if n := p.nw.pt.nodes[slot]; n != nil && n.dirty && p.hosted(n.id) {
			return false
		}
	}
	return true
}

// Fingerprint digests this partition's hosted protocol state. XOR of
// every partition's value equals the monolith's StateFingerprint(nil).
func (p *Partition) Fingerprint() uint64 { return p.nw.StateFingerprint(p.hosted) }

// HostedPeers counts the peers this process executes.
func (p *Partition) HostedPeers() int {
	c := 0
	for _, n := range p.nw.pt.nodes {
		if n != nil && p.hosted(n.id) {
			c++
		}
	}
	return c
}

// Step runs one global round's hosted share: collect the frontier,
// keep the hosted slots, run the batch, and ship its cross-partition
// effects to the sink. The caller exchanges them and applies the other
// processes' effects (ApplyBucket/ApplyOneShot/ApplyPublish) before the
// next Step.
func (p *Partition) Step() RoundStats {
	nw := p.nw
	nw.round++
	nw.met.Steps.Inc()
	stats := RoundStats{Round: nw.round}

	active := nw.collectFrontier()
	// Drop the stubs: their hosting processes run them. The filter
	// preserves the sorted order collectFrontier established.
	hosted := active[:0]
	for _, slot := range active {
		if p.hosted(nw.pt.ids[slot]) {
			hosted = append(hosted, slot)
		}
	}
	nw.active = hosted
	stats.Activated = len(hosted)
	if len(hosted) == 0 {
		stats.MessagesSent = nw.bucketMsgs
		return stats
	}
	if nw.runBatch(hosted, batchSync, &stats) {
		nw.lastChange = nw.round
	}
	p.ship(hosted)
	nw.finishBatch()
	stats.MessagesSent = nw.bucketMsgs
	return stats
}

// ship sends the batch's cross-partition effects to the sink: every
// waking bucket effect whose recipient lives elsewhere (local stubs
// carry shadow buckets, so the commit already rewrote them here), per
// sender in effect-list order, then the publish of every peer whose
// published state (view or max level) moved, in active order.
// Receivers diff a publish against their replica, so one full-state
// publish per changed peer keeps their wake sets exact.
func (p *Partition) ship(active []uint32) {
	if p.sink == nil {
		return
	}
	nw := p.nw
	for i, slot := range active {
		n := nw.pt.nodes[slot]
		for _, e := range nw.prep[i].effects {
			dst := nw.pt.ids[e.dst]
			if e.kind != effSet || p.hosted(dst) {
				continue
			}
			var msgs []Message
			if e.span >= 0 {
				msgs = n.lastFlow.appendSpan(nil, e.span)
			}
			p.sink.SendBucket(BucketUpdate{From: n.id, To: dst, Msgs: msgs})
		}
	}
	for i, slot := range active {
		if pr := &nw.prep[i]; !pr.ownerChanged && len(pr.viewRefs) == 0 {
			continue
		}
		src := nw.view[slot]
		views := make([]PublishedView, len(src))
		for k, e := range src {
			views[k] = PublishedView{RL: e.rl, RR: e.rr, HasRL: e.hasRL, HasRR: e.hasRR}
		}
		p.sink.PublishState(PeerPublish{Owner: nw.pt.ids[slot], MaxLevel: int(nw.pt.maxLv[slot]), Views: views})
	}
}

// ApplyBucket installs a remote sender's standing contribution. Safe
// to apply at every process: at the sender's own host the shadow was
// already written and the rewrite dedups to a no-op; elsewhere it
// keeps the stub-to-stub shadows consistent. The contribution lives in
// a private single-span template — the stub sender has no local flow
// generation to share.
func (p *Partition) ApplyBucket(u BucketUpdate) {
	nw := p.nw
	from, ok := nw.pt.lookup(u.From)
	if !ok {
		return // sender departed via an op this process already applied
	}
	to, ok := nw.pt.lookup(u.To)
	if !ok {
		return
	}
	var t *flowTemplate
	si := int32(-1)
	if len(u.Msgs) > 0 {
		t, si = buildPrivateFlow(u.To, u.Msgs), 0
		nw.flow.tallyBirth(t)
		defer releaseFlow(t, &nw.flow)
	}
	dst, h := nw.pt.nodes[to], nw.pt.nodes[from].h()
	if kind, ok := diffBucket(dst, h, t, si); ok {
		nw.writeBucket(dst, h, t, si, kind)
	}
}

// ApplyOneShot delivers messages to a hosted recipient's inbox.
// Non-hosted recipients are skipped: their own host applies its copy,
// and accepting it here would re-enter the stub-inbox sweep.
func (p *Partition) ApplyOneShot(u OneShot) {
	if !p.hosted(u.To) {
		return
	}
	nw := p.nw
	slot, ok := nw.pt.lookup(u.To)
	if !ok {
		return
	}
	n := nw.pt.nodes[slot]
	n.inbox = append(n.inbox, u.Msgs...)
	nw.markDirtyIdx(slot)
}

// ApplyPublish updates a stub's replicated published state, diffing it
// against the current replica and waking exactly the local dependents
// the monolith barrier would have woken. Publishes about peers hosted
// here are ignored (the local copy is authoritative).
func (p *Partition) ApplyPublish(u PeerPublish) {
	if p.hosted(u.Owner) {
		return
	}
	nw := p.nw
	slot, ok := nw.pt.lookup(u.Owner)
	if !ok {
		return
	}
	var owners map[ident.ID]bool
	if int32(u.MaxLevel) != nw.pt.maxLv[slot] {
		nw.pt.maxLv[slot] = int32(u.MaxLevel)
		owners = map[ident.ID]bool{u.Owner: true}
	}
	var refs map[ref.Ref]bool
	markRef := func(lvl int) {
		if refs == nil {
			refs = make(map[ref.Ref]bool)
		}
		refs[ref.Virtual(u.Owner, lvl)] = true
	}
	vs := nw.view[slot]
	for lvl := len(u.Views); lvl < len(vs); lvl++ {
		if vs[lvl] != (viewEntry{}) {
			markRef(lvl)
		}
	}
	if len(u.Views) < len(vs) {
		vs = vs[:len(u.Views)]
	}
	for lvl, pv := range u.Views {
		e := viewEntry{rl: pv.RL, rr: pv.RR, hasRL: pv.HasRL, hasRR: pv.HasRR}
		if lvl < len(vs) {
			if vs[lvl] != e {
				vs[lvl] = e
				markRef(lvl)
			}
		} else {
			vs = append(vs, e)
			if e != (viewEntry{}) {
				markRef(lvl)
			}
		}
	}
	nw.view[slot] = vs
	if len(owners) > 0 || len(refs) > 0 {
		nw.wakeDependents(owners, refs)
	}
}

// ApplyJoin integrates a scripted join: the membership change is
// replicated everywhere (Join), and if the joiner is hosted elsewhere,
// the hosted senders' standing flow that AddPeer re-materialized into
// the local stub is mirrored to the joiner's host, which cannot see
// those senders' flow templates.
func (p *Partition) ApplyJoin(id, contact ident.ID) error {
	if err := p.nw.Join(id, contact); err != nil {
		return err
	}
	if p.hosted(id) || p.sink == nil {
		return nil
	}
	for _, s := range p.nw.pt.nodes {
		if s == nil || s.id == id || !p.hosted(s.id) || s.lastFlow == nil {
			continue
		}
		si := s.lastFlow.findSpan(id)
		if si < 0 {
			continue
		}
		p.sink.SendBucket(BucketUpdate{From: s.id, To: id, Msgs: s.lastFlow.appendSpan(nil, si)})
	}
	return nil
}

// ApplyLeave integrates a scripted graceful leave. Only the departing
// peer's host generates the goodbye introductions (it holds the live
// state they are derived from); every other process performs the
// scan-based removal. Goodbyes and final bucket flushes addressed to
// remote peers land in stub inboxes and are swept to the sink.
func (p *Partition) ApplyLeave(id ident.ID) error {
	if p.hosted(id) {
		if err := p.nw.Leave(id); err != nil {
			return err
		}
	} else if err := p.removeStub(id, "leave"); err != nil {
		return err
	}
	p.sweepStubInboxes()
	return nil
}

// ApplyFail integrates a scripted abrupt failure: removal everywhere,
// no goodbyes.
func (p *Partition) ApplyFail(id ident.ID) error {
	if p.hosted(id) {
		if err := p.nw.Fail(id); err != nil {
			return err
		}
	} else if err := p.removeStub(id, "fail"); err != nil {
		return err
	}
	p.sweepStubInboxes()
	return nil
}

// removeStub is removePeer for a peer hosted elsewhere. The departed
// stub has no trustworthy flow template, so the final-delivery walk is
// a scan over every local peer's standing buckets for the departed
// handle instead: hosted recipients get the flush-to-inbox the
// monolith performs, stub recipients just drop the shadow (their own
// hosts flush their copies).
func (p *Partition) removeStub(id ident.ID, op string) error {
	nw := p.nw
	n := nw.pt.node(id)
	if n == nil {
		return fmt.Errorf("rechord: partition %s: peer %s not in network", op, id)
	}
	h := n.h()
	nw.view[n.idx] = nil
	nw.vhash[n.idx] = nw.vhash[n.idx][:0]
	nw.dropStateDeps(n.idx)
	nw.pt.release(n)
	nw.removeOrder(id)
	nw.dropInbound(n)
	if n.lastFlow != nil {
		releaseFlow(n.lastFlow, &nw.flow)
		n.lastFlow = nil
	}
	for _, dst := range nw.pt.nodes {
		switch {
		case dst == nil:
		case p.hosted(dst.id):
			nw.flushBucket(dst, h)
		default:
			nw.writeBucket(dst, h, nil, -1, effQuiet)
		}
	}
	nw.flushFlowGauges()
	nw.wakeDependents(map[ident.ID]bool{id: true}, nil)
	return nil
}

// sweepStubInboxes forwards one-shot messages that churn handling
// parked on local stubs to the sink (their hosts deliver them for
// real). Only op application parks messages on stubs, so the sweep
// runs after ops, not every round.
func (p *Partition) sweepStubInboxes() {
	if p.sink == nil {
		return
	}
	for _, n := range p.nw.pt.nodes {
		if n == nil || len(n.inbox) == 0 || p.hosted(n.id) {
			continue
		}
		p.sink.SendOneShot(OneShot{To: n.id, Msgs: append([]Message(nil), n.inbox...)})
		n.inbox = n.inbox[:0]
	}
}
