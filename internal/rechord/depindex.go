package rechord

import (
	"fmt"
	"sort"

	"repro/internal/ident"
	"repro/internal/ref"
)

// This file is the inverted dependency index: for every identifier that
// appears as the owner of a reference somewhere in the network, the set
// of peer slots whose state mentions it — in their virtual nodes' edge
// sets (Nu/Nr/Nc) or in the standing inbox buckets stored at them. The
// index turns wakeDependents from a full scan over every clean peer's
// edge sets into O(|changed| x avg-fanin) lookups, which is what keeps
// barrier cost frontier-proportional as n grows.
//
// Granularity is the referenced OWNER identifier, not the exact ref:
// references can target identifiers that are not (or no longer) in the
// network, so keying by interner slot would lose exactly the
// departed-peer and rejoin wakes that matter most. For owner-level
// changes (departure, arrival, level-set change) the dependents list is
// precisely the scan's wake set; for published rl/rr changes of a
// single virtual node the list is a superset of candidates, and each
// candidate is verified with holdsRef before waking — so the indexed
// wake set equals the scan's exactly, which the lockstep test and
// Config.ParanoidSettle assert.
//
// The one-shot inbox is intentionally NOT indexed: a peer with a
// non-empty inbox is always dirty (routeMessage, delivery events and
// removePeer's final flush all mark the recipient), and wakeDependents
// only considers clean peers. The scan reads the inbox only to cover
// the same (vacuous) case.
//
// Maintenance points:
//   - edge sets: recomputed per peer in the barrier's prepare
//     (prepStateDeps), gated on the peer's content hash having changed,
//     applied by the commit, and at the out-of-band mutation points
//     (AddPeer, SeedEdge, fixture rebuilds);
//   - buckets: updated by writeBucket, the one function that writes
//     them.

// depEntry is one dependent peer slot with the number of references it
// holds to the indexed identifier.
type depEntry struct {
	peer uint32
	cnt  uint32
}

// depIndex maps identifiers to their dependents. Identifiers get dense
// keys through keyOf (recycled via a free list when their last
// dependent disappears); each dependents list is kept sorted by slot so
// updates are binary searches. Reference counts commute, so the stored
// state after a batch of deltas is independent of application order.
type depIndex struct {
	keyOf map[ident.ID]uint32
	deps  [][]depEntry
	free  []uint32
}

// add records k more references from the peer slot to id.
func (d *depIndex) add(id ident.ID, peer uint32, k uint32) {
	if k == 0 {
		return
	}
	if d.keyOf == nil {
		d.keyOf = make(map[ident.ID]uint32)
	}
	key, ok := d.keyOf[id]
	if !ok {
		if n := len(d.free); n > 0 {
			key = d.free[n-1]
			d.free = d.free[:n-1]
		} else {
			key = uint32(len(d.deps))
			d.deps = append(d.deps, nil)
		}
		d.keyOf[id] = key
	}
	l := d.deps[key]
	i := sort.Search(len(l), func(i int) bool { return l[i].peer >= peer })
	if i < len(l) && l[i].peer == peer {
		l[i].cnt += k
		return
	}
	l = append(l, depEntry{})
	copy(l[i+1:], l[i:])
	l[i] = depEntry{peer: peer, cnt: k}
	d.deps[key] = l
}

// remove forgets k references from the peer slot to id, panicking on
// underflow: an underflow means some maintenance point missed an update
// and the index no longer mirrors the true state.
func (d *depIndex) remove(id ident.ID, peer uint32, k uint32) {
	if k == 0 {
		return
	}
	key, ok := d.keyOf[id]
	var l []depEntry
	var i int
	if ok {
		l = d.deps[key]
		i = sort.Search(len(l), func(i int) bool { return l[i].peer >= peer })
	}
	if !ok || i >= len(l) || l[i].peer != peer || l[i].cnt < k {
		panic(fmt.Sprintf("rechord: dep index underflow for %s at slot %d (-%d)", id, peer, k))
	}
	l[i].cnt -= k
	if l[i].cnt == 0 {
		l = append(l[:i], l[i+1:]...)
		d.deps[key] = l
		if len(l) == 0 {
			delete(d.keyOf, id)
			d.free = append(d.free, key)
		}
	}
}

// dependents returns the peers referencing id (sorted by slot). The
// returned slice aliases the index; callers must not hold it across
// mutations.
func (d *depIndex) dependents(id ident.ID) []depEntry {
	if key, ok := d.keyOf[id]; ok {
		return d.deps[key]
	}
	return nil
}

// ownerCount is one (referenced owner, reference count) entry of a
// peer's edge-set dependency multiset, kept sorted by owner.
type ownerCount struct {
	owner ident.ID
	cnt   uint32
}

// depAddSpan / depRemoveSpan adjust the index for a standing bucket
// holding span si of the flow template at the peer slot: each message
// carries exactly one reference (the node being introduced), read
// straight off the template's symbol table.
func (nw *Network) depAddSpan(peer uint32, t *flowTemplate, si int32) {
	sp := t.spans[si]
	for i := sp.start; i < sp.end; i++ {
		nw.deps.add(t.syms[t.packed[i].sym], peer, 1)
	}
}

func (nw *Network) depRemoveSpan(peer uint32, t *flowTemplate, si int32) {
	sp := t.spans[si]
	for i := sp.start; i < sp.end; i++ {
		nw.deps.remove(t.syms[t.packed[i].sym], peer, 1)
	}
}

// stateDepAdd records one more edge-set reference from the peer slot
// to the owner in the stored per-peer multiset (the index itself is
// updated by the caller). Used by SeedEdge's incremental path.
func (nw *Network) stateDepAdd(slot uint32, owner ident.ID) {
	l := nw.stateDeps[slot]
	i := sort.Search(len(l), func(i int) bool { return l[i].owner >= owner })
	if i < len(l) && l[i].owner == owner {
		l[i].cnt++
		return
	}
	l = append(l, ownerCount{})
	copy(l[i+1:], l[i:])
	l[i] = ownerCount{owner: owner, cnt: 1}
	nw.stateDeps[slot] = l
}

// dropStateDeps removes the peer's entire edge-set contribution from
// the index (departure).
func (nw *Network) dropStateDeps(slot uint32) {
	for _, oc := range nw.stateDeps[slot] {
		nw.deps.remove(oc.owner, slot, oc.cnt)
	}
	nw.stateDeps[slot] = nw.stateDeps[slot][:0]
}

// rebuildDeps reconstructs the whole index from scratch; the white-box
// fixtures use it after mutating peer state directly (see
// rebuildLevels for the pattern).
func (nw *Network) rebuildDeps() {
	nw.deps = depIndex{}
	for len(nw.stateDeps) < len(nw.pt.nodes) {
		nw.stateDeps = append(nw.stateDeps, nil)
	}
	for slot := range nw.stateDeps {
		nw.stateDeps[slot] = nw.stateDeps[slot][:0]
	}
	var p prepOut
	for slot, n := range nw.pt.nodes {
		if n == nil {
			continue
		}
		p.deps = p.deps[:0]
		nw.prepStateDeps(uint32(slot), n, &p)
		nw.applyDeps(uint32(slot), p.deps)
		for _, b := range n.in {
			nw.depAddSpan(uint32(slot), b.flow, b.span)
		}
	}
}

// holdsRef reports whether the peer's own state — edge sets, pending
// one-shot inbox, standing buckets — contains the exact reference. It
// is the verification step that turns the owner-granular candidate list
// into the scan-exact wake set for published-view changes.
func (n *RealNode) holdsRef(r ref.Ref) bool {
	for _, v := range n.vnodes {
		if v == nil {
			continue
		}
		if v.Nu.Contains(r) || v.Nr.Contains(r) || v.Nc.Contains(r) {
			return true
		}
	}
	for _, m := range n.inbox {
		if m.Add == r {
			return true
		}
	}
	for _, b := range n.in {
		sp := b.flow.spans[b.span]
		for i := sp.start; i < sp.end; i++ {
			pm := b.flow.packed[i]
			if b.flow.syms[pm.sym] == r.Owner && int(pm.meta&pmLevelMask) == r.Level {
				return true
			}
		}
	}
	return false
}

// holdsDependent is the per-peer body of the full-scan wakeDependents:
// whether any reference in the peer's state is covered by the change
// sets. Kept as the equivalence baseline the paranoid mode and the
// lockstep tests compare the index against.
func (n *RealNode) holdsDependent(owners map[ident.ID]bool, refs map[ref.Ref]bool) bool {
	for _, v := range n.vnodes {
		if v == nil {
			continue
		}
		for _, r := range v.Nu.Slice() {
			if owners[r.Owner] || refs[r] {
				return true
			}
		}
		for _, r := range v.Nr.Slice() {
			if owners[r.Owner] || refs[r] {
				return true
			}
		}
		for _, r := range v.Nc.Slice() {
			if owners[r.Owner] || refs[r] {
				return true
			}
		}
	}
	for _, m := range n.inbox {
		if owners[m.Add.Owner] || refs[m.Add] {
			return true
		}
	}
	for _, b := range n.in {
		sp := b.flow.spans[b.span]
		for i := sp.start; i < sp.end; i++ {
			pm := b.flow.packed[i]
			add := ref.Ref{Owner: b.flow.syms[pm.sym], Level: int(pm.meta & pmLevelMask)}
			if owners[add.Owner] || refs[add] {
				return true
			}
		}
	}
	return false
}

// wakeSetScan returns the slots the full-peer scan would wake,
// appended to buf (unsorted).
func (nw *Network) wakeSetScan(owners map[ident.ID]bool, refs map[ref.Ref]bool, buf []uint32) []uint32 {
	for slot, n := range nw.pt.nodes {
		if n == nil || n.dirty {
			continue
		}
		if n.holdsDependent(owners, refs) {
			buf = append(buf, uint32(slot))
		}
	}
	return buf
}

// wakeSetIndexed returns the slots the inverted index wakes, appended
// to buf (unsorted, deduplicated).
func (nw *Network) wakeSetIndexed(owners map[ident.ID]bool, refs map[ref.Ref]bool, buf []uint32) []uint32 {
	start := len(buf)
	seen := func(slot uint32) bool {
		for _, s := range buf[start:] {
			if s == slot {
				return true
			}
		}
		return false
	}
	for id := range owners {
		for _, e := range nw.deps.dependents(id) {
			n := nw.pt.nodes[e.peer]
			if n == nil || n.dirty || seen(e.peer) {
				continue
			}
			buf = append(buf, e.peer)
		}
	}
	for r := range refs {
		if owners[r.Owner] {
			continue
		}
		for _, e := range nw.deps.dependents(r.Owner) {
			n := nw.pt.nodes[e.peer]
			if n == nil || n.dirty || seen(e.peer) {
				continue
			}
			if n.holdsRef(r) {
				buf = append(buf, e.peer)
			}
		}
	}
	return buf
}

// wakeDependents dirties every clean peer whose behavior can depend on
// the given changes: owners whose liveness or level set changed (their
// references purge differently now) and refs whose published rl/rr
// changed (rule 3's guards read them). Owner changes wake the indexed
// dependents directly; ref changes verify each candidate with holdsRef
// first, so the woken set is exactly what the old full scan computed.
// Under Config.ParanoidSettle both implementations run and must agree.
func (nw *Network) wakeDependents(owners map[ident.ID]bool, refs map[ref.Ref]bool) {
	if nw.cfg.ParanoidSettle {
		idx := nw.wakeSetIndexed(owners, refs, nil)
		scan := nw.wakeSetScan(owners, refs, nil)
		sortSlots(idx)
		sortSlots(scan)
		if !slotsEqual(idx, scan) {
			panic(fmt.Sprintf("rechord: indexed wake set %v != scan wake set %v (owners=%v refs=%v)", idx, scan, owners, refs))
		}
		for _, slot := range idx {
			nw.markDirtyIdx(slot)
		}
		return
	}
	for id := range owners {
		for _, e := range nw.deps.dependents(id) {
			nw.markDirtyIdx(e.peer)
		}
	}
	for r := range refs {
		if owners[r.Owner] {
			continue
		}
		for _, e := range nw.deps.dependents(r.Owner) {
			n := nw.pt.nodes[e.peer]
			if n == nil || n.dirty {
				continue
			}
			if n.holdsRef(r) {
				nw.markDirtyIdx(e.peer)
			}
		}
	}
}

func sortSlots(s []uint32) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

func slotsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
