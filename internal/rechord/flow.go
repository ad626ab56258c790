package rechord

import (
	"fmt"
	"sort"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/ref"
)

// Shared flow templates: the compact at-rest representation of
// standing flows. At stability a sender's relay output repeats
// verbatim every round, so the recipient-side deep copies of those
// messages are pure duplication. A flowTemplate freezes one batch's
// output into an immutable, refcounted object; the sender's lastFlow
// and every recipient bucket reference spans of the same template
// instead of each holding a []Message copy.
//
// Immutability is what makes the sharing safe: the engine only ever
// *replaces* a bucket (the bucket-replace invariant — rules never edit
// standing messages in place), so once built, a template's bytes are
// never written again. ParanoidSettle additionally checksums each
// template at build time and re-verifies it before diffing, turning
// any in-place mutation into a panic.
//
// Messages are stored packed: the Add owner (the only full ident.ID a
// standing message carries besides its recipient) is interned into a
// per-template sorted symbol table, and the two levels plus the edge
// kind share one meta word. A packed record is 8 bytes against
// Message's 40; the recipient owner is stored once per span, not per
// message.

const (
	// pmLevelBits is wide enough for ident.MaxLevel (62) with room to
	// spare; two level fields and the kind share one uint32.
	pmLevelBits = 14
	pmLevelMask = 1<<pmLevelBits - 1
	pmKindShift = 2 * pmLevelBits

	// msgBytes is the deep-copy cost of one standing message — the
	// unit the shared-vs-unique telemetry reports so the numbers are
	// directly comparable with the pre-sharing representation.
	msgBytes = int(unsafe.Sizeof(Message{}))
)

// packedMsg is one standing message at rest: the Add owner as an index
// into the template's symbol table, and kind + To.Level + Add.Level
// packed into meta. The To owner is implicit in the enclosing span.
type packedMsg struct {
	sym  uint32
	meta uint32
}

// flowSpan is one recipient's contiguous slice of the packed stream,
// in emission order.
type flowSpan struct {
	owner      ident.ID
	start, end uint32
}

// flowTemplate is an immutable snapshot of one sender's per-round
// output, grouped by recipient. refs counts the sender's lastFlow
// reference plus one per recipient bucket; only the serial commit and
// epilogue change it.
type flowTemplate struct {
	refs    int32
	private bool // partition shadow or snapshot-owned; never shared across peers
	packed  []packedMsg
	spans   []flowSpan // sorted by owner
	syms    []ident.ID // sorted, deduped Add owners
	sum     uint64     // build-time checksum (ParanoidSettle write barrier)
}

// footprint is the resident size of the template itself.
func (t *flowTemplate) footprint() int {
	return int(unsafe.Sizeof(*t)) +
		len(t.packed)*int(unsafe.Sizeof(packedMsg{})) +
		len(t.spans)*int(unsafe.Sizeof(flowSpan{})) +
		len(t.syms)*8
}

// retain takes one reference and returns t for call-site convenience.
func (t *flowTemplate) retain() *flowTemplate {
	t.refs++
	return t
}

// release drops one reference and reports whether it was the last; the
// caller owns the accounting, the garbage collector owns the bytes.
func (t *flowTemplate) release() bool {
	t.refs--
	return t.refs == 0
}

// findSpan returns the index of owner's span, or -1.
func (t *flowTemplate) findSpan(owner ident.ID) int32 {
	lo, hi := 0, len(t.spans)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.spans[mid].owner < owner {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.spans) && t.spans[lo].owner == owner {
		return int32(lo)
	}
	return -1
}

// spanLen is the number of messages in span si.
func (t *flowTemplate) spanLen(si int32) int {
	sp := t.spans[si]
	return int(sp.end - sp.start)
}

// msgAt reconstitutes the full Message at packed index i, addressed to
// owner (the enclosing span's recipient).
func (t *flowTemplate) msgAt(owner ident.ID, i uint32) Message {
	pm := t.packed[i]
	return Message{
		To:   ref.Ref{Owner: owner, Level: int(pm.meta >> pmLevelBits & pmLevelMask)},
		Kind: graph.Kind(pm.meta >> pmKindShift),
		Add:  ref.Ref{Owner: t.syms[pm.sym], Level: int(pm.meta & pmLevelMask)},
	}
}

// appendSpan reconstitutes span si onto dst in emission order.
func (t *flowTemplate) appendSpan(dst []Message, si int32) []Message {
	sp := t.spans[si]
	for i := sp.start; i < sp.end; i++ {
		dst = append(dst, t.msgAt(sp.owner, i))
	}
	return dst
}

// appendAll reconstitutes the whole template onto dst.
func (t *flowTemplate) appendAll(dst []Message) []Message {
	for si := range t.spans {
		dst = t.appendSpan(dst, int32(si))
	}
	return dst
}

// spanEqualMsgs reports whether span si carries exactly ms, in order.
func (t *flowTemplate) spanEqualMsgs(si int32, ms []Message) bool {
	sp := t.spans[si]
	if int(sp.end-sp.start) != len(ms) {
		return false
	}
	for k, m := range ms {
		if t.msgAt(sp.owner, sp.start+uint32(k)) != m {
			return false
		}
	}
	return true
}

// spansEqual compares span ai of a with span bi of b element-wise.
func spansEqual(a *flowTemplate, ai int32, b *flowTemplate, bi int32) bool {
	if a == b && ai == bi {
		return true
	}
	sa, sb := a.spans[ai], b.spans[bi]
	if sa.end-sa.start != sb.end-sb.start {
		return false
	}
	for k := uint32(0); k < sa.end-sa.start; k++ {
		if a.msgAt(sa.owner, sa.start+k) != b.msgAt(sb.owner, sb.start+k) {
			return false
		}
	}
	return true
}

// checksum folds packed records, spans, and symbols into one word.
func (t *flowTemplate) checksum() uint64 {
	h := uint64(1469598103934665603)
	for _, pm := range t.packed {
		h = mixWord(h, uint64(pm.sym)<<32|uint64(pm.meta))
	}
	for _, sp := range t.spans {
		h = mixWord(h, uint64(sp.owner))
		h = mixWord(h, uint64(sp.start)<<32|uint64(sp.end))
	}
	for _, s := range t.syms {
		h = mixWord(h, uint64(s))
	}
	return h
}

// verify panics if the template's bytes changed since build — the
// ParanoidSettle write barrier over the shared representation.
func (t *flowTemplate) verify(where string) {
	if got := t.checksum(); got != t.sum {
		panic(fmt.Sprintf("rechord: shared flow template mutated in place (%s): checksum %x, recorded %x", where, got, t.sum))
	}
}

// packMsg encodes m against the sorted symbol table.
func packMsg(m Message, syms []ident.ID) packedMsg {
	lo, hi := 0, len(syms)
	for lo < hi {
		mid := (lo + hi) / 2
		if syms[mid] < m.Add.Owner {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if uint(m.To.Level) > pmLevelMask || uint(m.Add.Level) > pmLevelMask {
		panic("rechord: message level exceeds packed-storage range")
	}
	return packedMsg{
		sym:  uint32(lo),
		meta: uint32(m.Kind)<<pmKindShift | uint32(m.To.Level)<<pmLevelBits | uint32(m.Add.Level),
	}
}

// buildFlow freezes the first ng recipient groups (sorted by owner,
// each in emission order, total messages across them) into a fresh
// template carrying one reference for the caller. symbuf is reusable
// scratch for symbol collection; the grown buffer is returned.
func buildFlow(groups []rrGroup, ng, total int, symbuf []ident.ID) (*flowTemplate, []ident.ID) {
	symbuf = symbuf[:0]
	for g := 0; g < ng; g++ {
		for _, m := range groups[g].msgs {
			symbuf = append(symbuf, m.Add.Owner)
		}
	}
	sort.Slice(symbuf, func(i, j int) bool { return symbuf[i] < symbuf[j] })
	syms := make([]ident.ID, 0, len(symbuf))
	for i, id := range symbuf {
		if i == 0 || id != symbuf[i-1] {
			syms = append(syms, id)
		}
	}
	t := &flowTemplate{
		packed: make([]packedMsg, 0, total),
		spans:  make([]flowSpan, 0, ng),
		syms:   syms,
	}
	for g := 0; g < ng; g++ {
		start := uint32(len(t.packed))
		for _, m := range groups[g].msgs {
			t.packed = append(t.packed, packMsg(m, syms))
		}
		t.spans = append(t.spans, flowSpan{owner: groups[g].owner, start: start, end: uint32(len(t.packed))})
	}
	t.refs = 1
	t.sum = t.checksum()
	return t, symbuf
}

// buildPrivateFlow freezes one recipient's contribution into a
// single-span private template (ref 1). Used for partition shadow
// buckets — never shared.
func buildPrivateFlow(owner ident.ID, ms []Message) *flowTemplate {
	symbuf := make([]ident.ID, 0, len(ms))
	for _, m := range ms {
		symbuf = append(symbuf, m.Add.Owner)
	}
	sort.Slice(symbuf, func(i, j int) bool { return symbuf[i] < symbuf[j] })
	syms := symbuf[:0]
	for i, id := range symbuf {
		if i == 0 || id != symbuf[i-1] {
			syms = append(syms, id)
		}
	}
	t := &flowTemplate{
		private: true,
		packed:  make([]packedMsg, 0, len(ms)),
		spans:   []flowSpan{{owner: owner, end: uint32(len(ms))}},
		syms:    syms,
	}
	for _, m := range ms {
		t.packed = append(t.packed, packMsg(m, syms))
	}
	t.refs = 1
	t.sum = t.checksum()
	return t
}

// cloneSpan freezes span si of t into a fresh private single-span
// template that *shares* t's packed records and symbol table — safe
// because template bytes are immutable once built (the bucket-replace
// invariant), and release only drops refcounts, never frees or edits
// storage. Snapshot clones use it: they take no reference, so they
// don't appear in the engine's flow accounting, and the GC keeps the
// shared arrays alive for as long as the snapshot needs them.
func (t *flowTemplate) cloneSpan(si int32) *flowTemplate {
	sp := t.spans[si]
	c := &flowTemplate{
		private: true,
		packed:  t.packed[sp.start:sp.end:sp.end],
		spans:   []flowSpan{{owner: sp.owner, end: sp.end - sp.start}},
		syms:    t.syms,
	}
	c.refs = 1
	c.sum = c.checksum()
	return c
}

// flowEqualsOutput reports whether out carries exactly t's messages
// with per-recipient order preserved. Cross-recipient interleaving is
// not compared: delivery is per-recipient (each bucket replays its own
// span), so outputs that agree group-by-group produce identical
// behavior, and the deterministic rules emit per-recipient sequences
// in a fixed order anyway. cursors is reusable per-span scratch.
func flowEqualsOutput(t *flowTemplate, out []Message, cursors *[]uint32) bool {
	if t == nil {
		return len(out) == 0
	}
	if len(out) != len(t.packed) {
		return false
	}
	cur := (*cursors)[:0]
	for range t.spans {
		cur = append(cur, 0)
	}
	*cursors = cur
	for _, m := range out {
		si := t.findSpan(m.To.Owner)
		if si < 0 {
			return false
		}
		sp := t.spans[si]
		i := sp.start + cur[si]
		if i >= sp.end || t.msgAt(sp.owner, i) != m {
			return false
		}
		cur[si]++
	}
	// Total lengths match and no span overflowed, so every span is
	// exactly consumed.
	return true
}

// bucket is one standing contribution at a recipient: span si of the
// sender's flow template. ~24 bytes against the former map entry plus
// []Message backing.
type bucket struct {
	sender handle
	span   int32
	flow   *flowTemplate
}

// findBucket returns the index of sender's bucket in the sorted table,
// or -1.
func (n *RealNode) findBucket(sender handle) int {
	lo, hi := 0, len(n.in)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.in[mid].sender < sender {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.in) && n.in[lo].sender == sender {
		return lo
	}
	return -1
}

// setBucket inserts or replaces sender's bucket, keeping the table
// sorted. Returns the replaced bucket, if any. Refcounts are the
// caller's responsibility.
func (n *RealNode) setBucket(sender handle, t *flowTemplate, si int32) (old bucket, existed bool) {
	lo, hi := 0, len(n.in)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.in[mid].sender < sender {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.in) && n.in[lo].sender == sender {
		old = n.in[lo]
		n.in[lo] = bucket{sender: sender, span: si, flow: t}
		return old, true
	}
	n.in = append(n.in, bucket{})
	copy(n.in[lo+1:], n.in[lo:])
	n.in[lo] = bucket{sender: sender, span: si, flow: t}
	return bucket{}, false
}

// delBucketAt removes the bucket at index bi. Refcounts are the
// caller's responsibility.
func (n *RealNode) delBucketAt(bi int) {
	copy(n.in[bi:], n.in[bi+1:])
	n.in[len(n.in)-1] = bucket{}
	n.in = n.in[:len(n.in)-1]
}

// flowTally accumulates flow-storage accounting.
type flowTally struct {
	births, deaths int // templates created / fully released
	residentBytes  int // footprint delta of created minus released
	sharedBytes    int // deep-equivalent bytes of buckets on shared templates
	uniqueBytes    int // deep-equivalent bytes of buckets on private templates
	installsShared int
	installsCopied int
}

// tallyBirth records a freshly built template.
func (ft *flowTally) tallyBirth(t *flowTemplate) {
	ft.births++
	ft.residentBytes += t.footprint()
}

// releaseFlow drops a non-bucket reference (lastFlow, or a builder's
// handoff reference) and accounts the death if it was the last.
func releaseFlow(t *flowTemplate, ft *flowTally) {
	fp := t.footprint()
	if t.release() {
		ft.deaths++
		ft.residentBytes -= fp
	}
}

// releaseBucket drops a bucket's reference including its
// shared/unique byte classification.
func releaseBucket(b bucket, ft *flowTally) {
	bytes := b.flow.spanLen(b.span) * msgBytes
	if b.flow.private {
		ft.uniqueBytes -= bytes
	} else {
		ft.sharedBytes -= bytes
	}
	releaseFlow(b.flow, ft)
}

// writeBucket is the one place a standing bucket changes: it points
// the sender's bucket at dst to span si of t, or deletes it when si < 0,
// keeping refcounts, the flow tally, bucketMsgs and the dependency
// index in step. effSet also puts dst on the frontier; effRepoint moves
// a content-identical bucket to t, a storage-only change that leaves
// the index and the message count alone. Deleting an absent bucket is a
// no-op.
func (nw *Network) writeBucket(dst *RealNode, sender handle, t *flowTemplate, si int32, kind effectKind) {
	var old bucket
	existed := false
	if si < 0 {
		bi := dst.findBucket(sender)
		if bi < 0 {
			return
		}
		old, existed = dst.in[bi], true
		dst.delBucketAt(bi)
	} else {
		t.retain()
		bytes := t.spanLen(si) * msgBytes
		if t.private {
			nw.flow.uniqueBytes += bytes
			nw.flow.installsCopied++
		} else {
			nw.flow.sharedBytes += bytes
			nw.flow.installsShared++
		}
		old, existed = dst.setBucket(sender, t, si)
		if kind != effRepoint {
			nw.bucketMsgs += t.spanLen(si)
			nw.depAddSpan(dst.idx, t, si)
		}
	}
	if existed {
		if kind != effRepoint {
			nw.bucketMsgs -= old.flow.spanLen(old.span)
			nw.depRemoveSpan(dst.idx, old.flow, old.span)
		}
		releaseBucket(old, &nw.flow)
	}
	if kind == effSet {
		nw.markDirtyIdx(dst.idx)
	}
}
