package rechord

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ident"
	"repro/internal/ref"
)

// Join inserts a new peer that initially knows exactly one existing
// peer (Section 4.1: "a peer connects to one peer in the network").
// The network integrates it within O(log^2 n) rounds from a stable
// state (Theorem 4.1). The joiner enters the frontier dirty; existing
// peers wake up as its messages reach them.
func (nw *Network) Join(id ident.ID, contact ident.ID) error {
	if _, ok := nw.pt.lookup(id); ok {
		return fmt.Errorf("rechord: join: peer %s already present", id)
	}
	if _, ok := nw.pt.lookup(contact); !ok {
		return fmt.Errorf("rechord: join: contact %s not in network", contact)
	}
	nw.AddPeer(id)
	nw.SeedEdge(ref.Real(id), ref.Real(contact), graph.Unmarked)
	return nil
}

// Leave removes a peer gracefully (Section 4.2): before departing,
// each of its virtual nodes introduces its unmarked neighbors to one
// another, so the sorted order survives without the departed node, and
// the closest-real knowledge is handed over too. The introductions are
// delivered as ordinary next-round messages.
func (nw *Network) Leave(id ident.ID) error {
	n := nw.pt.node(id)
	if n == nil {
		return fmt.Errorf("rechord: leave: peer %s not in network", id)
	}
	for _, v := range n.vnodes {
		if v == nil {
			continue
		}
		// Everything this virtual node can introduce: its unmarked
		// neighbors plus closest reals, excluding its own siblings
		// (they depart too).
		var know ref.Set
		know.AddAll(v.Nu)
		if v.HasRL {
			know.Add(v.RL)
		}
		if v.HasRR {
			know.Add(v.RR)
		}
		know.RemoveIf(func(r ref.Ref) bool { return r.Owner == id })
		peers := know.Slice()
		for _, a := range peers {
			for _, b := range peers {
				if a != b {
					nw.routeMessage(Message{To: a, Kind: graph.Unmarked, Add: b})
				}
			}
		}
		// Ring and connection edges it held are handed to a neighbor
		// rather than silently dropped.
		for _, w := range v.Nr.Slice() {
			if w.Owner == id {
				continue
			}
			for _, a := range peers {
				if a != w {
					nw.routeMessage(Message{To: a, Kind: graph.Ring, Add: w})
					break
				}
			}
		}
	}
	nw.removePeer(id)
	return nil
}

// Fail removes a peer abruptly: no goodbyes, its edges dangle until
// the failure detector purges them (Section 4.2's fault case).
func (nw *Network) Fail(id ident.ID) error {
	if _, ok := nw.pt.lookup(id); !ok {
		return fmt.Errorf("rechord: fail: peer %s not in network", id)
	}
	nw.removePeer(id)
	return nil
}

// removePeer deletes the peer and reconciles the scheduler state: the
// peer's slot is released (bumping its generation, so every handle to
// this incarnation stops resolving), its published view entries
// vanish, its standing output is delivered exactly once more (as
// one-shots, matching the full-sweep timeline where messages sent in
// the final round still arrive), and every peer that references the
// departed identifier is woken so its next purge drops the stale
// references.
func (nw *Network) removePeer(id ident.ID) {
	n := nw.pt.node(id)
	h := n.h() // the incarnation's handle, before the generation bump
	nw.view[n.idx] = nil
	nw.vhash[n.idx] = nw.vhash[n.idx][:0]
	// The departed peer's own references leave the dependency index.
	nw.dropStateDeps(n.idx)
	nw.pt.release(n)
	nw.removeOrder(id)
	// The buckets stored on the departed peer die with it.
	nw.dropInbound(n)
	// Its standing flow to others becomes a final one-shot delivery.
	// The moved messages leave the index with the bucket: the recipient
	// is dirty from here on, and one-shot inboxes are not indexed.
	if n.lastFlow != nil {
		for _, sp := range n.lastFlow.spans {
			dstSlot, ok := nw.pt.lookup(sp.owner)
			if !ok {
				continue
			}
			nw.flushBucket(nw.pt.nodes[dstSlot], h)
		}
		releaseFlow(n.lastFlow, &nw.flow)
		n.lastFlow = nil
	}
	nw.flushFlowGauges()
	nw.wakeDependents(map[ident.ID]bool{id: true}, nil)
}

// dropInbound deletes every standing bucket stored at the departed
// peer.
func (nw *Network) dropInbound(n *RealNode) {
	for len(n.in) > 0 {
		nw.writeBucket(n, n.in[len(n.in)-1].sender, nil, -1, effQuiet)
	}
}

// flushBucket turns the departed sender's standing bucket at dst, if
// any, into a final one-shot delivery and wakes dst.
func (nw *Network) flushBucket(dst *RealNode, sender handle) {
	bi := dst.findBucket(sender)
	if bi < 0 {
		return
	}
	b := dst.in[bi]
	dst.inbox = b.flow.appendSpan(dst.inbox, b.span)
	nw.writeBucket(dst, sender, nil, -1, effSet)
}

// routeMessage enqueues a one-shot message directly (used by graceful
// leave, whose goodbyes are delivered like any other delayed
// assignment) and wakes the recipient.
func (nw *Network) routeMessage(msg Message) {
	if slot, ok := nw.pt.lookup(msg.To.Owner); ok {
		nw.pt.nodes[slot].inbox = append(nw.pt.nodes[slot].inbox, msg)
		nw.markDirtyIdx(slot)
	}
}
