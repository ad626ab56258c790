package rechord

// CopyBuckets replaces every shared standing bucket with a private
// single-span copy of its content: the deep-copy storage that shared
// flow templates replaced, kept as a test-only baseline. Applied
// between steps, it gives a twin network whose buckets never share a
// template and which must stay observably identical to the original.
func CopyBuckets(nw *Network) {
	for _, n := range nw.pt.nodes {
		if n == nil {
			continue
		}
		for _, b := range n.in {
			if b.flow.private {
				continue
			}
			t := buildPrivateFlow(b.flow.spans[b.span].owner, b.flow.appendSpan(nil, b.span))
			nw.flow.tallyBirth(t)
			nw.writeBucket(n, b.sender, t, 0, effRepoint)
			releaseFlow(t, &nw.flow)
		}
	}
	nw.flushFlowGauges()
}
