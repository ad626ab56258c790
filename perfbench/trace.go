package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"
)

// spanKind names the layer boundary a span was recorded at. Every span
// is recorded by the benchmark's own code around one call into a
// layer; the program itself is not instrumented.
type spanKind uint8

const (
	spStep      spanKind = iota // engine: one scheduler Step
	spKV                        // dht: one Store Get/Put/Delete
	spResolve                   // routing: Cache.Resolve inside a KV op
	spWalk                      // routing: Walker.Resolve fallback inside a KV op
	spRebalance                 // dht: Store.Rebalance
	spPrune                     // routing: Cache.Prune
	spRank0                     // wire: RunSeed
	spRank1                     // wire: RunWorker
	spSend0                     // wire: Conn.Send on rank 0
	spSend1                     // wire: Conn.Send on rank 1
	spRecv0                     // wire: Conn.Recv on rank 0, handshake and fin
	spRecv1                     // wire: Conn.Recv on rank 1
	spWait0                     // wire: Conn.Recv of a round frame on rank 0
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"engine.step", "dht.op", "routing.resolve", "routing.walk",
	"dht.rebalance", "routing.prune", "wire.rank0", "wire.rank1",
	"wire.rank0.send", "wire.rank1.send", "wire.rank0.recv",
	"wire.rank1.recv", "wire.rank0.wait",
}

// span is one recorded interval, relative to the tracer's start.
type span struct {
	start int64
	dur   uint32 // nanoseconds, saturating at ~4.3 s
	kind  spanKind
}

// tracer keeps spans in a buffer allocated before the traced pass, so
// recording never allocates. Goroutines (the two wire ranks) share it
// through an atomic cursor; a span that does not fit is dropped and the
// tracer reports itself full, which ends the traced pass after the unit
// in progress (whose spans are then discarded, so every kept unit is
// complete).
type tracer struct {
	base  time.Time
	spans []span
	next  atomic.Int64
	full  atomic.Bool
}

// spanCap bounds the buffer: 1M spans of 16 bytes.
const spanCap = 1 << 20

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, spanCap)}
}

// begin returns a span's start mark. A nil tracer records nothing.
func (t *tracer) begin() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// end records the span of the given kind that began at start.
func (t *tracer) end(k spanKind, start int64) {
	if t == nil {
		return
	}
	d := int64(time.Since(t.base)) - start
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.full.Store(true)
		return
	}
	if d > 1<<32-1 {
		d = 1<<32 - 1
	}
	t.spans[i] = span{start: start, dur: uint32(d), kind: k}
}

// mark returns the cursor at the start of a unit, for settle.
func (t *tracer) mark() int64 { return t.next.Load() }

// settle ends a unit that began at cursor m: a unit during which the
// buffer overflowed is rolled back and false is returned.
func (t *tracer) settle(m int64) bool {
	if t.full.Load() {
		t.next.Store(m)
		return false
	}
	return true
}

// totals sums the kept spans' durations per kind, and collects the
// durations of one kind (for percentiles).
func (t *tracer) totals(collect spanKind) (sum [numSpanKinds]int64, count [numSpanKinds]int64, durs []uint32) {
	n := min(t.next.Load(), int64(len(t.spans)))
	for _, s := range t.spans[:n] {
		sum[s.kind] += int64(s.dur)
		count[s.kind]++
		if s.kind == collect {
			durs = append(durs, s.dur)
		}
	}
	return sum, count, durs
}

// dump writes the kept spans in a compact binary form: the line
// "perfbench-spans v1", one line naming the kinds in index order, then
// one 13-byte little-endian record per span (kind uint8, start int64
// ns, duration uint32 ns).
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "perfbench-spans v1\n%s\n", strings.Join(spanNames[:], " "))
	var rec [13]byte
	n := min(t.next.Load(), int64(len(t.spans)))
	for _, s := range t.spans[:n] {
		rec[0] = byte(s.kind)
		binary.LittleEndian.PutUint64(rec[1:], uint64(s.start))
		binary.LittleEndian.PutUint32(rec[9:], s.dur)
		w.Write(rec[:]) // a write error resurfaces at Flush
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// dumpSpans writes the traced pass's spans under the state directory.
func (r *report) dumpSpans(cfg config) error {
	if r.tracer == nil {
		return nil
	}
	return r.tracer.dump(filepath.Join(cfg.stateDir, "trace", fmt.Sprintf("%s-seed%d.spans", cfg.workload, cfg.seed)))
}
