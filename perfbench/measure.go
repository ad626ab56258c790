package main

import (
	"fmt"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"repro/internal/obs"
)

// stream is one pass of a workload over the state its set-up built.
// Unit i draws its inputs from the seed and i alone, so unit i is the
// same work on every run of one seed.
type stream interface {
	// next runs unit i; it is called with i = 0, 1, 2, ... in order.
	next(i int, tr *tracer) (unit, error)
	// close checks the pass's outputs and adds its operation totals
	// to the report.
	close(rep *report)
}

// setupFunc builds a workload's stream. It records its timed steps
// under "total" (the set-up time) and, where the workload has them,
// under "build", "settle" and "preload". Workloads whose units build
// their own inputs record those per unit instead, and their setupFunc
// does no work.
type setupFunc func(cfg config, rep *report, steps stepLog) (stream, error)

// unit is what one unit of measured work returns.
type unit struct {
	cost cost
	ops  int64 // work items completed, for ops_per_s
	// lat holds op latencies in ns: from the stream, the unit's every
	// op; once runUnits has kept the unit, an evenly strided sample of
	// at most latKeep of them.
	lat     []uint32
	samples int // ops timed in the unit
	// perPeer is the resident heap per peer after the unit (0: not
	// measured on this unit).
	perPeer float64
	// slot is the rotation slot (the CPU) the unit ran on.
	slot  int
	layer map[string]float64
	// exact holds the unit's deterministic counts.
	exact map[string]int64
}

// latency saturates a duration into a latency sample.
func latency(d time.Duration) uint32 {
	if d > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(d)
}

// runWorkload sets the workload up setupRepeats times (so set-up time
// is an average of several), runs the untraced pass, and, with --trace 1, sets up
// once more and replays the same units with spans recorded. Set-up i
// and unit i run pinned to the i-th CPU of the rotation (pin.go).
func runWorkload(cfg config, setup setupFunc) (*report, error) {
	rep := newReport()
	steps := stepLog{}
	var s stream
	for i := 0; i < setupRepeats; i++ {
		s = nil // let the previous state go before building the next
		pin.use(i)
		var err error
		if s, err = setup(cfg, rep, steps); err != nil {
			return nil, err
		}
	}
	plainBudget, tracedBudget := passes(cfg)
	plain, err := runUnits(plainBudget, nil, -1, s)
	if err != nil {
		return nil, err
	}
	s.close(rep)
	setE2E(rep, plain, steps)
	for _, u := range plain {
		rep.exact = append(rep.exact, u.exact)
	}

	if cfg.trace {
		pin.use(0)
		s, err := setup(cfg, rep, steps)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		traced, err := runUnits(tracedBudget, tr, len(plain), s)
		if err != nil {
			return nil, err
		}
		s.close(rep)
		for i, u := range traced {
			if err := sameCounts(plain[i].exact, u.exact); err != nil && rep.checkErr == nil {
				rep.checkErr = fmt.Errorf("unit %d traced vs untraced: %w", i, err)
			}
		}
		rep.tracer = tr
		setLayers(rep, tr, plain[:len(traced)], traced, steps)
	}
	return rep, nil
}

// runUnits runs units 0, 1, 2, ... until the measured wall time adds
// up to budget (and at least one), or limit units when limit >= 0.
// With a tracer, a unit during which the span buffer overflowed is
// dropped and the pass ends.
func runUnits(budget time.Duration, tr *tracer, limit int, s stream) ([]unit, error) {
	var out []unit
	var spent time.Duration
	for len(out) == 0 || (spent < budget && (limit < 0 || len(out) < limit)) {
		var m int64
		pin.use(len(out))
		if tr != nil {
			m = tr.mark()
		}
		u, err := s.next(len(out), tr)
		if err != nil {
			return nil, fmt.Errorf("unit %d: %w", len(out), err)
		}
		if tr != nil && !tr.settle(m) {
			if len(out) == 0 {
				return nil, fmt.Errorf("span buffer of %d spans too small for one unit", len(tr.spans))
			}
			break
		}
		// u.lat is the stream's buffer, reused by the next unit.
		u.samples = len(u.lat)
		stride := max(1, (len(u.lat)+latKeep-1)/latKeep)
		kept := make([]uint32, 0, len(u.lat)/stride+1)
		for j := 0; j < len(u.lat); j += stride {
			kept = append(kept, u.lat[j])
		}
		u.lat = kept
		u.slot = pin.slot
		out = append(out, u)
		spent += u.cost.wall
	}
	return out, nil
}

// passes splits the measured time between the untraced pass and, when
// tracing, the traced pass that follows it.
func passes(cfg config) (untraced, traced time.Duration) {
	total := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		return total, 0
	}
	return total / 2, total / 2
}

// latKeep bounds the op latencies a unit keeps for the run's
// percentiles (serve times 100,000 ops a unit).
const latKeep = 10000

// setE2E reports the end-to-end figures: wall, CPU, allocations and
// throughput of a unit, each the mean over the rotation's CPUs of the
// trimmed mean over the units run on that CPU (center), the set-up
// time likewise, and the op latency percentiles over the ops of all
// units pooled. Pooled, not per unit: a round of converge or wire is a
// few ms, so a unit has only about 150 of them, and per-unit p50s of
// wire spread 0.2 between seeds against 0.1 pooled.
func setE2E(r *report, us []unit, steps stepLog) {
	var walls, cpus, allocs, bytes, rates, perPeer []float64
	var slots, peerSlots []int
	var lat []uint32
	samples := 0
	for _, u := range us {
		slots = append(slots, u.slot)
		lat = append(lat, u.lat...)
		samples += u.samples
		walls = append(walls, u.cost.wall.Seconds())
		cpus = append(cpus, u.cost.cpu.Seconds())
		allocs = append(allocs, float64(u.cost.allocs))
		bytes = append(bytes, float64(u.cost.allocBytes))
		rates = append(rates, float64(u.ops)/u.cost.wall.Seconds())
		if u.perPeer > 0 {
			perPeer = append(perPeer, u.perPeer)
			peerSlots = append(peerSlots, u.slot)
		}
	}
	r.setE2E("setup_s", steps.seconds("total"), "s")
	r.setE2E("wall_s", center(walls, slots), "s")
	r.setE2E("cpu_s", center(cpus, slots), "s")
	r.setE2E("allocs", center(allocs, slots), "count")
	r.setE2E("alloc_bytes", center(bytes, slots), "B")
	r.setE2E("bytes_per_peer", center(perPeer, peerSlots), "B")
	r.setE2E("ops_per_s", center(rates, slots), "1/s")
	r.setE2E("op_p50_us", quantile(lat, 0.50)/1e3, "us")
	r.setE2E("op_p99_us", quantile(lat, 0.99)/1e3, "us")
	r.extra["op_samples"] = samples
	r.extra["op_samples_pooled"] = len(lat)
	r.extra["units"] = len(us)
	r.extra["setups"] = len(steps["total"])
	r.extra["unit_wall_s"] = walls
	r.extra["cpus"] = pin.cpus
	r.extra["pinned"] = pin.ok
	var perCPU []float64
	for slot := range max(1, len(pin.cpus)) {
		var xs []float64
		for i, w := range walls {
			if slots[i] == slot {
				xs = append(xs, w)
			}
		}
		perCPU = append(perCPU, median(xs))
	}
	r.extra["cpu_wall_s"] = perCPU
}

// quantile returns the q-quantile (0..1) of the samples by the
// nearest-rank rule. It sorts xs in place.
func quantile(xs []uint32, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	i = max(0, min(i, len(xs)-1))
	return float64(xs[i])
}

// layerNames lists every per-layer metric with its unit. Every
// workload reports all of them; a layer a workload does not exercise
// reads 0 there (README.md has the table).
var layerNames = []struct{ name, unit string }{
	{"engine.self_ns", "ns"},
	{"engine.step_p50_ns", "ns"},
	{"engine.step_p99_ns", "ns"},
	{"engine.phase.deliver_ns", "ns"},
	{"engine.phase.execute_ns", "ns"},
	{"engine.phase.prepare_ns", "ns"},
	{"engine.phase.reroute_ns", "ns"},
	{"engine.phase.publish_ns", "ns"},
	{"engine.allocs_per_batch", "count"},
	{"engine.steps", "count"},
	{"engine.messages", "count"},
	{"engine.batches", "count"},
	{"engine.frontier_mean", "count"},
	{"engine.delivered", "count"},
	{"engine.woken", "count"},
	{"engine.settle_ratio", "ratio"},
	{"engine.rule.virtual_nodes", "count"},
	{"engine.rule.overlapping_neighborhood", "count"},
	{"engine.rule.closest_real_neighbor", "count"},
	{"engine.rule.linearization", "count"},
	{"engine.rule.ring_edges", "count"},
	{"engine.rule.connection_edges", "count"},
	{"engine.flow_hit_ratio", "ratio"},
	{"engine.steps_per_event", "count"},
	{"routing.self_ns", "ns"},
	{"routing.resolve_ns", "ns"},
	{"routing.walk_ns", "ns"},
	{"routing.prune_ns", "ns"},
	{"routing.fallbacks", "count"},
	{"routing.hit_ratio", "ratio"},
	{"routing.invalidations", "count"},
	{"routing.hops_mean", "count"},
	{"dht.self_ns", "ns"},
	{"dht.op_self_ns", "ns"},
	{"dht.rebalance_ns", "ns"},
	{"dht.keys_moved", "count"},
	{"wire.frames", "count"},
	{"wire.bytes", "B"},
	{"wire.bucket_updates", "count"},
	{"wire.one_shots", "count"},
	{"wire.publishes", "count"},
	{"wire.self_ns", "ns"},
	{"wire.rank0_ns", "ns"},
	{"wire.rank1_ns", "ns"},
	{"wire.rank0.self_ns", "ns"},
	{"wire.rank1.self_ns", "ns"},
	{"wire.rank0.send_ns", "ns"},
	{"wire.rank1.send_ns", "ns"},
	{"wire.rank0.recv_ns", "ns"},
	{"wire.rank1.recv_ns", "ns"},
	{"wire.rank0_wait_ns", "ns"},
	{"bench.self_ns", "ns"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ns", "ns"},
	{"setup.build_ns", "ns"},
	{"setup.settle_ns", "ns"},
	{"setup.preload_ns", "ns"},
	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
}

// setLayers reports the traced pass. Unit-level figures are
// slot-balanced trimmed means over the traced units (center); span and
// GC figures are per-unit means (a layer's self time is its spans' time
// minus the time of the layer calls nested in them); step percentiles
// pool the pass.
func setLayers(r *report, tr *tracer, plain, traced []unit, steps stepLog) {
	var slots []int
	for _, u := range traced {
		slots = append(slots, u.slot)
	}
	for _, l := range layerNames {
		var xs []float64
		for _, u := range traced {
			xs = append(xs, u.layer[l.name])
		}
		r.setLayer(l.name, center(xs, slots), l.unit)
	}
	for _, name := range []string{"build", "settle", "preload"} {
		r.setLayer("setup."+name+"_ns", steps.seconds(name)*1e9, "ns")
	}
	// GC cycles are rarer than units on some workloads, so these two
	// are means.
	n := float64(len(traced))
	var gcs, pauses float64
	for _, u := range traced {
		gcs += float64(u.cost.gcCycles)
		pauses += float64(u.cost.gcPauseNS)
	}
	r.setLayer("runtime.gc_cycles", gcs/n, "count")
	r.setLayer("runtime.gc_pause_ns", pauses/n, "ns")

	sum, count, stepDurs := tr.totals(spStep)
	per := func(ks ...spanKind) float64 {
		var t int64
		for _, k := range ks {
			t += sum[k]
		}
		return float64(t) / n
	}
	r.setLayer("engine.self_ns", per(spStep), "ns")
	r.setLayer("engine.step_p50_ns", quantile(stepDurs, 0.50), "ns")
	r.setLayer("engine.step_p99_ns", quantile(stepDurs, 0.99), "ns")
	r.setLayer("routing.resolve_ns", per(spResolve), "ns")
	r.setLayer("routing.walk_ns", per(spWalk), "ns")
	r.setLayer("routing.prune_ns", per(spPrune), "ns")
	r.setLayer("routing.self_ns", per(spResolve, spWalk, spPrune), "ns")
	r.setLayer("dht.op_self_ns", per(spKV)-per(spResolve, spWalk), "ns")
	r.setLayer("dht.rebalance_ns", per(spRebalance), "ns")
	r.setLayer("dht.self_ns", per(spKV, spRebalance)-per(spResolve, spWalk), "ns")
	r.setLayer("wire.self_ns", per(spSend0, spSend1, spRecv0, spRecv1, spWait0), "ns")
	r.setLayer("wire.rank0_ns", per(spRank0), "ns")
	r.setLayer("wire.rank1_ns", per(spRank1), "ns")
	r.setLayer("wire.rank0.send_ns", per(spSend0), "ns")
	r.setLayer("wire.rank1.send_ns", per(spSend1), "ns")
	r.setLayer("wire.rank0.recv_ns", per(spRecv0, spWait0), "ns")
	r.setLayer("wire.rank1.recv_ns", per(spRecv1), "ns")
	r.setLayer("wire.rank0_wait_ns", per(spWait0), "ns")
	r.setLayer("wire.rank0.self_ns", per(spRank0)-per(spSend0, spRecv0, spWait0), "ns")
	r.setLayer("wire.rank1.self_ns", per(spRank1)-per(spSend1, spRecv1), "ns")

	// The benchmark's own share: what the goroutine running the unit
	// spent outside its top-level layer calls (on wire that goroutine
	// is rank 0).
	var wall float64
	for _, u := range traced {
		wall += float64(u.cost.wall)
	}
	r.setLayer("bench.self_ns", wall/n-per(spStep, spKV, spRebalance, spPrune, spRank0), "ns")

	var spans int64
	for _, c := range count {
		spans += c
	}
	r.setLayer("trace.spans", float64(spans)/n, "count")
	var pw, tw []float64
	for i := range traced {
		pw = append(pw, plain[i].cost.wall.Seconds())
		tw = append(tw, traced[i].cost.wall.Seconds())
	}
	r.setLayer("trace.overhead_s", center(tw, slots)-center(pw, slots), "s")
}

// engineTally sums engine counter deltas over a unit.
type engineTally map[string]float64

// add accumulates the engine's counters from snapshot a to snapshot b.
func (t engineTally) add(a, b obs.EngineSnapshot) {
	t["engine.batches"] += float64(b.Batches - a.Batches)
	t["engine.activated"] += float64(b.Activated - a.Activated)
	t["engine.delivered"] += float64(b.Delivered - a.Delivered)
	t["engine.woken"] += float64(b.Woken - a.Woken)
	t["engine.settled"] += float64(b.Settled - a.Settled)
	t["engine.unsettled"] += float64(b.Unsettled - a.Unsettled)
	for _, name := range obs.RuleNames {
		t["engine.rule."+name] += float64(b.RuleFired[name] - a.RuleFired[name])
	}
	for _, ph := range []string{"deliver", "execute", "prepare", "reroute", "publish"} {
		bs, as := b.PhaseNS[ph], a.PhaseNS[ph]
		t["engine.phase."+ph+"_ns"] += bs.Mean*float64(bs.Count) - as.Mean*float64(as.Count)
	}
	t["engine.flow_installs"] += float64(b.FlowInstallsShared + b.FlowInstallsCopied - a.FlowInstallsShared - a.FlowInstallsCopied)
	t["engine.flow_shared"] += float64(b.FlowInstallsShared - a.FlowInstallsShared)
}

// finish turns the sums into the reported per-layer figures and copies
// the deterministic counts among them into exact.
func (t engineTally) finish(exact map[string]int64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range t {
		out[k] = v
		if k == "engine.steps" || k == "engine.messages" || k == "engine.batches" || k == "engine.delivered" ||
			k == "engine.woken" || strings.HasPrefix(k, "engine.rule.") {
			exact[k] = int64(v)
		}
	}
	if b := t["engine.batches"]; b > 0 {
		out["engine.frontier_mean"] = t["engine.activated"] / b
		out["engine.allocs_per_batch"] = t["engine.step_allocs"] / b
	}
	if s := t["engine.settled"] + t["engine.unsettled"]; s > 0 {
		out["engine.settle_ratio"] = t["engine.settled"] / s
	}
	if f := t["engine.flow_installs"]; f > 0 {
		out["engine.flow_hit_ratio"] = t["engine.flow_shared"] / f
	}
	return out
}

// allocSample reads the runtime's cumulative heap allocation count
// without stopping the world; the traced pass reads it around each
// Step to attribute allocations to the engine.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// sameCounts compares a unit's exact counts with another run of the
// same unit: any difference is a defect, never noise.
func sameCounts(want, got map[string]int64) error {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			return fmt.Errorf("exact count %s: %d, then %d", k, want[k], got[k])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("exact counts %v, then %v", want, got)
	}
	return nil
}
