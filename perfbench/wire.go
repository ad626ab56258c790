package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/rechord"
	"repro/internal/sim"
	"repro/internal/topogen"
	"repro/internal/wire"
)

// The wire workload is a 2-rank star cluster (rank 0 runs RunSeed,
// rank 1 RunWorker, each at Workers=1; the ranks share the one P, see
// main) over the in-process ChanNet transport: every frame goes
// through the full codec, but no real link is crossed. It is the only workload that exercises
// rechord.Partition, the codec, the transport and rank 0's merge. Unit
// i is one script drawn from (seed, i): a random topology of wireN
// peers with the gate script's join, leave, fail and join ops, run to
// the fixed point. Drawing the script is the unit's set-up, timed
// apart. Throughput counts the bucket updates the frames carry
// (ops_per_s is updates per second); op latency is the latency of one
// lockstep round as rank 1 sees it.
const wireN = 256

// wireScript draws a script: the topology from the seed, then the gate
// script's four membership ops against its peers. It also returns the
// membership the script ends with.
func wireScript(seed int64) (*wire.Script, []ident.ID, error) {
	s := &wire.Script{Topology: "random", N: wireN, Seed: seed, MaxRounds: wire.DefaultMaxRounds}
	nw, err := s.Build(rechord.Config{Workers: 1})
	if err != nil {
		return nil, nil, err
	}
	ids := nw.Peers()
	rng := rand.New(rand.NewSource(seed))
	fresh := func() ident.ID {
		for {
			if id := ident.ID(rng.Uint64() | 1); nw.Peer(id) == nil {
				return id
			}
		}
	}
	j1, j2 := fresh(), fresh()
	s.Ops = []wire.Op{
		{Round: 3, Kind: wire.OpJoin, ID: j1, Contact: ids[0]},
		{Round: 6, Kind: wire.OpLeave, ID: ids[3]},
		{Round: 9, Kind: wire.OpFail, ID: ids[7]},
		{Round: 12, Kind: wire.OpJoin, ID: j2, Contact: j1},
	}
	final := []ident.ID{j1, j2}
	for _, id := range ids {
		if id != ids[3] && id != ids[7] {
			final = append(final, id)
		}
	}
	return s, final, nil
}

// stableFingerprint is the state fingerprint of the stable network of
// the given membership, built the way churn.StableNetwork builds it.
// The fingerprint digests protocol state only, so a cluster that ends
// in the oracle topology of that membership must match it.
func stableFingerprint(ids []ident.ID, seed int64) (uint64, error) {
	nw := topogen.PreStabilized().Build(ids, rand.New(rand.NewSource(seed)), rechord.Config{})
	if _, err := sim.RunToStable(context.Background(), nw, sim.Options{MaxRounds: sim.DefaultMaxRounds(len(ids))}); err != nil {
		return 0, err
	}
	if err := rechord.ComputeIdeal(ids).Matches(nw); err != nil {
		return 0, fmt.Errorf("reference network is not the oracle topology: %w", err)
	}
	return nw.StateFingerprint(nil), nil
}

// tracedConn times Send and Recv on one rank's end of a connection.
// On rank 1 it also records the round latency (from one round frame
// sent to the next), the workload's op latency, in both passes.
type tracedConn struct {
	wire.Conn
	tr               *tracer
	send, recv, wait spanKind
	rounds           *[]uint32 // rank 1 only
	lastRound        time.Time
	// onRound, when set, runs as rank 1 is about to send its frame for
	// round onRoundAt. Both ranks hold their replicas then: rank 0
	// waits for that frame.
	onRound   func()
	onRoundAt int
}

func (c *tracedConn) Send(f wire.Frame) error {
	if rf, ok := f.(*wire.RoundFrame); ok && c.rounds != nil {
		if c.onRound != nil && rf.Round == c.onRoundAt {
			c.onRound()
		}
		now := time.Now()
		if !c.lastRound.IsZero() {
			*c.rounds = append(*c.rounds, latency(now.Sub(c.lastRound)))
		}
		c.lastRound = now
	}
	t := c.tr.begin()
	err := c.Conn.Send(f)
	c.tr.end(c.send, t)
	return err
}

func (c *tracedConn) Recv() (wire.Frame, error) {
	t := c.tr.begin()
	f, err := c.Conn.Recv()
	if _, ok := f.(*wire.RoundFrame); ok {
		c.tr.end(c.wait, t)
	} else {
		c.tr.end(c.recv, t)
	}
	return f, err
}

// tracedListener hands out rank 0's traced connections.
type tracedListener struct {
	wire.Listener
	tr *tracer
}

func (l tracedListener) Accept() (wire.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: l.tr, send: spSend0, recv: spRecv0, wait: spWait0}, nil
}

// runCluster runs the script on a fresh 2-rank cluster, appending rank
// 1's round latencies to *rounds. onRound, when set, runs in round at
// (see tracedConn).
func runCluster(s *wire.Script, tr *tracer, rounds *[]uint32, onRound func(), at int) (*wire.Result, obs.WireSnapshot, error) {
	var met obs.WireMetrics
	cn := wire.NewChanNet(nil, s.Seed, &met)
	ln, err := cn.Listen("seed")
	if err != nil {
		return nil, obs.WireSnapshot{}, err
	}
	defer ln.Close()
	c, err := cn.Dial("seed")
	if err != nil {
		return nil, obs.WireSnapshot{}, err
	}
	defer c.Close()
	node := func(rank int) *wire.Node {
		return &wire.Node{Rank: rank, Procs: 2, Script: s, Config: rechord.Config{Workers: 1}, Metrics: &met}
	}

	var wg sync.WaitGroup
	var workerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		tc := &tracedConn{Conn: c, tr: tr, send: spSend1, recv: spRecv1, wait: spRecv1, rounds: rounds, onRound: onRound, onRoundAt: at}
		t := tr.begin()
		_, workerErr = node(1).RunWorker(tc)
		tr.end(spRank1, t)
	}()
	t := tr.begin()
	res, err := node(0).RunSeed(tracedListener{Listener: ln, tr: tr})
	tr.end(spRank0, t)
	if err != nil {
		c.Close() // unblocks rank 1
	}
	wg.Wait()
	if err != nil {
		return nil, obs.WireSnapshot{}, fmt.Errorf("rank 0: %w", err)
	}
	if workerErr != nil {
		return nil, obs.WireSnapshot{}, fmt.Errorf("rank 1: %w", workerErr)
	}
	return res, met.Snapshot(), nil
}

type wireStream struct {
	seed  int64
	steps stepLog
	lat   []uint32
	rep   *report
}

func setupWire(cfg config, rep *report, steps stepLog) (stream, error) {
	rep.extra["peers"] = wireN
	return &wireStream{seed: cfg.seed, steps: steps, lat: make([]uint32, 0, 1<<10), rep: rep}, nil
}

func (s *wireStream) next(i int, tr *tracer) (unit, error) {
	// Collect the previous unit's garbage first (converge does so when
	// it measures the heap after each unit), so that no GC cycle left
	// running by it slows the builds or this unit's run.
	runtime.GC()
	var script *wire.Script
	var final []ident.ID
	for range unitBuilds {
		t0 := time.Now()
		var err error
		if script, final, err = wireScript(subSeed(s.seed, i)); err != nil {
			return unit{}, err
		}
		d := time.Since(t0)
		s.steps.add("total", d)
		s.steps.add("build", d)
	}

	// The references, outside the timed phase: every unit against the
	// stable network of the final membership; the first unit also
	// against the script on the monolith, whose round count places the
	// heap measurement below.
	wantFP, err := stableFingerprint(final, script.Seed)
	if err != nil {
		return unit{}, err
	}
	var perPeer float64
	if i == 0 {
		monoFP, monoRounds, err := script.RunMonolith(rechord.Config{})
		if err != nil {
			return unit{}, fmt.Errorf("monolith reference: %w", err)
		}
		if monoFP != wantFP && s.rep.checkErr == nil {
			s.rep.checkErr = fmt.Errorf("monolith fingerprint %016x, stable network %016x", monoFP, wantFP)
		}
		if tr == nil {
			// Heap per overlay peer in the last round of an extra,
			// untimed run: both ranks' replicas and the transport are
			// live then.
			var discard []uint32
			measure := func() { perPeer = heapPerPeer(wireN) }
			if _, _, err := runCluster(script, nil, &discard, measure, monoRounds); err != nil {
				return unit{}, err
			}
			if perPeer == 0 {
				return unit{}, fmt.Errorf("cluster never reached the monolith's last round %d", monoRounds)
			}
		}
	}

	s.lat = s.lat[:0]
	s0 := takeSample()
	res, met, err := runCluster(script, tr, &s.lat, nil, 0)
	if err != nil {
		return unit{}, err
	}
	c := takeSample().since(s0)
	s.rep.attempted++

	// Output check: rank 0's combined fingerprint and peer count
	// equal the reference's (two joins, a leave and a failure keep the
	// count at wireN).
	if (res.Fingerprint != wantFP || res.Peers != len(final)) && s.rep.checkErr == nil {
		s.rep.checkErr = fmt.Errorf("unit %d: cluster fingerprint %016x with %d peers, reference %016x with %d",
			i, res.Fingerprint, res.Peers, wantFP, len(final))
	}
	exact := map[string]int64{
		"rounds":         int64(res.Rounds),
		"frames":         int64(met.FramesSent),
		"bytes":          int64(met.BytesSent),
		"bucket_updates": int64(met.BucketUpdates),
		"one_shots":      int64(met.OneShots),
		"publishes":      int64(met.Publishes),
		"fingerprint":    int64(res.Fingerprint),
	}
	layer := map[string]float64{
		"engine.steps":        float64(res.Rounds),
		"wire.frames":         float64(met.FramesSent),
		"wire.bytes":          float64(met.BytesSent),
		"wire.bucket_updates": float64(met.BucketUpdates),
		"wire.one_shots":      float64(met.OneShots),
		"wire.publishes":      float64(met.Publishes),
	}
	return unit{cost: c, ops: int64(met.BucketUpdates), lat: s.lat, perPeer: perPeer, layer: layer, exact: exact}, nil
}

func (s *wireStream) close(*report) {}
