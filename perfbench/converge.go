package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/sim"
	"repro/internal/topogen"
)

// The converge workload is Theorem 1.1: a random weakly connected
// topology of convergeN peers, stepped by the synchronous engine at
// Workers=GOMAXPROCS (1, see main) until it is quiescent. All five barrier phases
// run at full frontier, with no routing or store work. Unit i is one
// topology drawn from (seed, i); building it is the unit's set-up,
// timed apart. Throughput counts protocol messages (ops_per_s is
// messages per second); op latency is the latency of one round.
const convergeN = 256

type convergeStream struct {
	seed  int64
	steps stepLog
	lat   []uint32
	rep   *report
}

func setupConverge(cfg config, rep *report, steps stepLog) (stream, error) {
	rep.extra["peers"] = convergeN
	return &convergeStream{seed: cfg.seed, steps: steps, lat: make([]uint32, 0, 1<<12), rep: rep}, nil
}

func (s *convergeStream) next(i int, tr *tracer) (unit, error) {
	var ids []ident.ID
	var nw *rechord.Network
	for range unitBuilds {
		t0 := time.Now()
		rng := rand.New(rand.NewSource(subSeed(s.seed, i)))
		ids = topogen.RandomIDs(convergeN, rng)
		nw = topogen.Random().Build(ids, rng, rechord.Config{Workers: runtime.GOMAXPROCS(0)})
		d := time.Since(t0)
		s.steps.add("total", d)
		s.steps.add("build", d)
	}

	before := nw.Obs().Snapshot()
	maxRounds := sim.DefaultMaxRounds(convergeN)
	var rounds, messages int64
	var stepAllocs uint64
	s.lat = s.lat[:0]
	s0 := takeSample()
	for !nw.Quiescent() {
		if rounds >= int64(maxRounds) {
			return unit{}, fmt.Errorf("no fixed point within %d rounds", maxRounds)
		}
		var a0 uint64
		if tr != nil {
			a0 = heapAllocs()
		}
		t := time.Now()
		ts := tr.begin()
		st := nw.Step()
		tr.end(spStep, ts)
		s.lat = append(s.lat, latency(time.Since(t)))
		if tr != nil {
			stepAllocs += heapAllocs() - a0
		}
		rounds++
		messages += int64(st.MessagesSent)
	}
	c := takeSample().since(s0)
	s.rep.attempted++

	// Output checks, outside the timed phase.
	if err := rechord.ComputeIdeal(ids).Matches(nw); err != nil && s.rep.checkErr == nil {
		s.rep.checkErr = fmt.Errorf("unit %d: not the oracle topology: %w", i, err)
	}
	if got := nw.CountLocallyStable(); got != convergeN && s.rep.checkErr == nil {
		s.rep.checkErr = fmt.Errorf("unit %d: %d of %d peers locally stable", i, got, convergeN)
	}

	tally := engineTally{"engine.steps": float64(rounds), "engine.messages": float64(messages), "engine.step_allocs": float64(stepAllocs)}
	tally.add(before, nw.Obs().Snapshot())
	exact := map[string]int64{}
	u := unit{cost: c, ops: messages, lat: s.lat, layer: tally.finish(exact), exact: exact}
	u.perPeer = heapPerPeer(convergeN)
	runtime.KeepAlive(nw)
	return u, nil
}

func (s *convergeStream) close(*report) {}

// unitBuilds is how many times a unit builds its input, each build
// timed as one set-up. A build takes under a millisecond, where one
// timing swings with the cache and the scheduler: with one build a unit
// setup_s spread 0.17 (converge) and 0.28 (wire) between seeds.
const unitBuilds = 5

// subSeed derives unit i's seed from the run's seed (splitmix64).
func subSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
