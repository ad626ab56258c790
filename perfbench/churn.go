package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/churn"
	"repro/internal/dht"
	"repro/internal/ident"
	"repro/internal/rechord"
	"repro/internal/sim"
)

// The churn workload is Section 4: a settled network holding preloaded
// keys, repairing one membership event at a time under the synchronous
// engine. After each event a single goroutine alternates churnSteps
// rounds with churnGets Gets from random live homes until the network
// is quiescent, then rebalances the store and prunes the routing
// cache. The frontier is small, and routing meets invalidated tables
// and fallback walks. The interleaving is deterministic, so every
// count repeats exactly. Unit i is the next len(churnKinds) events on
// network i mod churnNets, drawn from (seed, i) over its membership of
// the moment; an op is one Get.
//
// Why several networks: how long repairs take depends on a network's
// id layout for as long as it lives. On one network per run, the mean
// Gets per unit (64 per 4 rounds of repair) differed 25% between seeds
// 1 and 3 over 17 units each, against a standard error of about 5%;
// spreading the units over churnNets networks drawn from the seed
// averages that effect down.
//
// The asynchronous scheduler is not used: under it the same event
// streams sometimes stop at a quiescent state that is not the oracle
// topology (README.md has the reproduction), so its runs cannot pass
// the output check.
const (
	churnPeers = 256
	churnKeys  = 4096
	churnSteps = 4
	churnGets  = 64
	churnNets  = 4
)

// churnKinds fixes a unit's event mix at the expected mix of
// churn.RandomEvents (half joins, a quarter each leaves and failures),
// so the seed picks which peers churn, not how many of each kind.
var churnKinds = []string{"join", "leave", "join", "fail", "join", "leave", "join", "fail"}

type churnStream struct {
	seed   int64
	nets   []churnNet
	getRng *rand.Rand
	rep    *report
	// repairs holds each event's repair time in ms.
	repairs []float64
}

// churnNet is one of the workload's networks with its client.
type churnNet struct {
	st     *kvState
	client *kvClient
}

// setupChurn builds the churnNets networks; set-up time is the time to
// build them all.
func setupChurn(cfg config, rep *report, steps stepLog) (stream, error) {
	s := &churnStream{
		seed:   cfg.seed,
		getRng: rand.New(rand.NewSource(cfg.seed)),
		rep:    rep,
	}
	each := stepLog{}
	for k := range churnNets {
		st, err := buildKV(subSeed(cfg.seed, -1-k), churnPeers, churnKeys, each)
		if err != nil {
			return nil, err
		}
		s.nets = append(s.nets, churnNet{st: st, client: newKVClient(st, 1<<14)})
	}
	for name, ts := range each {
		var d time.Duration
		for _, t := range ts {
			d += t.d
		}
		steps.add(name, d)
	}
	rep.extra["peers"] = churnPeers
	rep.extra["keys"] = churnKeys
	rep.extra["networks"] = churnNets
	rep.extra["events_per_unit"] = len(churnKinds)
	return s, nil
}

// events draws unit i's events over the current membership of nw.
func (s *churnStream) events(i int, nw *rechord.Network) []churn.Event {
	rng := rand.New(rand.NewSource(subSeed(s.seed, i)))
	live := nw.Peers()
	var out []churn.Event
	for _, kind := range churnKinds {
		if kind == "join" {
			id := ident.ID(rng.Uint64() | 1)
			for nw.Peer(id) != nil {
				id = ident.ID(rng.Uint64() | 1)
			}
			out = append(out, churn.Event{Kind: kind, ID: id, Contact: live[rng.Intn(len(live))]})
			live = append(live, id)
			continue
		}
		j := rng.Intn(len(live))
		out = append(out, churn.Event{Kind: kind, ID: live[j]})
		live = append(live[:j], live[j+1:]...)
	}
	return out
}

func (s *churnStream) next(i int, tr *tracer) (unit, error) {
	net := s.nets[i%len(s.nets)]
	st, nw, client := net.st, net.st.nw, net.client
	st.res.tr, client.tr = tr, tr
	defer func() { st.res.tr = nil }()

	snap0 := nw.Obs().Snapshot()
	h0, m0 := st.cache.Stats()
	inv0, fb0 := st.cache.Invalidations(), st.res.fallbacks
	res0, hops0 := st.res.resolves, st.res.hops
	rounds0, gets0, failed0, missed0 := nw.Round(), client.attempted, client.failed, client.missed
	budget := sim.DefaultMaxRounds(nw.NumPeers())
	events := s.events(i, nw)
	client.lat = client.lat[:0]

	var total cost
	var stepAllocs uint64
	var moved int64
	for ei, ev := range events {
		// Keys a crashing peer holds are lost to the check.
		if ev.Kind == "fail" {
			peers := nw.Peers()
			for k := range keyNames[:churnKeys] {
				if ident.Successor(peers, dht.KeyID(keyNames[k])) == ev.ID {
					client.shadow[k] = exempt
				}
			}
		}
		s0 := takeSample()
		if err := applyEvent(nw, ev); err != nil {
			return unit{}, fmt.Errorf("event %d %v: %w", ei, ev, err)
		}
		homes := nw.Peers()
		for n := 0; ; {
			for j := 0; j < churnSteps && !nw.Quiescent(); j++ {
				if n++; n > budget {
					return unit{}, fmt.Errorf("event %d %v: not quiescent within %d rounds", ei, ev, budget)
				}
				var a0 uint64
				if tr != nil {
					a0 = heapAllocs()
				}
				ts := tr.begin()
				nw.Step()
				tr.end(spStep, ts)
				if tr != nil {
					stepAllocs += heapAllocs() - a0
				}
			}
			for j := 0; j < churnGets; j++ {
				client.get(homes[s.getRng.Intn(len(homes))], s.getRng.Intn(churnKeys))
			}
			if nw.Quiescent() {
				break
			}
		}
		ts := tr.begin()
		m, err := st.store.Rebalance()
		tr.end(spRebalance, ts)
		if err != nil {
			return unit{}, err
		}
		moved += int64(m)
		ts = tr.begin()
		st.cache.Prune()
		tr.end(spPrune, ts)
		c := takeSample().since(s0)
		total = addCost(total, c)
		s.repairs = append(s.repairs, float64(c.wall)/1e6)

		// Output check, outside the timed phase.
		if err := churn.VerifyStable(nw); err != nil && s.rep.checkErr == nil {
			s.rep.checkErr = fmt.Errorf("unit %d, after event %d %v: %w", i, ei, ev, err)
		}
	}

	rounds := nw.Round() - rounds0
	tally := engineTally{"engine.steps": float64(rounds), "engine.step_allocs": float64(stepAllocs)}
	tally.add(snap0, nw.Obs().Snapshot())
	exact := map[string]int64{
		"gets":          client.attempted - gets0,
		"failed":        client.failed - failed0,
		"missed":        client.missed - missed0,
		"keys_moved":    moved,
		"fallbacks":     st.res.fallbacks - fb0,
		"invalidations": int64(st.cache.Invalidations() - inv0),
	}
	layer := tally.finish(exact)
	layer["engine.steps_per_event"] = float64(rounds) / float64(len(events))
	layer["dht.keys_moved"] = float64(moved)
	layer["routing.fallbacks"] = float64(exact["fallbacks"])
	layer["routing.invalidations"] = float64(exact["invalidations"])
	if h, m := st.cache.Stats(); h+m > h0+m0 {
		layer["routing.hit_ratio"] = float64(h-h0) / float64(h-h0+m-m0)
	}
	if n := st.res.resolves - res0; n > 0 {
		layer["routing.hops_mean"] = float64(st.res.hops-hops0) / float64(n)
	}
	// Resident heap of all the networks over all their peers.
	peers := 0
	for _, n := range s.nets {
		peers += n.st.nw.NumPeers()
	}
	return unit{
		cost:    total,
		ops:     exact["gets"],
		lat:     client.lat,
		perPeer: heapPerPeer(peers),
		layer:   layer,
		exact:   exact,
	}, nil
}

// close reads every key back after the last rebalance: each key not
// held by a crashed peer must still be there.
func (s *churnStream) close(rep *report) {
	var attempted, failed, missed int64
	for k, n := range s.nets {
		c := n.client
		if err := c.readBack(n.st.nw.Peers()); err != nil && rep.checkErr == nil {
			rep.checkErr = fmt.Errorf("network %d, after the last rebalance: %w", k, err)
		}
		if c.wrong != nil && rep.checkErr == nil {
			rep.checkErr = c.wrong
		}
		attempted += c.attempted
		failed += c.failed
		missed += c.missed
	}
	rep.attempted += attempted
	rep.failed += failed
	if _, ok := rep.extra["repair_p50_ms"]; !ok {
		rep.extra["repair_p50_ms"] = median(s.repairs)
	}
	rep.extra["failed_frac"] = float64(failed) / float64(attempted)
	rep.extra["miss_frac"] = float64(missed) / float64(attempted)
}

// applyEvent performs one membership change on the network.
func applyEvent(nw *rechord.Network, ev churn.Event) error {
	switch ev.Kind {
	case "join":
		return nw.Join(ev.ID, ev.Contact)
	case "leave":
		return nw.Leave(ev.ID)
	default:
		return nw.Fail(ev.ID)
	}
}

// addCost sums two costs.
func addCost(a, b cost) cost {
	return cost{
		wall:       a.wall + b.wall,
		cpu:        a.cpu + b.cpu,
		allocs:     a.allocs + b.allocs,
		allocBytes: a.allocBytes + b.allocBytes,
		gcCycles:   a.gcCycles + b.gcCycles,
		gcPauseNS:  a.gcPauseNS + b.gcPauseNS,
	}
}
