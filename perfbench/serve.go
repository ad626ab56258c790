package main

import (
	"fmt"
	"math/rand"
)

// The serve workload is the settled network under KV traffic: one
// client in a closed loop (it sends its next operation when the
// previous one returns), zipf keys, 80/15/5 get/put/delete from random
// homes, routed through the cache-then-walk resolver. The engine is
// idle, so routing and store changes show here and engine changes
// should not. Unit i is the next serveBatch operations of the client's
// seeded stream; an op is one KV operation.
//
// One client, not two: the benchmark runs on one P (see main), where a
// second client would only interleave with the first. On two cores two
// clients split runs into two modes about 2x apart in p50 and CPU time,
// depending on whether they share a core (README.md).
const (
	servePeers = 1024
	serveKeys  = 16384
	serveBatch = 100000
	serveZipfS = 1.2
)

type serveStream struct {
	st      *kvState
	client  *kvClient
	rng     *rand.Rand
	zipf    *rand.Zipf
	perPeer float64
	preload uint64 // store fingerprint after the preload
}

func setupServe(cfg config, rep *report, steps stepLog) (stream, error) {
	st, err := buildKV(cfg.seed, servePeers, serveKeys, steps)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	s := &serveStream{
		st:      st,
		client:  newKVClient(st, serveBatch),
		rng:     rng,
		zipf:    rand.NewZipf(rng, serveZipfS, 1, serveKeys-1),
		preload: st.store.Fingerprint(),
	}
	// Resident heap of the settled, preloaded network with a warm
	// routing cache.
	s.perPeer = heapPerPeer(servePeers)
	rep.extra["peers"] = servePeers
	rep.extra["keys"] = serveKeys
	return s, nil
}

func (s *serveStream) next(i int, tr *tracer) (unit, error) {
	st, c := s.st, s.client
	h0, m0 := st.cache.Stats()
	inv0, fb0 := st.cache.Invalidations(), st.res.fallbacks
	res0, hops0 := st.res.resolves, st.res.hops
	failed0, missed0 := c.failed, c.missed
	st.res.tr, c.tr = tr, tr
	c.lat = c.lat[:0]

	s0 := takeSample()
	for j := 0; j < serveBatch; j++ {
		k := int(s.zipf.Uint64())
		home := st.ids[s.rng.Intn(len(st.ids))]
		switch p := s.rng.Intn(100); {
		case p < 80:
			c.get(home, k)
		case p < 95:
			c.put(home, k)
		default:
			c.del(home, k)
		}
	}
	u := unit{cost: takeSample().since(s0), ops: serveBatch, lat: c.lat}
	st.res.tr = nil

	h, m := st.cache.Stats()
	u.layer = map[string]float64{
		"routing.fallbacks":     float64(st.res.fallbacks - fb0),
		"routing.invalidations": float64(st.cache.Invalidations() - inv0),
		"routing.hit_ratio":     float64(h-h0) / float64(h-h0+m-m0),
	}
	if n := st.res.resolves - res0; n > 0 {
		u.layer["routing.hops_mean"] = float64(st.res.hops-hops0) / float64(n)
	}
	u.exact = map[string]int64{
		"failed":    c.failed - failed0,
		"missed":    c.missed - missed0,
		"fallbacks": st.res.fallbacks - fb0,
	}
	if i == 0 {
		u.perPeer = s.perPeer
		u.exact["preload_fingerprint"] = int64(s.preload)
	}
	return u, nil
}

// close checks the client's answers, then reads every key back. On a
// settled network no operation may fail or miss.
func (s *serveStream) close(rep *report) {
	c := s.client
	if c.wrong != nil && rep.checkErr == nil {
		rep.checkErr = c.wrong
	}
	if err := c.readBack(s.st.ids); err != nil && rep.checkErr == nil {
		rep.checkErr = err
	}
	if c.missed != 0 && rep.checkErr == nil {
		rep.checkErr = fmt.Errorf("%d gets of live keys returned not found", c.missed)
	}
	if c.failed != 0 && rep.checkErr == nil {
		rep.checkErr = fmt.Errorf("%d of %d operations failed", c.failed, c.attempted)
	}
	rep.attempted += c.attempted
	rep.failed += c.failed
	rep.extra["failed_frac"] = float64(c.failed) / float64(c.attempted)
	rep.extra["miss_frac"] = float64(c.missed) / float64(c.attempted)
}
