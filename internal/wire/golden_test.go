package wire

import (
	"testing"

	"repro/internal/obs"
)

// clusterGolden is the pinned outcome of the gate script on a 2-rank
// chan cluster: the seed's round count and combined fingerprint, and
// the payload counts every rank's codec encoded (bundles included).
type clusterGolden struct {
	rounds      int
	frames      uint64
	buckets     uint64
	oneShots    uint64
	publishes   uint64
	fingerprint uint64
}

// TestGoldenChanCluster pins the partitioned scheduler end to end: the
// same script must take the same rounds and put the same number of
// frames and effect payloads on the wire as the engine it was recorded
// with. The lockstep and monolith-equivalence tests only compare
// fingerprints; this also catches an effect shipped twice or not at
// all.
func TestGoldenChanCluster(t *testing.T) {
	want := clusterGolden{rounds: 25, frames: 52, buckets: 2095, oneShots: 26, publishes: 233, fingerprint: 0x27690ef9d4629cfa}
	var met obs.WireMetrics
	res := runChanCluster(t, GateScript(t), 2, nil, &met)
	got := clusterGolden{
		rounds:      res.Rounds,
		frames:      met.FramesSent.Value(),
		buckets:     met.BucketUpdates.Value(),
		oneShots:    met.OneShots.Value(),
		publishes:   met.Publishes.Value(),
		fingerprint: res.Fingerprint,
	}
	if got != want {
		t.Fatalf("got %+v (fingerprint %#x), want %+v", got, got.fingerprint, want)
	}
}
