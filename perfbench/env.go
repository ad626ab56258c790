package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// envStamp identifies where and from what a result was measured: the
// core count goes next to every number.
type envStamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	// Commit is the VCS revision embedded at build time, "unknown"
	// when the build tree was not a git checkout; BuildID (a hash of
	// the benchmark binary) then still tells builds apart.
	Commit  string `json:"commit"`
	BuildID string `json:"build_id"`
}

func stamp() envStamp {
	e := envStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     "unknown",
		BuildID:    buildID(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					e.Commit += "+dirty"
				}
			}
		}
	}
	return e
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// buildID hashes the running executable.
func buildID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkLedger compares this run's exact counts, unit by unit, with
// those recorded by earlier runs of the same build, workload and seed,
// and records the longest series seen. A difference is a benchmark
// defect (a count that should be deterministic is not), never noise to
// average away.
func checkLedger(cfg config, env envStamp, exact []map[string]int64) error {
	if cfg.stateDir == "" {
		return nil
	}
	dir := filepath.Join(cfg.stateDir, "exact")
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", cfg.workload, cfg.seed, env.BuildID))
	var want []map[string]int64
	old, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(old, &want); err != nil {
			return fmt.Errorf("exact-count ledger %s: %w", path, err)
		}
	}
	for i := 0; i < len(want) && i < len(exact); i++ {
		if err := sameCounts(want[i], exact[i]); err != nil {
			return fmt.Errorf("unit %d against an earlier run of this build and seed: %w", i, err)
		}
	}
	if len(exact) <= len(want) {
		return nil
	}
	b, err := json.Marshal(exact)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sample is a point-in-time reading of the process counters a unit of
// work is measured by.
type sample struct {
	wall       time.Time
	cpu        time.Duration
	allocs     uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNS  uint64
}

func takeSample() sample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return sample{
		wall:       time.Now(),
		cpu:        cpuTime(),
		allocs:     ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		gcPauseNS:  ms.PauseTotalNs,
	}
}

// cost is the difference between two samples: what one unit of work
// took.
type cost struct {
	wall       time.Duration
	cpu        time.Duration
	allocs     uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNS  uint64
}

func (s sample) since(t sample) cost {
	return cost{
		wall:       s.wall.Sub(t.wall),
		cpu:        s.cpu - t.cpu,
		allocs:     s.allocs - t.allocs,
		allocBytes: s.allocBytes - t.allocBytes,
		gcCycles:   s.gcCycles - t.gcCycles,
		gcPauseNS:  s.gcPauseNS - t.gcPauseNS,
	}
}

// heapPerPeer is the live heap after a full collection divided by the
// peer count: the repository's BenchmarkMemoryPerPeer method.
func heapPerPeer(peers int) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / float64(peers)
}
