package main

import (
	"os"
	"sort"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// On a shared VM the vCPUs do not run at one speed: which host core
// each is on, and what else runs beside it, differ. A single-P process
// stays on whichever vCPU it lands on, so its runs split into modes
// (on a 2-vCPU host, serve's CPU time per unit was 0.15 s pinned to one
// vCPU and 0.20 s pinned to the other in three alternating pairs of
// runs; minutes later the faster one was the other). The benchmark therefore
// pins the whole process to each allowed CPU in turn, unit by unit and
// set-up by set-up, and reports the mean over the CPUs of a per-CPU
// average (center): every run measures every core in the same proportion.

// rotation is the set of CPUs the process may run on, found at start,
// and the one it is pinned to now.
type rotation struct {
	cpus []int
	// slot is the index into cpus of the current CPU; always 0 when
	// pinning is unavailable.
	slot int
	ok   bool
}

var pin = newRotation()

func newRotation() *rotation {
	var mask [16]uint64 // 1024 CPUs
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	r := &rotation{}
	if e != 0 {
		return r
	}
	for w, bits := range mask {
		for b := 0; b < 64; b++ {
			if bits&(1<<b) != 0 {
				r.cpus = append(r.cpus, w*64+b)
			}
		}
	}
	r.ok = len(r.cpus) > 1
	return r
}

// use pins every thread of the process to the i-th CPU of the
// rotation (i taken modulo their number). Threads started later
// inherit the mask of the thread that starts them. If pinning fails,
// the rotation is switched off and the process runs unpinned.
func (r *rotation) use(i int) {
	if !r.ok {
		return
	}
	slot := i % len(r.cpus)
	var mask [16]uint64
	cpu := r.cpus[slot]
	mask[cpu/64] = 1 << (cpu % 64)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		r.off()
		return
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
		if e != 0 && e != syscall.ESRCH { // ESRCH: the thread has exited
			r.off()
			return
		}
	}
	r.slot = slot
	// Let the calling thread move before the timed work starts.
	time.Sleep(time.Millisecond)
}

// off restores the original mask on every thread and stops rotating.
func (r *rotation) off() {
	var mask [16]uint64
	for _, c := range r.cpus {
		mask[c/64] |= 1 << (c % 64)
	}
	if tasks, err := os.ReadDir("/proc/self/task"); err == nil {
		for _, t := range tasks {
			if tid, err := strconv.Atoi(t.Name()); err == nil {
				syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
			}
		}
	}
	r.ok, r.slot = false, 0
}

// timed is a duration and the rotation slot it was measured on.
type timed struct {
	d    time.Duration
	slot int
}

// stepLog records the timed set-up steps of a run by name.
type stepLog map[string][]timed

// add records d under name, on the current slot.
func (l stepLog) add(name string, d time.Duration) {
	l[name] = append(l[name], timed{d, pin.slot})
}

// seconds is the slot-balanced centre (see center) of the steps
// recorded under name, in seconds.
func (l stepLog) seconds(name string) float64 {
	xs := make([]float64, len(l[name]))
	slots := make([]int, len(l[name]))
	for i, t := range l[name] {
		xs[i], slots[i] = t.d.Seconds(), t.slot
	}
	return center(xs, slots)
}

// center is the mean over slots of the trimmed mean (trimFrac cut
// from each end) of the values measured on each slot; 0 for no values.
//
// Not the median: the host's speed wanders from unit to unit by up to
// 1.7x (serve units of 0.12 to 0.22 s within one run), so the units of
// a run spread wide and flat, and their median jumps with the few units
// that sit in the middle. Over eight 15 s serve runs the spread between
// runs (IQR/median) of the per-unit wall time was 0.099 for the median,
// 0.041 for the mean and 0.045 for the 10% trimmed mean, which still
// drops a stray stalled unit.
func center(xs []float64, slots []int) float64 {
	by := map[int][]float64{}
	for i, x := range xs {
		by[slots[i]] = append(by[slots[i]], x)
	}
	if len(by) == 0 {
		return 0
	}
	var sum float64
	for _, v := range by {
		sum += trimmedMean(v, trimFrac)
	}
	return sum / float64(len(by))
}

// trimFrac is the share of values center drops from each end.
const trimFrac = 0.1

// trimmedMean is the mean of xs without the lowest and highest
// floor(f*len) values.
func trimmedMean(xs []float64, f float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(f * float64(len(s)))
	s = s[k : len(s)-k]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}
