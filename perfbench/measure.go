package main

import (
	"cmp"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dsenergy/internal/obs"
)

// clock reads monotonic host time through the obs profiling tier, the one
// place the module's wallclock lint lets host time be read. now() re-runs
// the stop function of one phase started at construction, so each call
// returns the time elapsed since then. It is not safe for concurrent use.
type clock struct {
	t    obs.PhaseTimer
	stop func()
}

func newClock() *clock {
	c := &clock{}
	c.stop = c.t.Start()
	return c
}

func (c *clock) now() time.Duration {
	before := c.t.Total()
	c.stop()
	return c.t.Total() - before
}

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p99 needs 1,000 samples, a median 20.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs:
// the value at rank ceil(p·n/100) in ascending order. It refuses when fewer
// than minBeyond samples lie above that rank.
func percentile(xs []float64, p int) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %d outside (0, 100)", p)
	}
	n := len(xs)
	rank := (p*n + 99) / 100
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%d needs %d samples beyond it, have %d of %d", p, minBeyond, n-rank, n)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// failedFrac is failed ops over attempted ops; the repeat shares reuse it
// as part over whole.
func failedFrac(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// repeatCounter measures input.repeat_frac: the share of ops whose input
// key already occurred earlier in the run.
type repeatCounter[K comparable] struct {
	seen    map[K]bool
	ops     int
	repeats int
}

// add records one op whose input is key.
func (r *repeatCounter[K]) add(key K) {
	if r.seen == nil {
		r.seen = make(map[K]bool)
	}
	r.ops++
	if r.seen[key] {
		r.repeats++
		return
	}
	r.seen[key] = true
}

func (r *repeatCounter[K]) frac() float64 { return failedFrac(r.repeats, r.ops) }

// span is one timed call the benchmark made into a layer. Spans of one
// query share id; parent is the index of the enclosing span, -1 for a root.
type span struct {
	name       string
	id         int
	parent     int
	start, end time.Duration
}

// selfTime is the span's duration minus the part of its interval that its
// child spans cover (overlapping children count once).
func selfTime(spans []span, i int) time.Duration {
	p := spans[i]
	var kids [][2]time.Duration
	for _, s := range spans {
		if s.parent != i {
			continue
		}
		lo, hi := max(s.start, p.start), min(s.end, p.end)
		if hi > lo {
			kids = append(kids, [2]time.Duration{lo, hi})
		}
	}
	slices.SortFunc(kids, func(a, b [2]time.Duration) int { return cmp.Compare(a[0], b[0]) })
	covered, reach := time.Duration(0), p.start
	for _, k := range kids {
		lo := max(k[0], reach)
		if k[1] > lo {
			covered += k[1] - lo
			reach = k[1]
		}
	}
	return p.end - p.start - covered
}

// usage is a snapshot of the process's CPU time and heap allocation, and
// of the time the hypervisor has stolen from the machine's vCPUs.
type usage struct {
	cpu    time.Duration
	steal  time.Duration
	allocs uint64
	bytes  uint64
}

func readUsage() usage {
	u := readCPU()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.allocs, u.bytes = ms.Mallocs, ms.TotalAlloc
	return u
}

// readCPU reads the CPU and stolen time of a usage; it does not stop the
// world, as readUsage's heap statistics do.
func readCPU() usage {
	var ru syscall.Rusage
	// RUSAGE_SELF on a live process cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return usage{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), steal: stolen()}
}

// stealTick is the resolution of stolen: /proc/stat counts in ticks of
// 1/USER_HZ, and USER_HZ is fixed at 100 by the Linux ABI.
const stealTick = time.Second / 100

// stolen is the time the hypervisor has run something else while one of
// the machine's vCPUs had work, summed over the vCPUs: the steal column of
// /proc/stat. It is 0 where the kernel does not report it.
func stolen() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * stealTick
}

// unstolen is the wall time an interval would have taken had the
// hypervisor stolen none of it: wall scaled by the share of the busy vCPU
// time (cpu + steal) that ran the process. The kernel leaves stolen time
// out of a process's CPU time, so a serial process that lost s of its wall
// time to steal gets wall − s, and one busy on k vCPUs about wall − s/k.
// Without steal it is wall itself.
func unstolen(wall, cpu, steal time.Duration) time.Duration {
	if cpu <= 0 || steal <= 0 {
		return wall
	}
	return time.Duration(float64(wall) * float64(cpu) / float64(cpu+steal))
}

// allocatedBytes is the heap bytes allocated so far. It is read without
// stopping the world, as runtime.ReadMemStats does: a set-up of about a
// microsecond timed right after such a pause reads three times as long.
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
