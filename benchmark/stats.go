package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// perItem reduces repeated latencies of the same items (one slice per
// pass, items in a fixed order) to each item's median across passes, so a
// percentile over items is not moved by one slow pass.
func perItem(passes [][]float64) []float64 {
	if len(passes) == 0 {
		return nil
	}
	out := make([]float64, len(passes[0]))
	col := make([]float64, len(passes))
	for i := range out {
		for p := range passes {
			col[p] = passes[p][i]
		}
		out[i] = median(col)
	}
	return out
}

// quietest returns, in order, the indices of the half of a run's passes
// (rounded up) during which the host stole the least CPU time. Wall-clock
// metrics are taken over those passes: on a 2-vCPU VM a run's steal ranged
// from 0.6 to 12 s, and cluster-job's jobs_s with it from 0.87 to 1.5 s.
func quietest(steal []time.Duration) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	idx = idx[:(len(idx)+1)/2]
	sort.Ints(idx)
	return idx
}

// pick returns xs at the given indices.
func pick[T any](xs []T, idx []int) []T {
	out := make([]T, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// stealNote describes the steal of a run's passes and which were kept.
func stealNote(steal []time.Duration, keep []int) string {
	secs := make([]string, len(steal))
	for i, s := range steal {
		secs[i] = strconv.FormatFloat(s.Seconds(), 'f', 2, 64)
	}
	return fmt.Sprintf("steal per pass [%s] s; kept passes %v", strings.Join(secs, " "), keep)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procSample is a point-in-time reading of process CPU and allocator state;
// the difference of two samples gives the proc.* layer metrics.
type procSample struct {
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func readProc() procSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSample{cpu: cpuTime(), alloc: m.TotalAlloc, gcs: m.NumGC}
}

// cpuTime is the process's user and system CPU time so far. On a VM that
// accounts steal time, time the host took the vCPU away is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero CPU on failure is visible in the output
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal is the machine's steal time so far, summed over its CPUs, from
// /proc/stat (in USER_HZ = 100 ticks per second); 0 where it is not
// available.
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// procMetrics reports the process work done between two samples.
func procMetrics(r *report, a, b procSample) {
	r.layer("proc.cpu_s", (b.cpu - a.cpu).Seconds(), "s")
	r.layer("proc.alloc_mb", float64(b.alloc-a.alloc)/1e6, "MB")
	r.layer("proc.gc_cycles", float64(b.gcs-a.gcs), "count")
}

// heapMB is the live heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
