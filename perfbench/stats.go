package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

var epoch = time.Now()

// now is the benchmark's monotonic clock in nanoseconds.
func now() int64 { return int64(time.Since(epoch)) }

// sleepUntil sleeps until the clock reads t.
func sleepUntil(t int64) {
	if d := t - now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// cpuNS is the process's user+system CPU time.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runtimeSample reads the Go runtime counters a phase reports.
type runtimeSample struct {
	allocBytes float64 // cumulative heap allocation
	gcCPU      float64 // cumulative GC CPU seconds (runtime estimate)
	cpu        int64   // process CPU, ns
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		cpu:        cpuNS(),
	}
}

// liveHeap is the heap marked live by the most recent GC.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak samples the live heap until stopped and reports its peak.
type heapPeak struct {
	stop chan struct{}
	done chan uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan uint64)}
	go func() {
		peak := liveHeap()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				if v := liveHeap(); v > peak {
					peak = v
				}
				h.done <- peak
				return
			case <-tick.C:
				if v := liveHeap(); v > peak {
					peak = v
				}
			}
		}
	}()
	return h
}

// finish stops the sampler. The live heap is only measured at a
// collection, and a phase may run without one, so finish also collects
// once and counts the heap live at the end of the phase.
func (h *heapPeak) finish() uint64 {
	close(h.stop)
	return max(<-h.done, harnessHeap())
}

// harnessHeap forces a collection and returns the live heap: the
// inputs and sample buffers the benchmark holds, which heap_peak_mb
// subtracts so that it reports the program's own memory.
func harnessHeap() uint64 {
	runtime.GC()
	return liveHeap()
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile[T int64 | uint32 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return float64(sorted[i])
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// sliceEnds splits a timed phase starting at start into n equal slices
// and returns their end times.
func sliceEnds(start int64, seconds float64, n int) []int64 {
	ends := make([]int64, n)
	d := int64(seconds * 1e9)
	for i := range ends {
		ends[i] = start + d*int64(i+1)/int64(n)
	}
	return ends
}

// cpuAtEnds samples process CPU at each slice end; the result has one
// more entry than ends, the first taken now.
func cpuAtEnds(ends []int64) []int64 {
	out := []int64{cpuNS()}
	for _, e := range ends {
		sleepUntil(e)
		out = append(out, cpuNS())
	}
	return out
}

// stopwatch times repeated set-ups: setup_s is the median of several.
type stopwatch struct{ runs []float64 }

func (s *stopwatch) time(fn func() error) error {
	t0 := now()
	err := fn()
	s.runs = append(s.runs, float64(now()-t0)/1e9)
	return err
}

// gcQuiet runs a collection and returns; called between phases so one
// phase's garbage is not collected on the next phase's clock.
func gcQuiet() { runtime.GC() }
