package main

import (
	"math"
	"slices"
)

// phaseStats is what a timed phase measured, slice by slice. Each
// end-to-end figure is the median over the slices of that slice's
// value, so a short stall from a neighbour on a shared machine moves
// one slice, not the result.
type phaseStats struct {
	throughput, p50us, p99us, cpuUS []float64 // per slice
	samples, beyondP99              int       // latency samples, and the fewest beyond p99 in any slice
	reqs                            int64
	callNS                          int64 // sum of all latency samples
	cpu                             int64 // ns over the whole phase
	seconds                         float64
}

func (p *phaseStats) set(out *report) {
	out.set("throughput_rps", median(p.throughput))
	out.set("latency_p50_us", median(p.p50us))
	out.set("latency_p99_us", median(p.p99us))
	out.set("cpu_us_per_req", median(p.cpuUS))
	out.detail["latency_samples"] = p.samples
	out.detail["latency_min_beyond_p99_per_slice"] = p.beyondP99
	out.detail["slices"] = len(p.p50us)
	out.detail["requests"] = p.reqs
}

// sliceSamples adds one slice's latency samples (ns, unsorted; sorted
// in place) with its request count, duration and CPU time.
func (p *phaseStats) addSlice(lat []uint32, reqs int64, durNS, cpu int64) {
	for _, l := range lat {
		p.callNS += int64(l)
	}
	slices.Sort(lat)
	p.p50us = append(p.p50us, quantile(lat, 0.50)/1e3)
	p.p99us = append(p.p99us, quantile(lat, 0.99)/1e3)
	p.throughput = append(p.throughput, float64(reqs)/(float64(durNS)/1e9))
	if reqs > 0 {
		p.cpuUS = append(p.cpuUS, float64(cpu)/1e3/float64(reqs))
	}
	beyond := len(lat) - int(math.Ceil(0.99*float64(len(lat))))
	if p.samples == 0 || beyond < p.beyondP99 {
		p.beyondP99 = beyond
	}
	p.samples += len(lat)
	p.reqs += reqs
	p.cpu += cpu
}

// closedLoop records one closed-loop client's calls over the slices
// of a timed phase: the client issues its next call as soon as the
// previous one returns.
type closedLoop struct {
	lat   []uint32 // call durations, ns
	marks []int    // len(lat) at the end of each slice
	reqs  []int64  // requests completed by the end of each slice
}

func newClosedLoop(capHint int) *closedLoop {
	return &closedLoop{lat: make([]uint32, 0, capHint)}
}

// run calls call, which serves some requests and returns how many,
// until the last slice ends.
func (c *closedLoop) run(ends []int64, call func() int) {
	var n int64
	k := 0
	for k < len(ends) {
		t0 := now()
		m := call()
		t1 := now()
		c.lat = append(c.lat, uint32(min(t1-t0, math.MaxUint32)))
		n += int64(m)
		for k < len(ends) && t1 >= ends[k] {
			c.marks = append(c.marks, len(c.lat))
			c.reqs = append(c.reqs, n)
			k++
		}
	}
}

// closedPhase merges the loops of several clients that ran over the
// same slices.
func closedPhase(loops []*closedLoop, start int64, ends []int64, cpu []int64) *phaseStats {
	p := &phaseStats{}
	prev := start
	for k, end := range ends {
		var lat []uint32
		var reqs int64
		for _, c := range loops {
			from, fromReqs := 0, int64(0)
			if k > 0 {
				from, fromReqs = c.marks[k-1], c.reqs[k-1]
			}
			lat = append(lat, c.lat[from:c.marks[k]]...)
			reqs += c.reqs[k] - fromReqs
		}
		p.addSlice(lat, reqs, end-prev, cpu[k+1]-cpu[k])
		prev = end
	}
	return p
}
