package main

import (
	"slices"
	"strings"
	"sync"

	"repro/internal/hdr"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// walTap is a WAL observer (realloc.WithWALObserver's signature): it
// decodes every group the log writes with wal.ScanRecords, counting
// writes, records and requests, and timing each request's wait from
// the end of the paper-stack span that executed it to the group write.
type walTap struct {
	exec *execTimes
	next func(seg uint64, off int64, group []byte) // chained observer, if any

	mu                                sync.Mutex
	writes, records, singletons, reqs int64
	bytes                             int64
	waits                             []int64 // ns
}

func (w *walTap) observe(seg uint64, off int64, group []byte) {
	if w.next != nil {
		w.next(seg, off, group)
	}
	t := now()
	recs, _ := wal.ScanRecords(group)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.bytes += int64(len(group))
	if len(recs) == 0 {
		return // a segment header
	}
	w.writes++
	for _, rec := range recs {
		var reqs []jobs.Request
		switch rec.Kind {
		case wal.KindRequest:
			reqs = []jobs.Request{rec.Req}
			w.singletons++
		case wal.KindBatch:
			reqs = rec.Batch
		default:
			continue
		}
		w.records++
		w.reqs += int64(len(reqs))
		for _, r := range reqs {
			if e, ok := w.exec.take(r.Name); ok {
				w.waits = append(w.waits, t-e)
			}
		}
	}
}

func (w *walTap) reset() {
	w.mu.Lock()
	w.writes, w.records, w.singletons, w.reqs, w.bytes = 0, 0, 0, 0, 0
	w.waits = w.waits[:0]
	w.mu.Unlock()
}

// walTotals sums several taps (one per tenant).
type walTotals struct {
	writes, records, singletons, reqs, bytes int64
	waits                                    []int64
}

func sumTaps(taps []*walTap) walTotals {
	var t walTotals
	for _, w := range taps {
		w.mu.Lock()
		t.writes += w.writes
		t.records += w.records
		t.singletons += w.singletons
		t.reqs += w.reqs
		t.bytes += w.bytes
		t.waits = append(t.waits, w.waits...)
		w.mu.Unlock()
	}
	slices.Sort(t.waits)
	return t
}

func (t walTotals) set(out *report) {
	out.set("wal.records_per_write", ratio(t.records, t.writes))
	out.set("wal.reqs_per_record", ratio(t.reqs, t.records))
	out.set("wal.bytes_per_req", ratio(t.bytes, t.reqs))
	out.set("wal.ack_wait_us_p50", quantile(t.waits, 0.5)/1e3)
}

func (t walTotals) meanWaitNS() float64 {
	var s int64
	for _, w := range t.waits {
		s += w
	}
	return ratio(s, int64(len(t.waits)))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// setStackLayers reports the paper stack's per-layer figures per client
// request.
func setStackLayers(out *report, st stackTotals, reqs int64) {
	for i, name := range layerNames {
		out.set(name+".self_ns_per_req", ratio(st.layers[i].selfNS, reqs))
	}
	out.set("core.calls_per_req", ratio(st.layers[layerCore].reqs, reqs))
	out.set("trim.rebuilds", float64(st.rebuilds))
	out.set("trim.rebuild_ms_total", float64(st.rebuildNS)/1e6)
}

// setShardLayers reports the sharded front-end's figures from two
// Report()s bracketing the traced phase (the admission histogram is
// cumulative, so its quantiles include the warm-up).
func setShardLayers(out *report, before, after []metrics.ShardReport, st stackTotals) {
	var reqs, batches, rerouted int64
	var perShard []float64
	var lat hdr.Snapshot
	for i := range after {
		lat.Merge(after[i].Total().Latency)
		for k, sc := range after[i].Shards {
			d := sc.Requests - before[i].Shards[k].Requests
			reqs += int64(d)
			batches += int64(sc.Batches - before[i].Shards[k].Batches)
			rerouted += int64(sc.Rerouted - before[i].Shards[k].Rerouted)
			perShard = append(perShard, float64(d))
		}
	}
	out.set("shard.admit_us_p50", float64(lat.Quantile(0.5))/1e3)
	out.set("shard.admit_us_p99", float64(lat.Quantile(0.99))/1e3)
	out.set("shard.reqs_per_wakeup", ratio(reqs, batches))
	out.set("shard.exec_ns_per_req", ratio(st.layers[layerAlign].totalNS, st.layers[layerAlign].reqs))
	out.set("shard.rerouted_frac", ratio(rerouted, reqs))
	if m := mean(perShard); m > 0 {
		out.set("shard.imbalance", slices.Max(perShard)/m)
	} else {
		out.set("shard.imbalance", 0)
	}
}

// setRuntime reports the Go runtime's allocation and GC figures over
// an untraced phase.
func setRuntime(out *report, a, b runtimeSample, reqs int64) {
	out.set("go.alloc_bytes_per_req", (b.allocBytes-a.allocBytes)/float64(reqs))
	out.set("go.gc_cpu_frac", (b.gcCPU-a.gcCPU)*1e9/float64(b.cpu-a.cpu))
}

// setZero reports 0 for every per-layer metric under the given name
// prefixes that the workload has not set: layers it does not exercise.
func setZero(out *report, prefixes ...string) {
	for _, s := range perLayer {
		if _, ok := out.values[s.name]; ok {
			continue
		}
		for _, p := range prefixes {
			if strings.HasPrefix(s.name, p) {
				out.set(s.name, 0)
			}
		}
	}
}
