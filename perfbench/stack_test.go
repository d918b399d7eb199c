package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	realloc "repro"
	"repro/internal/alignsched"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/multi"
	"repro/internal/sched"
	"repro/internal/trim"
	"repro/internal/workload"
)

// Each optional interface of package sched, as a probe.
var optional = map[string]func(sched.Scheduler) bool{
	"BatchScheduler": func(s sched.Scheduler) bool { _, ok := s.(sched.BatchScheduler); return ok },
	"BatchEvictor":   func(s sched.Scheduler) bool { _, ok := s.(sched.BatchEvictor); return ok },
	"Poisoner":       func(s sched.Scheduler) bool { _, ok := s.(sched.Poisoner); return ok },
	"Recycler":       func(s sched.Scheduler) bool { _, ok := s.(sched.Recycler); return ok },
	"Elastic":        func(s sched.Scheduler) bool { _, ok := s.(sched.Elastic); return ok },
}

// A wrapper that hid one of these would silently switch the layer
// above to another code path; one that added Elastic would let a shard
// resize a layer that cannot be resized.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	coreF := func() sched.Scheduler { return core.New() }
	layers := map[string]sched.Scheduler{
		"core":       core.New(),
		"trim":       trim.New(gamma, coreF),
		"multi":      multi.New(2, multi.Factory(func() sched.Scheduler { return trim.New(gamma, coreF) })),
		"alignsched": alignsched.New(multi.New(2, multi.Factory(coreF))),
	}
	tr := &tracer{}
	for lname, inner := range layers {
		w := tr.wrap(layerCore, inner)
		for iname, has := range optional {
			if has(inner) && !has(w) {
				t.Errorf("%s: wrapper hides %s", lname, iname)
			}
		}
		if optional["Elastic"](inner) != optional["Elastic"](w) {
			t.Errorf("%s: wrapper Elastic = %v, layer Elastic = %v", lname, optional["Elastic"](w), optional["Elastic"](inner))
		}
	}
}

func mixedInputs(t *testing.T, steps int) []jobs.Request {
	t.Helper()
	reqs, err := workload.Mixed(workload.MixedConfig{
		Seed: 1, Machines: churnMachines, Gamma: gamma, Horizon: churnHorizon, Steps: steps,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

// The traced composition makes exactly the decisions realloc.New
// makes: the same cost for every request and the same final
// schedule, and its layer self times partition the outermost span.
func TestTracedStackMatchesNew(t *testing.T) {
	reqs := mixedInputs(t, 60_000)
	tr := &tracer{}
	traced := newStack(tr, churnMachines)
	plain := realloc.New(realloc.WithMachines(churnMachines))
	var reallocs int
	for i, r := range reqs {
		c1, err1 := realloc.Apply(traced, r)
		c2, err2 := realloc.Apply(plain, r)
		if c1 != c2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("request %d (%v): traced %+v, %v; realloc.New %+v, %v", i, r, c1, err1, c2, err2)
		}
		reallocs += c1.Reallocations
	}
	if !reflect.DeepEqual(traced.Assignment(), plain.Assignment()) {
		t.Fatal("final assignments differ")
	}
	t.Logf("%d requests, %d reallocations on both stacks", len(reqs), reallocs)

	st := sumTracers([]*tracer{tr})
	var self int64
	for i, l := range st.layers {
		if l.selfNS < 0 || l.selfNS > l.totalNS {
			t.Errorf("%s: self %d ns outside [0, total %d ns]", layerNames[i], l.selfNS, l.totalNS)
		}
		self += l.selfNS
	}
	if self != st.layers[layerAlign].totalNS {
		t.Errorf("self times sum to %d ns, outermost spans cover %d ns", self, st.layers[layerAlign].totalNS)
	}
	if got := st.layers[layerAlign].reqs; got != int64(len(reqs)) {
		t.Errorf("outermost layer saw %d requests, want %d", got, len(reqs))
	}
}

// With one client the traced sharded composition matches
// realloc.NewSharded request by request, through both the per-request
// and the bulk paths.
func TestTracedShardedMatchesNewSharded(t *testing.T) {
	reqs := mixedInputs(t, 30_000)
	streams, err := burstInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	var tracers []*tracer
	traced := newTracedSharded(burstShards, burstMachines, nil, newExecTimes(), &tracers)
	defer traced.Close()
	plain := realloc.NewSharded(realloc.WithShards(burstShards), realloc.WithMachines(burstMachines))
	defer plain.Close()

	for i, r := range reqs {
		c1, err1 := traced.Apply(r)
		c2, err2 := plain.Apply(r)
		if c1 != c2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("request %d (%v): traced %+v, %v; NewSharded %+v, %v", i, r, c1, err1, c2, err2)
		}
	}
	for d, stream := range streams {
		for from := 0; from < stream.len(); from += burstChunk {
			chunk := stream.appendRange(nil, from, min(from+burstChunk, stream.len()))
			c1, err1 := traced.ApplyBatch(chunk)
			c2, err2 := plain.ApplyBatch(chunk)
			if !reflect.DeepEqual(c1, c2) || (err1 == nil) != (err2 == nil) {
				t.Fatalf("client %d chunk at %d: traced %v, %v; NewSharded %v, %v", d, from, c1, err1, c2, err2)
			}
		}
	}
	if !reflect.DeepEqual(traced.Snapshot().Assignment, plain.Snapshot().Assignment) {
		t.Fatal("final assignments differ")
	}
	if err := realloc.Verify(traced); err != nil {
		t.Fatal(err)
	}
}

// The metric names and units the program reports are the ones
// BENCHMARK.json declares, in the same order.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Work     []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricSpec, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
	if len(b.Work) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, program %d", len(b.Work), len(workloads))
	}
	for _, w := range b.Work {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
}
