package main

import (
	"sync"

	"repro/internal/alignsched"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/multi"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/trim"
	"repro/internal/wal"
)

// The traced paper stack. It is composed exactly as realloc's
// buildElasticStack composes it (alignment over balanced delegation
// over trimming over the reservation core, gamma 8), through the same
// multi.Factory, trim.Factory and shard.Config.Factory seams, with a
// timing wrapper at every layer boundary. The equivalence test pins
// that it makes the same decisions as realloc.New and NewSharded.

const gamma = 8

// Paper-stack layers, outermost first.
const (
	layerAlign = iota
	layerMulti
	layerTrim
	layerCore
	numLayers
)

var layerNames = [numLayers]string{"alignsched", "multi", "trim", "core"}

type layerStat struct {
	calls   int64 // wrapper calls
	reqs    int64 // requests those calls carried (a batch carries many)
	totalNS int64
	selfNS  int64 // total minus the time covered by nested spans
}

// tracer accumulates the spans of one paper stack. A stack is driven
// by one goroutine at a time (the embedded caller, or its shard's
// worker), so the tracer is unsynchronized: read it only after that
// goroutine has stopped.
type tracer struct {
	open      []int64 // child time covered so far by each open span, innermost last
	layers    [numLayers]layerStat
	trims     []*trim.Scheduler
	rebuildNS int64      // time of trim calls during which Rebuilds() rose
	exec      *execTimes // when set, receives outermost span end times
}

func (t *tracer) enter() int64 {
	t.open = append(t.open, 0)
	return now()
}

func (t *tracer) exit(layer int, start int64, reqs int) int64 {
	end := now()
	d := end - start
	top := len(t.open) - 1
	child := t.open[top]
	t.open = t.open[:top]
	if top > 0 {
		t.open[top-1] += d
	}
	st := &t.layers[layer]
	st.calls++
	st.reqs += int64(reqs)
	st.totalNS += d
	st.selfNS += d - child
	return end
}

// execTimes maps a request's job name to the end time of the
// outermost paper-stack span that executed it, so the WAL observer
// can measure how long the request then waited for its group commit.
type execTimes struct {
	mu  sync.Mutex
	end map[string]int64
}

func newExecTimes() *execTimes { return &execTimes{end: make(map[string]int64)} }

func (e *execTimes) mark(end int64, names ...string) {
	e.mu.Lock()
	for _, n := range names {
		e.end[n] = end
	}
	e.mu.Unlock()
}

func (e *execTimes) take(name string) (int64, bool) {
	e.mu.Lock()
	t, ok := e.end[name]
	delete(e.end, name)
	e.mu.Unlock()
	return t, ok
}

// timed wraps one layer. It forwards every optional interface of
// package sched through sched's own helpers (ApplyBatch,
// TakeBatchEvictions, Poisoned, Recycle), which fall back exactly as
// they would on the wrapped layer, so the layers above take the same
// code path with or without the wrapper. Elastic is a type assertion
// in the callers, so it is forwarded by timedElastic only when the
// wrapped layer has it.
type timed struct {
	inner sched.Scheduler
	tr    *tracer
	layer int
	trim  *trim.Scheduler // the wrapped layer, when it is trim
}

type timedElastic struct{ *timed }

func (t *tracer) wrap(layer int, inner sched.Scheduler) sched.Scheduler {
	w := &timed{inner: inner, tr: t, layer: layer}
	if ts, ok := inner.(*trim.Scheduler); ok {
		w.trim = ts
		t.trims = append(t.trims, ts)
	}
	if _, ok := inner.(sched.Elastic); ok {
		return timedElastic{w}
	}
	return w
}

func (w *timed) begin() (start int64, rebuilds int) {
	if w.trim != nil {
		rebuilds = w.trim.Rebuilds()
	}
	return w.tr.enter(), rebuilds
}

func (w *timed) end(start int64, rebuilds, reqs int) int64 {
	end := w.tr.exit(w.layer, start, reqs)
	if w.trim != nil && w.trim.Rebuilds() != rebuilds {
		w.tr.rebuildNS += end - start
	}
	return end
}

func (w *timed) Insert(j jobs.Job) (metrics.Cost, error) {
	st, rb := w.begin()
	c, err := w.inner.Insert(j)
	end := w.end(st, rb, 1)
	if w.layer == layerAlign && w.tr.exec != nil {
		w.tr.exec.mark(end, j.Name)
	}
	return c, err
}

func (w *timed) Delete(name string) (metrics.Cost, error) {
	st, rb := w.begin()
	c, err := w.inner.Delete(name)
	end := w.end(st, rb, 1)
	if w.layer == layerAlign && w.tr.exec != nil {
		w.tr.exec.mark(end, name)
	}
	return c, err
}

func (w *timed) ApplyBatch(reqs []jobs.Request) ([]metrics.Cost, error) {
	st, rb := w.begin()
	cs, err := sched.ApplyBatch(w.inner, reqs)
	end := w.end(st, rb, len(reqs))
	if w.layer == layerAlign && w.tr.exec != nil {
		w.tr.exec.mu.Lock()
		for _, r := range reqs {
			w.tr.exec.end[r.Name] = end
		}
		w.tr.exec.mu.Unlock()
	}
	return cs, err
}

func (w *timed) TakeBatchEvictions() []string { return sched.TakeBatchEvictions(w.inner) }
func (w *timed) Poisoned() error              { return sched.Poisoned(w.inner) }
func (w *timed) Recycle()                     { sched.Recycle(w.inner) }
func (w *timed) Assignment() jobs.Assignment  { return w.inner.Assignment() }
func (w *timed) Active() int                  { return w.inner.Active() }
func (w *timed) Jobs() []jobs.Job             { return w.inner.Jobs() }
func (w *timed) Machines() int                { return w.inner.Machines() }
func (w *timed) SelfCheck() error             { return w.inner.SelfCheck() }

func (w timedElastic) AddMachines(n int) error {
	st, rb := w.begin()
	err := w.inner.(sched.Elastic).AddMachines(n)
	w.end(st, rb, 0)
	return err
}

func (w timedElastic) RemoveMachines(n int) (metrics.Cost, []jobs.Job, error) {
	st, rb := w.begin()
	c, moved, err := w.inner.(sched.Elastic).RemoveMachines(n)
	w.end(st, rb, 0)
	return c, moved, err
}

// newStack composes the traced Theorem 1 stack over the given machines.
func newStack(t *tracer, machines int) sched.Scheduler {
	coreF := func() sched.Scheduler {
		return t.wrap(layerCore, core.New(core.WithMaxIntervals(1<<20)))
	}
	single := func() sched.Scheduler { return t.wrap(layerTrim, trim.New(gamma, coreF)) }
	m := multi.New(machines, multi.Factory(single))
	return t.wrap(layerAlign, alignsched.New(t.wrap(layerMulti, m)))
}

// newTracedSharded composes the traced sharded front-end the way
// realloc.NewSharded does, with one tracer per shard stack; the
// tracers are appended to *tracers as the shards are built. log may be
// nil (no WAL).
func newTracedSharded(shards, machines int, log *wal.Log, exec *execTimes, tracers *[]*tracer) *shard.Scheduler {
	return shard.New(shard.Config{
		Shards:   shards,
		Machines: machines,
		WAL:      log,
		Factory: func(m int) sched.Scheduler {
			t := &tracer{exec: exec}
			*tracers = append(*tracers, t)
			return newStack(t, m)
		},
	})
}

// stackTotals sums the per-layer statistics of several tracers.
type stackTotals struct {
	layers    [numLayers]layerStat
	rebuilds  int
	rebuildNS int64
}

func sumTracers(ts []*tracer) stackTotals {
	var s stackTotals
	for _, t := range ts {
		for i := range t.layers {
			s.layers[i].calls += t.layers[i].calls
			s.layers[i].reqs += t.layers[i].reqs
			s.layers[i].totalNS += t.layers[i].totalNS
			s.layers[i].selfNS += t.layers[i].selfNS
		}
		for _, tr := range t.trims {
			s.rebuilds += tr.Rebuilds()
		}
		s.rebuildNS += t.rebuildNS
	}
	return s
}

func (s stackTotals) minus(o stackTotals) stackTotals {
	for i := range s.layers {
		s.layers[i].calls -= o.layers[i].calls
		s.layers[i].reqs -= o.layers[i].reqs
		s.layers[i].totalNS -= o.layers[i].totalNS
		s.layers[i].selfNS -= o.layers[i].selfNS
	}
	s.rebuilds -= o.rebuilds
	s.rebuildNS -= o.rebuildNS
	return s
}
