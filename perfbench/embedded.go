package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"

	realloc "repro"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The embedded workloads are closed loops: each client issues its next
// call as soon as the previous one returns.
//
// Their inputs are cycles: a generated stream followed by deletes of
// every job still active at its end, so a cycle leaves the scheduler
// empty and can be replayed back to back for as long as a run lasts.
// The timed phase therefore never runs the generator.

const (
	churnMachines = 8
	// A horizon of 2^14 over 8 machines keeps Mixed's population near
	// 4,000 active jobs, with window spans from 1 slot to the horizon.
	churnHorizon = 1 << 14
	churnSteps   = 300_000
	// churnWarm requests fill the population to its steady size and
	// run trim through its growth rebuilds before timing starts.
	churnWarm   = 20_000
	churnSlices = 10

	burstClients  = 2 // fixed, so the inputs do not depend on the machine
	burstShards   = 2
	burstMachines = 8
	burstHorizon  = 1 << 12
	burstWaves    = 40
	burstChunk    = 64
	burstWarm     = 1 // cycles per client before timing
	burstSlices   = 4

	setupReps = 3 // setup_s is the median of this many full set-ups
)

// closeCycle appends a delete for every job still active at the end
// of reqs, in name order.
func closeCycle(reqs []jobs.Request) []jobs.Request {
	active := make(map[string]bool)
	for _, r := range reqs {
		if r.Kind == jobs.Insert {
			active[r.Name] = true
		} else {
			delete(active, r.Name)
		}
	}
	names := make([]string, 0, len(active))
	for n := range active {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		reqs = append(reqs, jobs.DeleteReq(n))
	}
	return reqs
}

// costTally accumulates per-request costs and failures and checks
// Theorem 1's at-most-one-migration bound.
type costTally struct {
	reqs, failed, reallocs, migrations, overMigrated int64
	firstErr                                         error
}

func (t *costTally) add(c metrics.Cost, err error) {
	t.reqs++
	t.reallocs += int64(c.Reallocations)
	t.migrations += int64(c.Migrations)
	if c.Migrations > 1 {
		t.overMigrated++
	}
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

func (t *costTally) merge(o *costTally) {
	t.reqs += o.reqs
	t.failed += o.failed
	t.reallocs += o.reallocs
	t.migrations += o.migrations
	t.overMigrated += o.overMigrated
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// check records the embedded correctness checks: no request fails
// (the inputs are γ-underallocated), at most one migration per
// request, and the final schedule is feasible.
func (t *costTally) check(out *report, s realloc.Scheduler) {
	if t.failed > 0 {
		out.fail("%d of %d requests failed on an underallocated input; first: %v", t.failed, t.reqs, t.firstErr)
	}
	if t.overMigrated > 0 {
		out.fail("%d requests migrated more than one job (Theorem 1 allows one)", t.overMigrated)
	}
	if err := realloc.Verify(s); err != nil {
		out.fail("final schedule infeasible: %v", err)
	}
}

// setCosts reports the timed phase's mean costs and counts its
// requests as attempted.
func (t *costTally) setCosts(out *report) {
	out.set("reallocs_per_req", float64(t.reallocs)/float64(t.reqs))
	out.set("migrations_per_req", float64(t.migrations)/float64(t.reqs))
	out.set("ok_frac", float64(t.reqs-t.failed)/float64(t.reqs))
	out.attempted += t.reqs
	out.failed += t.failed
}

// ---- paper-churn --------------------------------------------------

type churnEnv struct {
	reqs   *stream
	s      realloc.Scheduler
	tr     *tracer // nil when untraced
	pos    int
	loop   *closedLoop
	warmup costTally
}

func churnInputs(seed int64) (*stream, error) {
	reqs, err := workload.Mixed(workload.MixedConfig{
		Seed: seed, Machines: churnMachines, Gamma: gamma, Horizon: churnHorizon, Steps: churnSteps,
	})
	if err != nil {
		return nil, err
	}
	return compact(closeCycle(reqs)), nil
}

func (e *churnEnv) build(traced bool) {
	if traced {
		e.tr = &tracer{}
		e.s = newStack(e.tr, churnMachines)
	} else {
		e.s = realloc.New(realloc.WithMachines(churnMachines))
	}
	for e.pos = 0; e.pos < churnWarm; e.pos++ {
		e.warmup.add(realloc.Apply(e.s, e.reqs.at(e.pos)))
	}
}

// run serves requests one Apply at a time until the slices end.
func (e *churnEnv) run(ends []int64, tally *costTally) *closedLoop {
	loop := e.loop
	loop.run(ends, func() int {
		tally.add(realloc.Apply(e.s, e.reqs.at(e.pos)))
		if e.pos++; e.pos == e.reqs.len() {
			e.pos = 0
		}
		return 1
	})
	return loop
}

// churnPhase runs one timed phase and returns its statistics.
func (e *churnEnv) phase(seconds float64, tally *costTally) *phaseStats {
	start := now()
	ends := sliceEnds(start, seconds, churnSlices)
	cpuc := make(chan []int64, 1)
	go func() { cpuc <- cpuAtEnds(ends) }()
	loop := e.run(ends, tally)
	return closedPhase([]*closedLoop{loop}, start, ends, <-cpuc)
}

func measurePaperChurn(cfg runConfig, out *report) error {
	var sw stopwatch
	var env *churnEnv
	var base uint64
	for i := 0; i < setupReps; i++ {
		env = nil
		var reqs *stream
		if err := sw.time(func() (err error) { reqs, err = churnInputs(cfg.seed); return err }); err != nil {
			return err
		}
		env = &churnEnv{reqs: reqs, loop: newClosedLoop(int(cfg.seconds * 400_000))}
		base = harnessHeap()
		sw.time(func() error { env.build(false); return nil })
	}
	out.set("setup_s", median(pairSums(sw.runs)))

	var tally costTally
	gcQuiet()
	peak := startHeapPeak()
	p := env.phase(cfg.seconds, &tally)
	pk := peak.finish()
	out.set("heap_peak_mb", float64(pk-min(base, pk))/(1<<20))
	p.set(out)
	out.set("max_rate_rps", median(p.throughput))
	tally.setCosts(out)
	tally.merge(&env.warmup)
	tally.check(out, env.s)
	return nil
}

// pairSums adds consecutive pairs: each set-up is timed in two parts
// (inputs, then build and warm-up) around an untimed heap baseline.
func pairSums(v []float64) []float64 {
	out := make([]float64, 0, len(v)/2)
	for i := 0; i+1 < len(v); i += 2 {
		out = append(out, v[i]+v[i+1])
	}
	return out
}

func tracePaperChurn(cfg runConfig, out *report) error {
	reqs, err := churnInputs(cfg.seed)
	if err != nil {
		return err
	}
	half := cfg.seconds / 2

	// Untraced phase: the reference for the tracing overhead and the
	// runtime's own counters.
	plain := &churnEnv{reqs: reqs, loop: newClosedLoop(int(half * 400_000))}
	plain.build(false)
	var plainTally costTally
	gcQuiet()
	rt0 := readRuntime()
	pp := plain.phase(half, &plainTally)
	rt1 := readRuntime()
	setRuntime(out, rt0, rt1, pp.reqs)
	plainTally.check(out, plain.s)
	plain = nil

	env := &churnEnv{reqs: reqs, loop: newClosedLoop(int(half * 400_000))}
	env.build(true)
	var tally costTally
	gcQuiet()
	before := sumTracers([]*tracer{env.tr})
	tp := env.phase(half, &tally)
	st := sumTracers([]*tracer{env.tr}).minus(before)
	tally.check(out, env.s)
	out.attempted += plainTally.reqs + tally.reqs
	out.failed += plainTally.failed + tally.failed

	setStackLayers(out, st, tally.reqs)
	// On this workload every request is one Apply call into the stack,
	// so the layers' self times partition the call time up to the
	// Apply dispatch and the clock reads around it.
	call := float64(tp.callNS) / float64(tp.reqs)
	out.set("paper.call_ns_per_req", call)
	out.set("trace.unattributed_frac", (call-float64(st.layers[layerAlign].totalNS)/float64(tally.reqs))/call)
	out.set("trace.overhead_frac", float64(tp.cpu)/float64(tp.reqs)/(float64(pp.cpu)/float64(pp.reqs))-1)
	setZero(out, "shard.", "wal.", "server.", "client.", "served.", "repl.", "gen.")
	return nil
}

// ---- shard-burst --------------------------------------------------

type burstEnv struct {
	streams [burstClients]*stream
	chunks  [burstClients][]jobs.Request // each client's reused ApplyBatch argument
	s       *shard.Scheduler
	tracers []*tracer
	exec    *execTimes
	tap     *walTap
	pos     [burstClients]int
	loops   [burstClients]*closedLoop
	warmup  costTally
}

func newBurstEnv(streams [burstClients]*stream, seconds float64) *burstEnv {
	e := &burstEnv{streams: streams}
	for d := range e.loops {
		e.loops[d] = newClosedLoop(int(seconds * 4000))
		e.chunks[d] = make([]jobs.Request, 0, burstChunk)
	}
	return e
}

func burstInputs(seed int64) ([burstClients]*stream, error) {
	var streams [burstClients]*stream
	for d := range streams {
		// Each client's stream is underallocated on its share of the
		// pool, so any interleaving of the streams is underallocated
		// on the whole pool and needs no ordering between clients.
		reqs, err := workload.Burst(workload.BurstConfig{
			Seed:     seed*burstClients + int64(d),
			Machines: burstMachines / burstClients, Gamma: gamma,
			Horizon: burstHorizon, Waves: burstWaves,
		})
		if err != nil {
			return streams, err
		}
		prefix := fmt.Sprintf("d%d-", d)
		for i := range reqs {
			reqs[i].Name = prefix + reqs[i].Name
		}
		streams[d] = compact(closeCycle(reqs))
	}
	return streams, nil
}

func (e *burstEnv) build(dir string, traced bool) error {
	if !traced {
		e.s = realloc.NewSharded(realloc.WithShards(burstShards), realloc.WithMachines(burstMachines), realloc.WithWAL(dir))
	} else {
		e.exec = newExecTimes()
		e.tap = &walTap{exec: e.exec}
		log, rec, err := wal.Open(dir, wal.Options{Observer: e.tap.observe})
		if err != nil {
			return err
		}
		if !rec.Empty {
			log.Close()
			return fmt.Errorf("wal dir %s is not empty", dir)
		}
		e.s = newTracedSharded(burstShards, burstMachines, log, e.exec, &e.tracers)
	}
	// Warm up: every client replays its cycle burstWarm times.
	var wg sync.WaitGroup
	tallies := make([]costTally, burstClients)
	for d := range e.streams {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for n := 0; n < burstWarm*e.streams[d].len(); n += e.call(d, &tallies[d]) {
			}
		}(d)
	}
	wg.Wait()
	for d := range tallies {
		e.warmup.merge(&tallies[d])
	}
	return nil
}

// call serves client d's next chunk with one ApplyBatch.
func (e *burstEnv) call(d int, tally *costTally) int {
	stream := e.streams[d]
	from := e.pos[d]
	to := min(from+burstChunk, stream.len())
	chunk := stream.appendRange(e.chunks[d][:0], from, to)
	costs, err := e.s.ApplyBatch(chunk)
	var be *sched.BatchError
	for i := range chunk {
		var ei error
		if err != nil {
			if errors.As(err, &be) {
				ei = be.At(i)
			} else {
				ei = err
			}
		}
		var c metrics.Cost
		if i < len(costs) {
			c = costs[i]
		}
		tally.add(c, ei)
	}
	if to == stream.len() {
		to = 0
	}
	e.pos[d] = to
	return len(chunk)
}

func (e *burstEnv) phase(seconds float64, tally *costTally) *phaseStats {
	start := now()
	ends := sliceEnds(start, seconds, burstSlices)
	cpuc := make(chan []int64, 1)
	go func() { cpuc <- cpuAtEnds(ends) }()
	tallies := make([]costTally, burstClients)
	var wg sync.WaitGroup
	for d := range e.loops {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			e.loops[d].run(ends, func() int { return e.call(d, &tallies[d]) })
		}(d)
	}
	wg.Wait()
	for d := range tallies {
		tally.merge(&tallies[d])
	}
	return closedPhase(e.loops[:], start, ends, <-cpuc)
}

func measureShardBurst(cfg runConfig, out *report) error {
	var sw stopwatch
	var env *burstEnv
	var base uint64
	for i := 0; i < setupReps; i++ {
		if env != nil {
			env.s.Close()
			env = nil
		}
		var streams [burstClients]*stream
		if err := sw.time(func() (err error) { streams, err = burstInputs(cfg.seed); return err }); err != nil {
			return err
		}
		env = newBurstEnv(streams, cfg.seconds)
		base = harnessHeap()
		dir := filepath.Join(cfg.dir, fmt.Sprintf("burst-%d", i))
		if err := sw.time(func() error { return env.build(dir, false) }); err != nil {
			return err
		}
	}
	out.set("setup_s", median(pairSums(sw.runs)))

	var tally costTally
	gcQuiet()
	peak := startHeapPeak()
	p := env.phase(cfg.seconds, &tally)
	pk := peak.finish()
	out.set("heap_peak_mb", float64(pk-min(base, pk))/(1<<20))
	p.set(out)
	out.set("max_rate_rps", median(p.throughput))
	tally.setCosts(out)
	tally.merge(&env.warmup)
	tally.check(out, env.s)
	env.s.Close()
	return nil
}

func traceShardBurst(cfg runConfig, out *report) error {
	streams, err := burstInputs(cfg.seed)
	if err != nil {
		return err
	}
	half := cfg.seconds / 2

	plain := newBurstEnv(streams, half)
	if err := plain.build(filepath.Join(cfg.dir, "plain"), false); err != nil {
		return err
	}
	var plainTally costTally
	gcQuiet()
	rt0 := readRuntime()
	pp := plain.phase(half, &plainTally)
	rt1 := readRuntime()
	setRuntime(out, rt0, rt1, pp.reqs)
	plainTally.check(out, plain.s)
	plain.s.Close()

	env := newBurstEnv(streams, half)
	if err := env.build(filepath.Join(cfg.dir, "traced"), true); err != nil {
		return err
	}
	var tally costTally
	gcQuiet()
	// The warm-up calls have returned, so the shard workers' span
	// writes happen before these reads.
	before := sumTracers(env.tracers)
	rep0 := env.s.Report()
	env.tap.reset()
	tp := env.phase(half, &tally)
	tally.check(out, env.s)
	rep1 := env.s.Report()
	env.s.Close() // joins the workers and flushes the WAL
	st := sumTracers(env.tracers).minus(before)
	out.attempted += plainTally.reqs + tally.reqs
	out.failed += plainTally.failed + tally.failed

	setStackLayers(out, st, tally.reqs)
	setShardLayers(out, []metrics.ShardReport{rep0}, []metrics.ShardReport{rep1}, st)
	sumTaps([]*walTap{env.tap}).set(out)
	out.set("trace.overhead_frac", float64(tp.cpu)/float64(tp.reqs)/(float64(pp.cpu)/float64(pp.reqs))-1)
	setZero(out, "paper.", "trace.unattributed", "server.", "client.", "served.", "repl.", "gen.")
	return nil
}
