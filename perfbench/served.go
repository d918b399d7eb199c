package main

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	realloc "repro"
	"repro/client"
	"repro/internal/hdr"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The served workloads are open loops: every tenant's requests are due
// on a fixed schedule, whatever the server answers, over one client
// connection per tenant to an in-process server on loopback. Tenants
// are built as reallocd builds them (OpenRecovered on a per-tenant WAL
// directory, write-back), with reallocd's default admission budget and
// coalescer tick limit.

const (
	servedTenants  = 2
	servedShards   = 2
	servedMachines = 8
	servedInflight = 1024
	servedBatch    = 128
	// Narrow windows over a small population keep the paper stack
	// cheap, so the serving layers dominate.
	servedHorizon  = 1 << 12
	servedMaxSpan  = 256
	servedTarget   = 1024
	servedDeadline = 100 * time.Millisecond

	// p99Limit is the latency limit max_rate_rps holds a rate to. It
	// sits well above the generator's own lag: a sleeping sender wakes
	// about a millisecond late on an idle two-CPU VM, and its p99 lag
	// reaches 10 ms when the host is busy.
	p99Limit = 50 * time.Millisecond
	// lagBound is the generator lag p99 beyond which a run's open-loop
	// figures measure the generator rather than the program.
	lagBound = 20 * time.Millisecond
	// failBound is the share of requests a ramp step may refuse.
	failBound = 0.001

	servedWarmSeconds = 0.5
	// sliceSamples sizes the slices of a fixed-rate phase: enough
	// requests in each that ten lie beyond its p99.
	sliceSamples    = 1000
	rampGrowth      = 1.25
	rampBisections  = 3
	rampStepSeconds = 0.5
	// ackTimeout bounds the wait for a phase's acks: every request
	// carries a 100 ms deadline, so an ack later than this is lost.
	ackTimeout = 20 * time.Second

	waitersPerTenant = 4
	// pendBuffer holds sent-but-unacked requests between the sender and
	// the ack waiters: more than a tenant has in flight at the highest
	// ramp rate within the latency limit, so the sender does not block
	// on it before a step has already failed.
	pendBuffer = 1 << 14
)

// servedPlan is one served workload's shape.
type servedPlan struct {
	rate       float64 // fixed offered rate per tenant, req/s
	rampFrom   float64 // first ramp step per tenant, req/s
	replicated bool    // attach a warm follower and promote it at the end
}

var (
	steadyPlan     = servedPlan{rate: 4000, rampFrom: 4000}
	replicatedPlan = servedPlan{rate: 1000, rampFrom: 4000, replicated: true}
)

func servedSlices(rate, seconds float64) int {
	return max(1, int(rate*servedTenants*seconds/sliceSamples))
}

// rampSteps is how many ramp steps fit in half of a run.
func rampSteps(seconds float64) int {
	return max(1, int(seconds/2/(rampStepSeconds+0.1)))
}

// servedRequests is how many requests per tenant a run's phases can
// send: every ramp probe may run twice, and the bisection probes run
// below the highest ramp rate.
func servedRequests(plan servedPlan, seconds float64, ramp bool) int {
	n := int(plan.rate*servedWarmSeconds) + int(plan.rate*seconds/2)
	if ramp {
		r := plan.rampFrom
		for k := 0; k < rampSteps(seconds); k++ {
			n += 2 * int(r*rampStepSeconds)
			r *= rampGrowth
		}
		n += rampBisections * 2 * int(r*rampStepSeconds)
	}
	return n + 1
}

func servedInputs(seed int64, perTenant int) ([]*stream, error) {
	out := make([]*stream, servedTenants)
	for t := range out {
		g, err := workload.NewGenerator(workload.Config{
			Seed: seed*servedTenants + int64(t), Machines: servedMachines, Gamma: gamma,
			Horizon: servedHorizon, MaxSpan: servedMaxSpan, Target: servedTarget,
		})
		if err != nil {
			return nil, err
		}
		reqs := make([]jobs.Request, perTenant)
		for i := range reqs {
			reqs[i] = g.Next()
		}
		out[t] = compact(reqs)
	}
	return out, nil
}

// Verdicts of one request.
const (
	vPending uint8 = iota
	vOK
	vOverload
	vDeadline
	vError // executed and rejected (unknown, duplicate, infeasible)
	vTransport
)

func verdictOf(err error) uint8 {
	switch {
	case err == nil:
		return vOK
	case errors.Is(err, realloc.ErrOverload):
		return vOverload
	case errors.Is(err, realloc.ErrDeadlineExceeded):
		return vDeadline
	case errors.Is(err, realloc.ErrClosed):
		return vTransport
	default:
		return vError
	}
}

// tenantLoad is one tenant's open-loop client: a sender that sends
// every overdue request each time it wakes, and a fixed set of ack
// waiters. Per-request arrays are indexed by position in the tenant's
// stream; each index is written by one goroutine and read after the
// phase's WaitGroup.
type tenantLoad struct {
	name    string
	c       *client.Client
	reqs    *stream
	due     []int64
	send    []int64
	ack     []int64
	sendNS  []uint32
	verdict []uint8
	next    int

	pend    chan pendItem
	waiters sync.WaitGroup
	okAcks  *atomic.Int64
}

type pendItem struct {
	i    int
	p    *client.Pending
	done *sync.WaitGroup
}

func newTenantLoad(name string, reqs *stream) *tenantLoad {
	n := reqs.len()
	return &tenantLoad{
		name: name, reqs: reqs,
		due: make([]int64, n), send: make([]int64, n), ack: make([]int64, n),
		sendNS: make([]uint32, n), verdict: make([]uint8, n),
		pend: make(chan pendItem, pendBuffer),
	}
}

func (tl *tenantLoad) start(c *client.Client) {
	tl.c = c
	for w := 0; w < waitersPerTenant; w++ {
		tl.waiters.Add(1)
		go func() {
			defer tl.waiters.Done()
			for it := range tl.pend {
				err := it.p.Wait()
				t := now()
				tl.ack[it.i] = t
				tl.verdict[it.i] = verdictOf(err)
				if err == nil {
					tl.okAcks.Add(1)
				}
				it.done.Done()
			}
		}()
	}
}

func (tl *tenantLoad) stop() {
	close(tl.pend)
	tl.waiters.Wait()
	if tl.c != nil {
		tl.c.Close()
	}
}

// sendRange sends requests [from, to) at their due times.
func (tl *tenantLoad) sendRange(from, to int, done *sync.WaitGroup) {
	for i := from; i < to; {
		t := now()
		for ; i < to && tl.due[i] <= t; i++ {
			tl.send[i] = t
			p, err := tl.c.SubmitAsync(tl.reqs.at(i), servedDeadline)
			t = now()
			tl.sendNS[i] = uint32(min(t-tl.send[i], math.MaxUint32))
			if err != nil {
				tl.ack[i], tl.verdict[i] = t, vTransport
				done.Done()
				continue
			}
			tl.pend <- pendItem{i: i, p: p, done: done}
		}
		if i < to {
			sleepUntil(tl.due[i])
		}
	}
}

// servedEnv is one running server with its tenants' clients, and for
// the replicated workload the replication source and warm follower.
type servedEnv struct {
	plan   servedPlan
	dir    string
	traced bool

	srv     *server.Server
	src     *repl.Source
	fol     *repl.Follower
	folDone chan error
	loads   []*tenantLoad
	okAcks  atomic.Int64

	mu      sync.Mutex
	scheds  map[string]*shard.Scheduler
	taps    []*walTap
	tracers []*tracer
}

var errLostAcks = errors.New("acks missing")

// newLoads allocates the tenants' clients-to-be with their
// per-request arrays.
func newLoads(inputs []*stream) []*tenantLoad {
	loads := make([]*tenantLoad, len(inputs))
	for t, reqs := range inputs {
		loads[t] = newTenantLoad(fmt.Sprintf("tenant-%d", t), reqs)
	}
	return loads
}

func newServedEnv(dir string, plan servedPlan, loads []*tenantLoad, traced bool) (*servedEnv, error) {
	e := &servedEnv{plan: plan, dir: dir, traced: traced, loads: loads, scheds: make(map[string]*shard.Scheduler)}
	for _, tl := range loads {
		tl.okAcks = &e.okAcks
	}
	if plan.replicated {
		e.src = repl.NewSource(repl.SourceConfig{Epoch: 0})
		raddr, err := e.src.Listen("127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		e.fol, err = repl.NewFollower(repl.FollowerConfig{
			Primary: raddr.String(),
			Dir:     filepath.Join(dir, "follower"),
			NewScheduler: func(_ string, ck *wal.Checkpoint) (*shard.Scheduler, error) {
				return realloc.NewShardedFromCheckpoint(ck, realloc.WithShards(servedShards), realloc.WithMachines(servedMachines))
			},
			RedialEvery: 20 * time.Millisecond,
		})
		if err != nil {
			e.close()
			return nil, err
		}
		e.folDone = make(chan error, 1)
		go func() { e.folDone <- e.fol.Run() }()
	}
	srv, err := server.Listen("127.0.0.1:0", server.Config{
		NewScheduler: e.newTenant,
		MaxInflight:  servedInflight,
		BatchLimit:   servedBatch,
	})
	if err != nil {
		e.close()
		return nil, err
	}
	e.srv = srv
	for _, tl := range e.loads {
		c, err := client.Dial(srv.Addr().String(), tl.name)
		if err != nil {
			e.close()
			return nil, err
		}
		tl.start(c)
	}
	if plan.replicated {
		// Traffic starts once the follower has installed every tenant.
		deadline := now() + int64(10*time.Second)
		for e.fol.Stats().Warm < servedTenants {
			if now() > deadline {
				e.close()
				return nil, errors.New("follower did not warm up within 10s")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return e, nil
}

// newTenant is the server's NewScheduler: reallocd's primary tenant
// composition, or the traced composition over the same WAL.
func (e *servedEnv) newTenant(tenant string) (*shard.Scheduler, error) {
	dir := filepath.Join(e.dir, "primary", repl.TenantDir(tenant))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var obs func(uint64, int64, []byte)
	if e.src != nil {
		obs = e.src.Export(tenant, dir)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var s *shard.Scheduler
	if !e.traced {
		opts := []realloc.Option{realloc.WithShards(servedShards), realloc.WithMachines(servedMachines)}
		if obs != nil {
			opts = append(opts, realloc.WithWALObserver(obs))
		}
		var err error
		if s, _, err = realloc.OpenRecovered(dir, opts...); err != nil {
			return nil, err
		}
	} else {
		tap := &walTap{exec: newExecTimes(), next: obs}
		log, rec, err := wal.Open(dir, wal.Options{Observer: tap.observe})
		if err != nil {
			return nil, err
		}
		if !rec.Empty {
			log.Close()
			return nil, fmt.Errorf("wal dir %s is not empty", dir)
		}
		s = newTracedSharded(servedShards, servedMachines, log, tap.exec, &e.tracers)
		e.taps = append(e.taps, tap)
	}
	e.scheds[tenant] = s
	return s, nil
}

func (e *servedEnv) close() {
	for _, tl := range e.loads {
		tl.stop()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.fol != nil {
		e.fol.Close()
		<-e.folDone
	}
	if e.src != nil {
		e.src.Close()
	}
}

// openRun is one open-loop phase: every tenant sends n requests at a
// fixed rate from a common start, then the phase waits for every ack.
type openRun struct {
	rate       float64 // per tenant
	start, end int64
	ranges     [][2]int // per tenant, stream positions sent
	ends, cpu  []int64  // slice ends and CPU at them, when sliced
}

func (e *servedEnv) runOpen(rate, seconds float64, nSlices int) (*openRun, error) {
	n := int(rate * seconds)
	start := now() + int64(2*time.Millisecond)
	r := &openRun{rate: rate, start: start, end: start + int64(seconds*1e9)}
	var done, senders sync.WaitGroup
	for ti, tl := range e.loads {
		from, to := tl.next, tl.next+n
		if to > tl.reqs.len() {
			return nil, fmt.Errorf("%s: input exhausted (%d of %d requests)", tl.name, to, tl.reqs.len())
		}
		r.ranges = append(r.ranges, [2]int{from, to})
		// Tenants are offset by a fraction of the interval so their
		// requests interleave instead of arriving in pairs.
		offset := float64(ti) * 1e9 / rate / float64(len(e.loads))
		for i := from; i < to; i++ {
			tl.due[i] = start + int64(offset+float64(i-from)*1e9/rate)
		}
		tl.next = to
		done.Add(n)
		senders.Add(1)
		go func(tl *tenantLoad) {
			defer senders.Done()
			tl.sendRange(from, to, &done)
		}(tl)
	}
	if nSlices > 0 {
		sleepUntil(start)
		r.ends = sliceEnds(start, seconds, nSlices)
		r.cpu = cpuAtEnds(r.ends)
	}
	senders.Wait()
	acked := make(chan struct{})
	go func() { done.Wait(); close(acked) }()
	select {
	case <-acked:
		return r, nil
	case <-time.After(ackTimeout):
		return r, errLostAcks
	}
}

// openStats is what an open-loop phase measured.
type openStats struct {
	n, ok, overload, deadline, transport int64
	lat, lag                             []int64 // ack-due and send-due, ns, sorted; refusals count as infinite latency
	sendNS                               []uint32
	ackFromSendNS                        float64   // mean over acked requests
	backlog                              int64     // requests sent and unacked when sending ended
	sliceLagUS                           []float64 // generator lag p99 of each slice
	phase                                *phaseStats
}

func (e *servedEnv) analyze(r *openRun) *openStats {
	s := &openStats{}
	var slat, slag [][]uint32
	var sreqs []int64
	if r.ends != nil {
		slat = make([][]uint32, len(r.ends))
		slag = make([][]uint32, len(r.ends))
		sreqs = make([]int64, len(r.ends))
	}
	var ackFromSend, acked int64
	lastSend := int64(0)
	for ti, tl := range e.loads {
		for i := r.ranges[ti][0]; i < r.ranges[ti][1]; i++ {
			lastSend = max(lastSend, tl.send[i])
		}
	}
	for ti, tl := range e.loads {
		for i := r.ranges[ti][0]; i < r.ranges[ti][1]; i++ {
			s.n++
			lat := tl.ack[i] - tl.due[i]
			switch tl.verdict[i] {
			case vOK:
				s.ok++
			case vOverload:
				s.overload++
			case vDeadline:
				s.deadline++
			case vTransport:
				s.transport++
			}
			if v := tl.verdict[i]; v != vOK && v != vError {
				lat = math.MaxUint32 // a refused request misses any limit
			}
			s.lat = append(s.lat, lat)
			s.lag = append(s.lag, tl.send[i]-tl.due[i])
			s.sendNS = append(s.sendNS, tl.sendNS[i])
			if tl.verdict[i] != vTransport {
				ackFromSend += tl.ack[i] - tl.send[i]
				acked++
			}
			if tl.ack[i] > lastSend {
				s.backlog++
			}
			if slat != nil {
				k, _ := slices.BinarySearch(r.ends, tl.due[i]+1)
				k = min(k, len(r.ends)-1)
				slat[k] = append(slat[k], uint32(min(lat, math.MaxUint32)))
				slag[k] = append(slag[k], uint32(max(0, min(tl.send[i]-tl.due[i], math.MaxUint32))))
				sreqs[k]++
			}
		}
	}
	slices.Sort(s.lat)
	slices.Sort(s.lag)
	slices.Sort(s.sendNS)
	s.ackFromSendNS = ratio(ackFromSend, acked)
	if slat != nil {
		var lastAck int64
		for ti, tl := range e.loads {
			for i := r.ranges[ti][0]; i < r.ranges[ti][1]; i++ {
				lastAck = max(lastAck, tl.ack[i])
			}
		}
		// The figures come from the quarter of the slices in which the
		// generator was most punctual. Latency is timed from the due
		// time, so in a slice where a busy host woke the sender late
		// it measures the host's scheduling of the generator, by
		// several milliseconds, rather than the program. On a shared
		// two-CPU VM that happens in a third or more of the slices.
		order := make([]int, len(r.ends))
		for k := range r.ends {
			slices.Sort(slag[k])
			s.sliceLagUS = append(s.sliceLagUS, quantile(slag[k], 0.99)/1e3)
			order[k] = k
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(s.sliceLagUS[a], s.sliceLagUS[b]) })
		keep := order[:max(1, len(order)/4)]
		slices.Sort(keep)
		s.phase = &phaseStats{}
		for _, k := range keep {
			prev := r.start
			if k > 0 {
				prev = r.ends[k-1]
			}
			s.phase.addSlice(slat[k], sreqs[k], r.ends[k]-prev, r.cpu[k+1]-r.cpu[k])
		}
		// Open-loop throughput is what was served, not what was offered:
		// the OK acks over the time from the first due request to the
		// last ack. Below capacity it tracks the offered rate.
		s.phase.throughput = []float64{float64(s.ok) / (float64(lastAck-r.start) / 1e9)}
	}
	return s
}

// failFrac is the share of requests refused (overload, deadline,
// transport). A scheduler rejection is not counted: on these
// underallocated inputs it only follows an earlier refusal of the same
// job's insert, and checkServed verifies every verdict against the
// schedule.
func (s *openStats) failFrac() float64 { return ratio(s.overload+s.deadline+s.transport, s.n) }

// score is how far a ramp step is from meeting every condition of a
// sustainable rate: p99 within the limit, refusals within failBound,
// generator lag within its bound and no backlog beyond one limit's
// worth of requests. A step passes when its score is at most 1.
func (s *openStats) score(rate float64, tenants int) float64 {
	sc := quantile(s.lat, 0.99) / float64(p99Limit)
	sc = max(sc, s.failFrac()/failBound)
	sc = max(sc, quantile(s.lag, 0.99)/float64(lagBound))
	sc = max(sc, float64(s.backlog)/(rate*float64(tenants)*p99Limit.Seconds()))
	return sc
}

// rampStep is one probe of the ramp, as the detail line reports it.
type rampStep struct {
	Rate   float64 `json:"rate_rps"` // total over the tenants
	Score  float64 `json:"score"`
	P99US  float64 `json:"p99_us"`
	LagUS  float64 `json:"lag_p99_us"`
	Fail   float64 `json:"fail_frac"`
	Behind int64   `json:"backlog"`
}

// probe offers rate (per tenant) for one ramp step. A step that fails
// is run once more, so a short stall on a shared machine does not end
// the ramp early.
func (e *servedEnv) probe(rate float64, steps *[]rampStep, out *report) (rampStep, error) {
	var s rampStep
	for try := 0; try < 2; try++ {
		r, err := e.runOpen(rate, rampStepSeconds, 0)
		if err != nil {
			return s, err
		}
		st := e.analyze(r)
		out.detail["ramp_attempted"] = out.detail["ramp_attempted"].(int64) + st.n
		out.detail["ramp_failed"] = out.detail["ramp_failed"].(int64) + st.n - st.ok
		s = rampStep{rate * servedTenants, st.score(rate, servedTenants),
			quantile(st.lat, 0.99) / 1e3, quantile(st.lag, 0.99) / 1e3, st.failFrac(), st.backlog}
		*steps = append(*steps, s)
		// Let the step's queues drain before the next.
		time.Sleep(100 * time.Millisecond)
		if s.Score <= 1 {
			break
		}
	}
	return s, nil
}

// rampMaxRate runs the fixed offered-rate ramp until a step fails,
// narrows the bracket between the last step that passed and the one
// that failed by bisection, and returns the highest total rate that
// meets the limits, interpolated in log space across the final
// bracket so the figure is continuous rather than one of the probed
// rates.
func (e *servedEnv) rampMaxRate(seconds float64, out *report) (float64, error) {
	var steps []rampStep
	out.detail["ramp_attempted"], out.detail["ramp_failed"] = int64(0), int64(0)
	defer func() { out.detail["ramp_steps"] = steps }()
	var pass, fail rampStep
	rate := e.plan.rampFrom
	for k := 0; k < rampSteps(seconds); k++ {
		s, err := e.probe(rate, &steps, out)
		if err != nil {
			return 0, err
		}
		if s.Score > 1 {
			fail = s
			break
		}
		pass = s
		rate *= rampGrowth
	}
	switch {
	case fail.Rate == 0:
		return pass.Rate, nil // never failed: a lower bound
	case pass.Rate == 0:
		return fail.Rate / fail.Score, nil // the first step failed
	}
	for k := 0; k < rampBisections; k++ {
		mid := math.Sqrt(pass.Rate * fail.Rate)
		s, err := e.probe(mid/servedTenants, &steps, out)
		if err != nil {
			return 0, err
		}
		if s.Score > 1 {
			fail = s
		} else {
			pass = s
		}
	}
	f := -math.Log(pass.Score) / (math.Log(fail.Score) - math.Log(pass.Score))
	return pass.Rate * math.Pow(fail.Rate/pass.Rate, f), nil
}

// expected replays the acknowledged verdicts: the jobs that must be
// active once every ack is in. A tenant's requests execute in send
// order on its one connection, so stream order is execution order.
func (tl *tenantLoad) expected() map[string]bool {
	active := make(map[string]bool)
	for i := 0; i < tl.next; i++ {
		if tl.verdict[i] != vOK {
			continue
		}
		if r := tl.reqs.at(i); r.Kind == jobs.Insert {
			active[r.Name] = true
		} else {
			delete(active, r.Name)
		}
	}
	return active
}

// checkServed records the served correctness checks: every request
// was acked exactly once, each primary tenant's schedule is feasible
// and holds exactly the jobs the acks imply, and the shards executed
// every OK-acked request and nothing beyond the requests acked.
func (e *servedEnv) checkServed(out *report) {
	for _, tl := range e.loads {
		var pending, transport, ok, maybe int64
		for i := 0; i < tl.next; i++ {
			switch tl.verdict[i] {
			case vPending:
				pending++
			case vTransport:
				transport++
			case vOK:
				ok++
			case vError, vDeadline:
				// Rejected before or inside a shard: an unknown name
				// is refused at routing, a deadline may expire in a
				// shard's queue.
				maybe++
			}
		}
		if pending > 0 || transport > 0 {
			out.fail("%s: %d requests never acked, %d lost to transport errors", tl.name, pending, transport)
		}
		s := e.scheds[tl.name]
		snap := s.Snapshot()
		if err := realloc.Verify(s); err != nil {
			out.fail("%s: primary schedule infeasible: %v", tl.name, err)
		}
		want := tl.expected()
		if missing, extra := diffJobs(want, snap.Jobs); missing+extra > 0 {
			out.fail("%s: primary holds %d jobs, acks imply %d (%d missing, %d unexpected)", tl.name, len(snap.Jobs), len(want), missing, extra)
		}
		tot := s.Report().Total()
		if ran := int64(tot.Requests - tot.Rerouted); ran < ok || ran > ok+maybe {
			out.fail("%s: shards executed %d requests for %d OK acks and %d other rejections", tl.name, ran, ok, maybe)
		}
	}
}

func diffJobs(want map[string]bool, have []jobs.Job) (missing, extra int) {
	seen := make(map[string]bool, len(have))
	for _, j := range have {
		seen[j.Name] = true
		if !want[j.Name] {
			extra++
		}
	}
	for n := range want {
		if !seen[n] {
			missing++
		}
	}
	return missing, extra
}

// promote promotes the follower once it has replayed everything the
// primary shipped, and checks that every acknowledged insert not later
// deleted is scheduled on it. It returns the promotion time in
// milliseconds.
func (e *servedEnv) promote(out *report) float64 {
	// PromoteNow drops the replication connection at once, so the
	// follower first reads what was shipped before the last ack: the
	// primary writes each group to the connection before acking it,
	// but the follower may not have replayed the last groups yet.
	settled := now()
	for last := -1; now()-settled < int64(100*time.Millisecond); time.Sleep(5 * time.Millisecond) {
		if n := e.fol.Stats().Requests; n != last {
			last, settled = n, now()
		}
	}
	e.fol.PromoteNow()
	select {
	case <-e.fol.Promoted():
	case <-time.After(10 * time.Second):
		out.fail("follower did not promote within 10s")
		return 0
	}
	for _, tl := range e.loads {
		s := e.fol.Adopt(tl.name)
		if s == nil {
			out.fail("%s: no promoted scheduler on the follower", tl.name)
			continue
		}
		want := tl.expected()
		if missing, _ := diffJobs(want, s.Snapshot().Jobs); missing > 0 {
			out.fail("%s: %d acknowledged jobs missing on the promoted follower", tl.name, missing)
		}
		if err := realloc.Verify(s); err != nil {
			out.fail("%s: promoted schedule infeasible: %v", tl.name, err)
		}
		s.Close()
	}
	return e.fol.Stats().PromoteMS
}

// setCosts reports the tenants' mean reallocations and migrations per
// executed request so far.
func (e *servedEnv) setCosts(out *report) {
	var c metrics.Cost
	var reqs int64
	for _, s := range e.scheds {
		t := s.Report().Total()
		c.Add(t.Cost)
		reqs += int64(t.Requests - t.Rerouted)
	}
	out.set("reallocs_per_req", ratio(int64(c.Reallocations), reqs))
	out.set("migrations_per_req", ratio(int64(c.Migrations), reqs))
}

// setup builds a served environment setupReps times, timing each, and
// returns the last with the harness heap measured before it started.
func setupServed(cfg runConfig, plan servedPlan, ramp bool, out *report) (*servedEnv, uint64, error) {
	var sw stopwatch
	var env *servedEnv
	var base uint64
	for i := 0; i < setupReps; i++ {
		if env != nil {
			env.close()
			env = nil
		}
		var loads []*tenantLoad
		err := sw.time(func() error {
			inputs, err := servedInputs(cfg.seed, servedRequests(plan, cfg.seconds, ramp))
			loads = newLoads(inputs)
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		base = harnessHeap()
		err = sw.time(func() (err error) {
			env, err = newServedEnv(filepath.Join(cfg.dir, fmt.Sprintf("served-%d", i)), plan, loads, false)
			if err != nil {
				return err
			}
			_, err = env.runOpen(plan.rate, servedWarmSeconds, 0)
			return err
		})
		if err != nil {
			if env != nil {
				env.close()
			}
			return nil, 0, err
		}
	}
	out.set("setup_s", median(pairSums(sw.runs)))
	return env, base, nil
}

func measureServed(cfg runConfig, plan servedPlan, out *report) error {
	env, base, err := setupServed(cfg, plan, true, out)
	if err != nil {
		return err
	}
	defer env.close()

	gcQuiet()
	peak := startHeapPeak()
	r, err := env.runOpen(plan.rate, cfg.seconds/2, servedSlices(plan.rate, cfg.seconds/2))
	pk := peak.finish()
	if err != nil {
		out.fail("fixed-rate phase: %v", err)
		return nil
	}
	st := env.analyze(r)
	st.phase.set(out)
	out.detail["slice_gen_lag_us_p99"] = st.sliceLagUS
	out.detail["pooled_latency_p99_us"] = quantile(st.lat, 0.99) / 1e3
	out.set("heap_peak_mb", float64(pk-min(base, pk))/(1<<20))
	out.set("ok_frac", ratio(st.ok, st.n))
	out.attempted += st.n + int64(plan.rate*servedWarmSeconds)*servedTenants
	out.failed += st.n - st.ok
	out.detail["gen_lag_us_p99"] = quantile(st.lag, 0.99) / 1e3
	out.detail["valid"] = true
	if lag := quantile(st.lag, 0.99); lag > float64(lagBound) {
		// The program's outputs may still be correct, so this marks the
		// run's figures invalid rather than failing it.
		out.detail["valid"] = false
		fmt.Fprintf(os.Stderr, "perfbench: INVALID RUN: generator lag p99 %.0f us exceeds %v; the latencies measure the generator\n", lag/1e3, lagBound)
	}

	// Costs cover the warm-up and the fixed-rate phase: the ramp's
	// refusals would change the request mix from run to run.
	env.setCosts(out)
	maxRate, err := env.rampMaxRate(cfg.seconds, out)
	if err != nil {
		out.fail("ramp: %v", err)
		return nil
	}
	out.set("max_rate_rps", maxRate)
	env.checkServed(out)
	if plan.replicated {
		out.detail["promote_ms"] = env.promote(out)
	}
	return nil
}

func measureServedSteady(cfg runConfig, out *report) error {
	return measureServed(cfg, steadyPlan, out)
}

func measureServedReplicated(cfg runConfig, out *report) error {
	return measureServed(cfg, replicatedPlan, out)
}

func traceServed(cfg runConfig, plan servedPlan, out *report) error {
	half := cfg.seconds / 2
	inputs, err := servedInputs(cfg.seed, servedRequests(plan, cfg.seconds, false))
	if err != nil {
		return err
	}

	// Untraced phase: the reference for the tracing overhead and the
	// runtime's own counters.
	plain, err := newServedEnv(filepath.Join(cfg.dir, "plain"), plan, newLoads(inputs), false)
	if err != nil {
		return err
	}
	if _, err := plain.runOpen(plan.rate, servedWarmSeconds, 0); err != nil {
		plain.close()
		return err
	}
	gcQuiet()
	rt0 := readRuntime()
	pr, err := plain.runOpen(plan.rate, half, servedSlices(plan.rate, half))
	rt1 := readRuntime()
	if err != nil {
		plain.close()
		out.fail("untraced phase: %v", err)
		return nil
	}
	ps := plain.analyze(pr)
	setRuntime(out, rt0, rt1, ps.n)
	plain.checkServed(out)
	plain.close()

	env, err := newServedEnv(filepath.Join(cfg.dir, "traced"), plan, newLoads(inputs), true)
	if err != nil {
		return err
	}
	if _, err := env.runOpen(plan.rate, servedWarmSeconds, 0); err != nil {
		env.close()
		return err
	}
	var before []metrics.ShardReport
	for _, tl := range env.loads {
		// Snapshot runs a control pass on every shard worker, so the
		// warm-up's span writes happen before the tracer reads below.
		env.scheds[tl.name].Snapshot()
		before = append(before, env.scheds[tl.name].Report())
	}
	stBefore := sumTracers(env.tracers)
	for _, t := range env.taps {
		t.reset()
	}
	gcQuiet()

	var lag []int64
	stopLag := make(chan struct{})
	lagDone := make(chan struct{})
	go func() {
		defer close(lagDone)
		if env.fol == nil {
			return
		}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopLag:
				return
			case <-tick.C:
				d := env.okAcks.Load() - int64(env.fol.Stats().Requests)
				lag = append(lag, max(0, d))
			}
		}
	}()
	tr, err := env.runOpen(plan.rate, half, servedSlices(plan.rate, half))
	close(stopLag)
	<-lagDone
	if err != nil {
		env.close()
		out.fail("traced phase: %v", err)
		return nil
	}
	ts := env.analyze(tr)
	env.checkServed(out)
	var after []metrics.ShardReport
	for _, tl := range env.loads {
		after = append(after, env.scheds[tl.name].Report())
	}
	if plan.replicated {
		out.set("repl.promote_ms", env.promote(out))
		slices.Sort(lag)
		out.set("repl.lag_reqs_p99", quantile(lag, 0.99))
	}
	env.close() // joins the shard workers and flushes the WALs
	st := sumTracers(env.tracers).minus(stBefore)
	wt := sumTaps(env.taps)

	out.attempted += ps.n + ts.n
	out.failed += ps.n - ps.ok + ts.n - ts.ok
	setStackLayers(out, st, st.layers[layerAlign].reqs)
	setShardLayers(out, before, after, st)
	wt.set(out)
	out.set("server.tick_reqs_mean", ratio(wt.reqs, wt.records))
	out.set("server.singleton_frac", ratio(wt.singletons, wt.records))
	out.set("server.overload_frac", ratio(ts.overload, ts.n))
	out.set("server.deadline_frac", ratio(ts.deadline, ts.n))
	out.set("client.send_us_p50", quantile(ts.sendNS, 0.5)/1e3)
	out.set("client.send_us_p99", quantile(ts.sendNS, 0.99)/1e3)
	var admit hdr.Snapshot
	for _, r := range after {
		admit.Merge(r.Total().Latency)
	}
	out.set("served.hop_us_mean", (ts.ackFromSendNS-admit.Mean()-wt.meanWaitNS())/1e3)
	out.set("gen.lag_us_p50", quantile(ts.lag, 0.5)/1e3)
	out.set("gen.lag_us_p99", quantile(ts.lag, 0.99)/1e3)
	out.set("trace.overhead_frac", ratio(ts.phase.cpu, ts.phase.reqs)/ratio(ps.phase.cpu, ps.phase.reqs)-1)
	setZero(out, "paper.", "trace.unattributed", "repl.")
	return nil
}

func traceServedSteady(cfg runConfig, out *report) error {
	return traceServed(cfg, steadyPlan, out)
}

func traceServedReplicated(cfg runConfig, out *report) error {
	return traceServed(cfg, replicatedPlan, out)
}
