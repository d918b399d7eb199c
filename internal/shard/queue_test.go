// Full-queue behaviour: a send into a full shard queue parks until the
// worker frees space, its deadline passes, or Close begins. Each test
// stalls the worker with stallWorker and fills a small Config.Buffer.
package shard

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// waitQueueLen polls until shard i's queue holds exactly n tasks (the
// worker picks up blockWorker's task asynchronously).
func waitQueueLen(t *testing.T, s *Scheduler, i, n int) {
	t.Helper()
	for end := time.Now().Add(2 * time.Second); len(s.workers[i].queue) != n; {
		if time.Now().After(end) {
			t.Fatalf("shard %d queue holds %d tasks, want %d", i, len(s.workers[i].queue), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// stallWorker stalls shard i's worker with blockWorker until the
// returned release runs. release is idempotent and also runs at test
// cleanup, ahead of cleanups registered earlier (such as s.Close), so a
// failing test cannot leave Close waiting on a stalled worker.
func stallWorker(t *testing.T, s *Scheduler, i int) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	wg := blockWorker(t, s, i, gate)
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(gate)
			wg.Wait()
		})
	}
	t.Cleanup(release)
	waitQueueLen(t, s, i, 0)
	return release
}

// settle waits for a result from ch, failing the test after 2s.
func settle(t *testing.T, ch <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(2 * time.Second):
		t.Fatalf("%s never returned", what)
		return nil
	}
}

// servedLog records the order in which the worker finishes requests
// sent through dispatch, failing the test on any request error.
type servedLog struct {
	t      *testing.T
	mu     sync.Mutex
	order  []string
	served sync.WaitGroup
}

// finish returns a dispatch callback that logs name once served.
func (l *servedLog) finish(name string) func(metrics.Cost, error) {
	l.served.Add(1)
	return func(_ metrics.Cost, err error) {
		if err != nil {
			l.t.Errorf("%s: %v", name, err)
		}
		l.mu.Lock()
		l.order = append(l.order, name)
		l.mu.Unlock()
		l.served.Done()
	}
}

// wantOrder waits for every logged request and checks the served order.
func (l *servedLog) wantOrder(want ...string) {
	l.t.Helper()
	done := make(chan struct{})
	go func() {
		l.served.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		l.t.Fatal("a sent request was never served")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.order) != len(want) {
		l.t.Fatalf("served order %v, want %v", l.order, want)
	}
	for i := range want {
		if l.order[i] != want[i] {
			l.t.Fatalf("served order %v, want %v", l.order, want)
		}
	}
}

// sendAll dispatches each name as an insert into a queue with room.
func sendAll(t *testing.T, s *Scheduler, l *servedLog, names ...string) {
	t.Helper()
	for _, name := range names {
		if err := s.dispatch(jobs.InsertReq(name, 0, 64), l.finish(name)); err != nil {
			t.Fatalf("send %s into a queue with room: %v", name, err)
		}
	}
}

// wantParked fails the test if ch settles within 20ms: the send that
// reports on ch must still be parked on a full queue.
func wantParked(t *testing.T, ch <-chan error) {
	t.Helper()
	select {
	case err := <-ch:
		t.Fatalf("send into a full queue returned %v, want it to park", err)
	case <-time.After(20 * time.Millisecond):
	}
}

// The TestRing* tests below keep the names they had when the per-shard
// queue was a hand-rolled ring buffer; they pin the same properties on
// the buffered channel that replaced it.

// TestRingFIFOSingleProducer: one producer's requests are served in the
// order it sent them.
func TestRingFIFOSingleProducer(t *testing.T) {
	s := New(Config{Shards: 1, Machines: 2, Factory: stackFactory, Buffer: 8})
	t.Cleanup(s.Close)
	release := stallWorker(t, s, 0)

	l := &servedLog{t: t}
	want := []string{"a", "b", "c", "d", "e"}
	sendAll(t, s, l, want...)
	waitQueueLen(t, s, 0, len(want))
	release()
	l.wantOrder(want...)
	waitQueueLen(t, s, 0, 0)
	if n := s.Active(); n != len(want) {
		t.Fatalf("Active() = %d, want %d", n, len(want))
	}
}

// TestRingBackpressure: a send into a full queue parks until the worker
// frees space, then completes, and is served after the requests queued
// before it.
func TestRingBackpressure(t *testing.T) {
	s := New(Config{Shards: 1, Machines: 2, Factory: stackFactory, Buffer: 2})
	t.Cleanup(s.Close)
	release := stallWorker(t, s, 0)

	l := &servedLog{t: t}
	sendAll(t, s, l, "1", "2")
	parked := make(chan error, 1)
	finish3 := l.finish("3")
	go func() { parked <- s.dispatch(jobs.InsertReq("3", 0, 64), finish3) }()
	wantParked(t, parked)

	release()
	if err := settle(t, parked, "parked send"); err != nil {
		t.Fatalf("parked send after the worker freed space = %v, want nil", err)
	}
	l.wantOrder("1", "2", "3")
	if n := s.Active(); n != 3 {
		t.Fatalf("Active() = %d, want 3", n)
	}
}

// TestRingDeadlineSurvivesSpaceRace: a parked send with a distant
// deadline that wakes on freed space (not its timer) still completes
// and is served.
func TestRingDeadlineSurvivesSpaceRace(t *testing.T) {
	s := New(Config{Shards: 1, Machines: 2, Factory: stackFactory, Buffer: 2})
	t.Cleanup(s.Close)
	release := stallWorker(t, s, 0)

	l := &servedLog{t: t}
	sendAll(t, s, l, "1", "2")
	parked := make(chan error, 1)
	finish3 := l.finish("3")
	deadline := monotonicNS() + int64(5*time.Second)
	go func() { parked <- s.dispatchTimed(jobs.InsertReq("3", 0, 64), deadline, finish3) }()
	wantParked(t, parked)

	release()
	if err := settle(t, parked, "parked send with a deadline"); err != nil {
		t.Fatalf("parked send woken by freed space = %v, want nil", err)
	}
	l.wantOrder("1", "2", "3")
}

// TestRingCloseDrains: Close serves every request queued before it
// began, in send order, before it stops the worker, and a send after
// Close began fails with ErrClosed.
func TestRingCloseDrains(t *testing.T) {
	s := New(Config{Shards: 1, Machines: 2, Factory: stackFactory, Buffer: 8})
	release := stallWorker(t, s, 0)

	l := &servedLog{t: t}
	sendAll(t, s, l, "a", "b", "c")
	closed := make(chan error, 1)
	go func() {
		s.Close()
		closed <- nil
	}()
	for end := time.Now().Add(2 * time.Second); !s.isClosed(); {
		if time.Now().After(end) {
			t.Fatal("Close never marked the scheduler closed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.dispatch(jobs.InsertReq("late", 0, 64), func(metrics.Cost, error) {
		t.Error("a send after Close reached the worker")
	}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after Close began = %v, want ErrClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while its worker still had queued work")
	default:
	}

	release()
	settle(t, closed, "Close")
	l.wantOrder("a", "b", "c")
	if n := s.Active(); n != 3 {
		t.Fatalf("Active() = %d after Close, want 3 (the queued inserts)", n)
	}
}

// TestApplyDeadlineParkedOnFullQueue: ApplyDeadline parked on a full
// queue fails with ErrDeadlineExceeded at its deadline, and at once when
// the deadline has already passed. The expired requests execute nothing,
// keep no reservation and write no WAL record.
func TestApplyDeadlineParkedOnFullQueue(t *testing.T) {
	dir := t.TempDir()
	log, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Shards: 1, Machines: 2, Factory: stackFactory, Buffer: 1, WAL: log})
	if _, err := s.Apply(jobs.InsertReq("kept", 0, 64)); err != nil {
		t.Fatalf("insert kept: %v", err)
	}
	release := stallWorker(t, s, 0)
	if err := s.Submit(jobs.InsertReq("filler", 0, 64)); err != nil {
		t.Fatalf("submit filler: %v", err)
	}

	const timeout = 30 * time.Millisecond
	res := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := s.ApplyDeadline(jobs.InsertReq("late", 0, 64), timeout)
		res <- err
	}()
	if err := settle(t, res, "ApplyDeadline parked on a full queue"); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("ApplyDeadline parked on a full queue = %v, want ErrDeadlineExceeded", err)
	}
	if waited := time.Since(start); waited < timeout {
		t.Fatalf("parked ApplyDeadline gave up after %v, before its %v deadline", waited, timeout)
	}
	go func() {
		res <- s.dispatchTimed(jobs.InsertReq("past", 0, 64), monotonicNS()-1, func(metrics.Cost, error) {
			t.Error("an already-expired request reached the worker")
		})
	}()
	if err := settle(t, res, "send with an already-passed deadline"); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("send with an already-passed deadline = %v, want ErrDeadlineExceeded", err)
	}
	s.mu.RLock()
	for _, name := range []string{"late", "past"} {
		if _, _, ok := s.trackedID(name); ok {
			t.Errorf("expired %q still holds a routing reservation", name)
		}
	}
	s.mu.RUnlock()

	release()
	if err := s.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := s.Apply(jobs.InsertReq("late", 0, 64)); err != nil {
		t.Fatalf("re-insert after the deadline rejection: %v", err)
	}
	if got := s.Report().Total(); got.Requests != 3 || got.Failures != 0 {
		t.Fatalf("worker served %d requests with %d failures, want 3 and 0: an expired request executed",
			got.Requests, got.Failures)
	}
	s.Close()

	got, err := wal.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range got.Records {
		if r.Kind == wal.KindRequest {
			names = append(names, r.Req.Name)
		}
	}
	if len(names) != 3 || names[0] != "kept" || names[1] != "filler" || names[2] != "late" {
		t.Fatalf("WAL holds %v, want [kept filler late]: an expired request was logged", names)
	}
}

// TestRingCloseWakesBlockedProducer: a sender parked on a full queue
// fails with ErrClosed once Close begins instead of hanging, while Close
// still serves the task that was already queued before it stops the
// worker.
func TestRingCloseWakesBlockedProducer(t *testing.T) {
	s := New(Config{Shards: 1, Machines: 2, Factory: stackFactory, Buffer: 1})
	release := stallWorker(t, s, 0)
	queued := make(chan error, 1)
	if err := s.dispatch(jobs.InsertReq("queued", 0, 64), func(_ metrics.Cost, err error) { queued <- err }); err != nil {
		t.Fatalf("send into a queue with room: %v", err)
	}

	parked := make(chan error, 1)
	go func() {
		_, err := s.Apply(jobs.InsertReq("parked", 0, 64))
		parked <- err
	}()
	wantParked(t, parked)

	closed := make(chan error, 1)
	go func() {
		s.Close()
		closed <- nil
	}()
	if err := settle(t, parked, "sender parked across Close"); !errors.Is(err, ErrClosed) {
		t.Fatalf("sender parked across Close = %v, want ErrClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while its worker still had queued work")
	default:
	}

	release()
	settle(t, closed, "Close")
	if err := settle(t, queued, "queued request"); err != nil {
		t.Fatalf("request queued before Close = %v, want it served", err)
	}
	if n := s.Active(); n != 1 {
		t.Fatalf("Active() = %d after Close, want 1 (the queued insert)", n)
	}
	if _, err := s.Apply(jobs.InsertReq("after", 0, 64)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Apply after Close = %v, want ErrClosed", err)
	}
}
