// Allocation gates: pin the hot paths the interned-ID refactor made
// allocation-free, so a regression that reintroduces per-request heap
// traffic fails CI instead of quietly eroding throughput.
//
// "Steady state" means the scheduler has reached its high-water marks:
// interned IDs recycle through the free list, jobState structs recycle
// through the spare pool, and the internal maps have stopped growing.
// The gates churn one job against a warmed-up background population and
// require ZERO allocations per insert+delete pair.
//
// Excluded under -race: the race runtime inserts its own allocations.

//go:build !race

package realloc

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/trim"
)

// gateZero runs fn under testing.AllocsPerRun and fails on any
// allocation.
func gateZero(t *testing.T, what string, fn func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(200, fn); avg > 0 {
		t.Errorf("%s allocates %.2f allocs/op in steady state, want 0", what, avg)
	}
}

// TestAllocGateCoreInsertDelete pins the reservation core's
// insert+delete hit path at zero steady-state allocations, for both the
// base level (span <= 32, pecking-order displacement) and a
// reservation level (span > 32, RESERVE/PLACE machinery).
func TestAllocGateCoreInsertDelete(t *testing.T) {
	for _, span := range []int64{16, 64, 1024} {
		t.Run(fmt.Sprintf("span=%d", span), func(t *testing.T) {
			s := core.New(core.WithMaxIntervals(1 << 24))
			// Background population in disjoint windows, plus warmup churn
			// so every map, the ID table, and the jobState pool reach
			// their high-water marks.
			for i := int64(0); i < 32; i++ {
				j := jobs.Job{Name: fmt.Sprintf("bg%d", i),
					Window: jobs.Window{Start: i * span, End: (i + 1) * span}}
				if _, err := s.Insert(j); err != nil {
					t.Fatal(err)
				}
			}
			churn := jobs.Job{Name: "churn", Window: jobs.Window{Start: 0, End: span}}
			for i := 0; i < 64; i++ {
				if _, err := s.Insert(churn); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Delete(churn.Name); err != nil {
					t.Fatal(err)
				}
			}
			gateZero(t, "core insert+delete", func() {
				if _, err := s.Insert(churn); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Delete(churn.Name); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestAllocGateTrimIncrementalNonRebuild pins the deamortized trimming
// wrapper's non-transition path (no n* crossing, no parity migration in
// flight) at zero steady-state allocations per insert+delete pair.
func TestAllocGateTrimIncrementalNonRebuild(t *testing.T) {
	s := trim.NewIncremental(8, func() Scheduler {
		return core.New(core.WithMaxIntervals(1 << 24))
	})
	// Population 16 against n* = 32: the churn job oscillates n between
	// 16 and 17, far from both the doubling threshold (32) and the
	// halving threshold (8), so no transition starts.
	for i := 0; i < 24; i++ {
		j := jobs.Job{Name: fmt.Sprintf("bg%d", i),
			Window: jobs.Window{Start: int64(i) * 64, End: int64(i+1) * 64}}
		if _, err := s.Insert(j); err != nil {
			t.Fatal(err)
		}
	}
	for i := 23; i >= 16; i-- {
		if _, err := s.Delete(fmt.Sprintf("bg%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	churn := jobs.Job{Name: "churn", Window: jobs.Window{Start: 0, End: 64}}
	// Warmup churn: drain any in-flight transition and reach the queue's
	// compaction steady state.
	for i := 0; i < 256; i++ {
		if _, err := s.Insert(churn); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Delete(churn.Name); err != nil {
			t.Fatal(err)
		}
	}
	if s.InTransition() {
		t.Fatal("setup error: still in a parity transition after warmup")
	}
	if got := s.NStar(); got != 32 {
		t.Fatalf("setup error: n* = %d, want 32", got)
	}
	gateZero(t, "trim.Incremental insert+delete", func() {
		if _, err := s.Insert(churn); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Delete(churn.Name); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocGateShardedApply pins the sharded dispatch hop: a synchronous
// insert+delete Apply pair through the shard queue costs at most 4
// allocations in steady state (the two requests' completion closures),
// so a queue change cannot add a per-request allocation such as a timer
// on the fast path.
func TestAllocGateShardedApply(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := NewSharded(WithMachines(8), WithShards(shards))
			defer s.Close()
			for i := int64(0); i < 32; i++ {
				if _, err := s.Apply(jobs.InsertReq(fmt.Sprintf("bg%d", i), i*64, (i+1)*64)); err != nil {
					t.Fatal(err)
				}
			}
			pair := func() {
				if _, err := s.Apply(jobs.InsertReq("churn", 0, 64)); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Apply(jobs.DeleteReq("churn")); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 64; i++ {
				pair()
			}
			if avg := testing.AllocsPerRun(200, pair); avg > 4 {
				t.Errorf("sharded Apply insert+delete allocates %.2f allocs/op in steady state, want <= 4", avg)
			}
		})
	}
}
