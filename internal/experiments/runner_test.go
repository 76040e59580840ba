package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/expcache"
	"repro/internal/origin"
	schedpkg "repro/internal/sched"
	"repro/internal/services"
)

// renderResult flattens a result's tables and plots to one comparable
// string (timing fields are excluded — wall clock is never deterministic).
func renderResult(r Result) string {
	var b strings.Builder
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	for _, p := range r.Plots {
		b.WriteString(p)
		b.WriteString("\n")
	}
	return b.String()
}

// TestRunAllDeterminism is the engine's core guarantee: a cold serial
// run, a cold heavily parallel run, and a repeat in the same process
// all produce byte-identical tables and plots for every experiment ID.
// Fixed seeds make each experiment deterministic in isolation;
// index-ordered collection makes the schedule irrelevant; and the
// origins the repeat shares with the run before it must carry no state
// from one session into another.
func TestRunAllDeterminism(t *testing.T) {
	// Force real fan-out even on small CI machines: RunAll workers and
	// the intra-experiment sweep() both draw from the scheduler.
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	prevSched := sched
	sched = schedpkg.New(8)
	defer func() { sched = prevSched }()

	expcache.Default.Reset()
	serial, err := RunAll(context.Background(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	expcache.Default.Reset()
	var progressed atomic.Int32
	parallel, err := RunAll(context.Background(), Options{
		Workers:    8,
		OnProgress: func(Result) { progressed.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Third pass without a Reset: every origin is reused from the
	// parallel run, output must not move a byte.
	repeat, err := RunAll(context.Background(), Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) || len(serial) != len(repeat) || len(serial) != len(All()) {
		t.Fatalf("result counts differ: %d serial, %d parallel, %d repeat, %d registered",
			len(serial), len(parallel), len(repeat), len(All()))
	}
	if int(progressed.Load()) != len(parallel) {
		t.Errorf("OnProgress fired %d times for %d experiments", progressed.Load(), len(parallel))
	}
	for i := range serial {
		if serial[i].ID != parallel[i].ID {
			t.Fatalf("order diverged at %d: %s vs %s", i, serial[i].ID, parallel[i].ID)
		}
		s, p, r := renderResult(serial[i]), renderResult(parallel[i]), renderResult(repeat[i])
		if s != p {
			t.Errorf("%s: output differs between Workers=1 and Workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s",
				serial[i].ID, s, p)
		}
		if s != r {
			t.Errorf("%s: output differs between a cold run and a repeat over its origins:\n--- cold ---\n%s\n--- repeat ---\n%s",
				serial[i].ID, s, r)
		}
		if s == "" {
			t.Errorf("%s: empty output", serial[i].ID)
		}
	}
}

// TestColdReportAllocBudget bounds what one cold report allocates. The
// report renders 23 KB; it used to allocate 340–400 MB on the way
// (result logs sized for whole presentations, a span list sorted per
// 1 Hz sample in the buffer inference), which is what its peak RSS and
// GC time were made of. It now allocates ≈180 MB; the budget sits
// between the two, so a regression of that kind fails here instead of
// waiting for a benchmark run.
//
// It also bounds what the report keeps: once it is rendered, its
// session results are garbage, so the live heap after a GC must be back
// within retainBudget of where it started. A session memo pinned every
// *player.Result of the report: 75 MB live.
func TestColdReportAllocBudget(t *testing.T) {
	const budget, retainBudget = 260e6, 20e6
	expcache.Default.Reset()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before, liveBefore := ms.TotalAlloc, ms.HeapAlloc
	if _, err := RunAll(context.Background(), Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	got := float64(ms.TotalAlloc - before)
	kept := float64(ms.HeapAlloc) - float64(liveBefore)
	t.Logf("cold RunAll allocated %.0f MB and kept %.1f MB live", got/1e6, kept/1e6)
	if got > budget {
		t.Errorf("cold RunAll allocated %.0f MB, budget %.0f MB", got/1e6, budget/1e6)
	}
	if kept > retainBudget {
		t.Errorf("cold RunAll kept %.1f MB live after a GC, budget %.0f MB", kept/1e6, retainBudget/1e6)
	}
}

func TestRunAllSubset(t *testing.T) {
	ids := []string{"fig4", "fig3"} // deliberately not paper order
	results, err := RunAll(context.Background(), Options{Workers: 4, IDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for i, id := range ids {
		if results[i].ID != id || results[i].Index != i {
			t.Errorf("result %d: got %s (index %d), want %s", i, results[i].ID, results[i].Index, id)
		}
	}
	if _, err := RunAll(context.Background(), Options{IDs: []string{"fig999"}}); err == nil {
		t.Error("unknown id did not error")
	}
}

func TestRunAllCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := RunAll(ctx, Options{Workers: 4, IDs: []string{"fig3", "fig4"}})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	for _, r := range results {
		if r.Err == nil && r.Tables == nil {
			t.Errorf("%s: neither ran nor marked with the context error", r.ID)
		}
	}
}

// TestSweepBoundedByScheduler is the oversubscription guard the
// scheduler exists for: a sweep whose items each run a nested sweep must
// never have more goroutines executing item work than the scheduler
// capacity plus the one slotless entry caller — not workers², as the old
// two-level pools allowed.
func TestSweepBoundedByScheduler(t *testing.T) {
	const capacity = 4
	prevSched := sched
	sched = schedpkg.New(capacity)
	defer func() { sched = prevSched }()

	var running, peak atomic.Int64
	inner := make([]int, 8)
	outer := make([]int, 16)
	_, err := sweep(context.Background(), outer, func(int) (int, error) {
		_, err := sweep(context.Background(), inner, func(int) (int, error) {
			n := running.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			running.Add(-1)
			return 0, nil
		})
		return 0, err
	})
	if err != nil {
		t.Fatal(err)
	}
	// capacity slots + the slotless test goroutine entering the outer
	// sweep inline. 16×8 items through the old pools would have peaked
	// far above this.
	if p := peak.Load(); p > capacity+1 {
		t.Errorf("peak concurrency %d exceeds scheduler bound %d", p, capacity+1)
	} else if p < 2 {
		t.Errorf("peak concurrency %d: sweep never ran items in parallel", p)
	}
}

// TestSweepCancellation: cancelling the context mid-sweep must stop the
// fan-out — unclaimed items are skipped rather than drained — and the
// sweep must report the context error.
func TestSweepCancellation(t *testing.T) {
	// Hold the only scheduler slot so the sweep runs strictly inline and
	// the cancellation point is deterministic.
	prevSched := sched
	sched = schedpkg.New(1)
	defer func() { sched = prevSched }()
	if err := sched.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer sched.Release()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	items := make([]int, 100)
	var processed atomic.Int64
	_, err := sweep(ctx, items, func(int) (int, error) {
		if processed.Add(1) == 3 {
			cancel()
		}
		return 0, nil
	})
	if err != context.Canceled {
		t.Fatalf("sweep returned %v, want context.Canceled", err)
	}
	if n := processed.Load(); n != 3 {
		t.Errorf("processed %d items after cancellation at item 3", n)
	}
}

// TestServiceOriginConcurrentStress exercises the real origin cache the
// way parallel experiments do: every service requested from many
// goroutines at once. All callers of a service must get the same origin
// pointer (built once), and under -race the shared read paths must stay
// clean.
func TestServiceOriginConcurrentStress(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)

	svcs := allServices()
	const callers = 8
	got := make([][]*origin.Origin, len(svcs))
	for i := range got {
		got[i] = make([]*origin.Origin, callers)
	}
	var wg sync.WaitGroup
	errc := make(chan error, len(svcs)*callers)
	for si, svc := range svcs {
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(si, c int, svc *services.Service) {
				defer wg.Done()
				org, err := serviceOrigin(svc)
				if err != nil {
					errc <- fmt.Errorf("%s: %w", svc.Name, err)
					return
				}
				got[si][c] = org
			}(si, c, svc)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for si, svc := range svcs {
		for c := 1; c < callers; c++ {
			if got[si][c] != got[si][0] {
				t.Errorf("%s: caller %d got a different origin instance", svc.Name, c)
			}
		}
	}
}

// TestByIDCached: ByID must resolve from the cached index, returning a
// copy the caller can mutate without corrupting the registry.
func TestByIDCached(t *testing.T) {
	a, b := ByID("fig8"), ByID("fig8")
	if a == nil || b == nil {
		t.Fatal("fig8 not found")
	}
	if a == b {
		t.Error("ByID returned the same pointer twice; callers could alias mutations")
	}
	a.Title = "mutated"
	if c := ByID("fig8"); c.Title != b.Title {
		t.Error("mutating a ByID result leaked into the registry")
	}
}
