package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	schedpkg "repro/internal/sched"
	"repro/internal/textplot"
)

// The parallel experiment engine. Every experiment is an independent
// pure-ish computation (fixed seeds, no cross-experiment state other
// than the origins shared through internal/expcache), so a full
// report regeneration fans out across the process-wide scheduler (see
// internal/sched for the single-semaphore design). Determinism is
// preserved by collecting results by index — paper order in, paper order
// out — never by completion order; the same holds for the
// intra-experiment sweep helper the heaviest experiments use.

// sched is this package's reference to the process-wide scheduler.
// Tests swap it to control parallelism independently of the machine's
// core count.
var sched = schedpkg.Global

// Result is the outcome of one experiment run by RunAll.
type Result struct {
	// Index is the position of the experiment in the requested order.
	Index int
	// ID and Title identify the artifact.
	ID, Title string
	// Tables and Plots are the regenerated outputs (nil on error).
	Tables []*textplot.Table
	Plots  []string
	// Err is the experiment's failure, or the context error for
	// experiments that were never scheduled because the run was
	// cancelled.
	Err error
	// Elapsed is the wall-clock time the experiment took.
	Elapsed time.Duration
	// AllocBytes is the heap allocated while the experiment ran. It is
	// exact for Workers=1; under parallel runs it includes allocations
	// by concurrently running experiments and is only indicative.
	AllocBytes uint64
}

// Options configures RunAll.
type Options struct {
	// Workers caps the number of experiments running concurrently. Zero
	// or negative means the scheduler capacity (GOMAXPROCS at startup).
	// The effective parallelism is additionally bounded by the
	// process-wide scheduler, which experiment-internal sweeps share.
	Workers int
	// IDs selects a subset of experiments to run, in the given order.
	// Nil means every registered experiment in paper order.
	IDs []string
	// OnProgress, when non-nil, is called once per experiment as it
	// finishes (completion order). Calls are serialised; the callback
	// does not need its own locking.
	OnProgress func(Result)
}

// RunAll regenerates the selected experiments and returns their results
// in request order. Each experiment runs under one slot of the
// process-wide scheduler, so experiment-level and sweep-level fan-out
// together never exceed the scheduler capacity. The first experiment
// error (in request order, not completion order) is also returned as
// the run error; cancelling ctx stops scheduling new experiments and
// marks the unscheduled ones with the context error.
func RunAll(ctx context.Context, opts Options) ([]Result, error) {
	exps, err := selectExperiments(opts.IDs)
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = sched.Capacity()
	}
	if workers > len(exps) {
		workers = len(exps)
	}

	results := make([]Result, len(exps))
	for i, e := range exps {
		results[i] = Result{Index: i, ID: e.ID, Title: e.Title}
	}

	var progressMu sync.Mutex
	runOne := func(i int) {
		r := &results[i]
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		start := time.Now() //vodlint:allow simclock — wall-clock runner timing, not simulation state
		r.Tables, r.Plots, r.Err = exps[i].Run(ctx)
		r.Elapsed = time.Since(start) //vodlint:allow simclock — wall-clock runner timing, not simulation state
		runtime.ReadMemStats(&ms)
		r.AllocBytes = ms.TotalAlloc - before
		if opts.OnProgress != nil {
			progressMu.Lock()
			opts.OnProgress(*r)
			progressMu.Unlock()
		}
	}
	// runSlotted runs one experiment under a scheduler slot; a
	// cancellation while waiting marks the result instead of running.
	runSlotted := func(i int) {
		if err := sched.Acquire(ctx); err != nil {
			results[i].Err = err
			return
		}
		defer sched.Release()
		runOne(i)
	}

	if workers <= 1 {
		for i := range exps {
			runSlotted(i)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					runSlotted(i)
				}
			}()
		}
		scheduled := make([]bool, len(exps))
	feed:
		for i := range exps {
			select {
			case jobs <- i:
				scheduled[i] = true
			case <-ctx.Done():
				break feed
			}
		}
		close(jobs)
		wg.Wait()
		for i := range exps {
			if !scheduled[i] {
				results[i].Err = ctx.Err()
			}
		}
	}

	for i := range results {
		if results[i].Err != nil {
			return results, fmt.Errorf("experiments: %s: %w", results[i].ID, results[i].Err)
		}
	}
	return results, nil
}

// selectExperiments resolves ids to experiments, defaulting to paper
// order.
func selectExperiments(ids []string) ([]Experiment, error) {
	if ids == nil {
		return All(), nil
	}
	exps := make([]Experiment, 0, len(ids))
	for _, id := range ids {
		e := ByID(id)
		if e == nil {
			return nil, fmt.Errorf("experiments: unknown experiment %q", id)
		}
		exps = append(exps, *e)
	}
	return exps, nil
}

// sweep fans fn out over items and collects the outputs by item index,
// so callers observe exactly the ordering a serial loop would produce.
// It is the intra-experiment counterpart of RunAll for services ×
// profiles (and similar) product sweeps.
//
// Concurrency and failure handling are sched.RunStealing's: helper
// goroutines only for scheduler slots free right now, the caller working
// inline under the slot it already occupies (no free slots: the serial
// loop), the smallest-index item error returned, and an error or a
// cancelled ctx stopping items not yet started.
func sweep[In, Out any](ctx context.Context, items []In, fn func(In) (Out, error)) ([]Out, error) {
	outs := make([]Out, len(items))
	_, err := sched.RunStealing(ctx, len(items), sched.Capacity(), schedpkg.StealOptions{}, func(i int) (err error) {
		outs[i], err = fn(items[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}
