// Package sched provides the single process-wide concurrency bound for
// simulation work. The experiment engine and the fleet subsystem run
// their work through the very same semaphore, so both layers —
// experiment fan-out and fleet cell fan-out — draw from one pool and
// nested fan-out cannot oversubscribe the cores (DESIGN.md §8,
// "Scheduling").
//
// The usage contract that keeps nested fan-out deadlock-free:
//
//   - Top-level workers block in Acquire and hold the slot for the
//     duration of one unit of work (everything nested inside runs under
//     that slot).
//   - Nested fan-out (experiments' sweep, fleet's cell batches) spawns
//     helper goroutines only for slots obtained with the non-blocking
//     TryAcquire, and the caller always works inline under the slot it
//     already holds — so nested fan-out never waits on slots held by
//     its own ancestors, it just degrades to the serial loop.
//
// Concurrently executing workers are therefore bounded by the capacity
// (+1 when a fan-out is entered by a caller holding no slot, e.g. a
// direct call from a test), no matter how deeply fan-outs nest.
package sched

import (
	"context"
	"runtime"
)

// Scheduler is a counting semaphore bounding concurrent workers.
type Scheduler struct {
	slots chan struct{}
}

// New creates a scheduler with the given capacity (minimum 1).
func New(capacity int) *Scheduler {
	if capacity < 1 {
		capacity = 1
	}
	return &Scheduler{slots: make(chan struct{}, capacity)}
}

// Global is the process-wide scheduler every subsystem shares by
// default. Tests swap their package-local reference to control
// parallelism independently of the machine's core count.
var Global = New(runtime.GOMAXPROCS(0))

// Acquire blocks until a slot is free or ctx is done.
func (s *Scheduler) Acquire(ctx context.Context) error {
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TryAcquire takes a slot only if one is free right now.
func (s *Scheduler) TryAcquire() bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot taken by Acquire or TryAcquire.
func (s *Scheduler) Release() { <-s.slots }

// Capacity returns the total number of slots.
func (s *Scheduler) Capacity() int { return cap(s.slots) }
