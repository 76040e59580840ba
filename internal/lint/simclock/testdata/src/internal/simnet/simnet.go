// Package simnet stands in for a simulation package: the "internal"
// element of its path puts it in simclock's scope.
package simnet

import (
	"time"
)

// Config holds clock functions as values.
type Config struct {
	Now   func() time.Time
	Sleep func(time.Duration)
}

func bad() {
	t0 := time.Now() // want `call to time\.Now in simulation package`
	_ = t0
	time.Sleep(time.Second)        // want `call to time\.Sleep`
	_ = time.Since(t0)             // want `call to time\.Since`
	<-time.After(time.Second)      // want `call to time\.After`
	_ = time.NewTimer(time.Second) // want `call to time\.NewTimer`
}

func good(cfg Config) {
	// Storing the wall clock in a field is a reference, not a call.
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	t0 := cfg.Now()
	cfg.Sleep(time.Second)
	_ = cfg.Now().Sub(t0)
	// Pure duration arithmetic never reads the clock.
	_ = 3 * time.Second
	_, _ = time.ParseDuration("1s")
}

func allowed() {
	start := time.Now() //vodlint:allow simclock — wall-clock runner timing
	_ = start
	//vodlint:allow simclock — directive on the preceding line also works
	time.Sleep(time.Millisecond)
}
