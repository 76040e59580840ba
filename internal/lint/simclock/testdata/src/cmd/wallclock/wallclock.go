// Package wallclock stands in for a package outside the simulation set
// (a cmd binary): simclock must stay silent here.
package wallclock

import "time"

func RealTiming() time.Duration {
	t0 := time.Now()
	time.Sleep(time.Millisecond)
	return time.Since(t0)
}
