package simnet

import "time"

// Test files may time themselves: determinism is enforced on the
// packages under test, not on the test harness.
func timingHelper() time.Duration {
	t0 := time.Now()
	time.Sleep(time.Millisecond)
	return time.Since(t0)
}
