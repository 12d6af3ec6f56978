// Package tools sits outside internal/: the determinism contract does not
// apply here (cf. the host-side tools under cmd/), so nothing in
// this file is flagged.
package tools

import "time"

// Elapsed measures host wall time; fine outside the simulator.
func Elapsed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}
