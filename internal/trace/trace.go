// Package trace is the name the frozen benchmark harness (benchmark/tracer.go)
// attaches a timeline under. The tracer is obs.Trace; every layer holds a
// *obs.Trace and calls StartSpan on it directly.
package trace

import "scimpich/internal/obs"

// Tracer is the protocol event timeline attached to a cluster configuration.
type Tracer = obs.Trace

// FromObs returns t: a Config.Tracer is an *obs.Trace.
func FromObs(t *obs.Trace) *Tracer { return t }
