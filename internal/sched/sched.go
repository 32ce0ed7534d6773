// Package sched simulates the dynamic multi-application scenario of
// Section IV.B of the paper: applications arrive and depart at runtime,
// and because sort-select-swap runs in milliseconds while application
// churn happens at a much coarser granularity, the system can re-solve
// the OBM problem at every change. The package models arrival/departure
// event timelines, remapping policies, thread-migration accounting, and
// time-weighted latency-balance metrics.
package sched

import (
	"errors"
	"fmt"

	"obm/internal/workload"
)

// ErrNoEvents marks a scenario whose timeline is empty. Callers that
// synthesize timelines can match it with errors.Is and treat the run as
// a well-defined no-op instead of a failure.
var ErrNoEvents = errors.New("sched: scenario has no events")

// Event is one change to the running application set.
type Event struct {
	// Time is when the event takes effect (arbitrary units; metrics are
	// weighted by the spans between events).
	Time int64
	// Arrive, when non-nil, is an application starting at Time. Its
	// Name must be unique among live applications.
	Arrive *workload.Application
	// Depart, when non-empty, names an application terminating at Time.
	Depart string
}

// Scenario is a timeline of events plus an end time. A valid timeline
// is nonempty and ordered by nondecreasing Time; every event is exactly
// one of arrive/depart, arrivals carry threads and a name not already
// live, and departures name a live application. StreamRunner.Run
// enforces these rules.
type Scenario struct {
	Events []Event
	// End closes the last measurement interval; must be >= the last
	// event time.
	End int64
}

// Policy decides when the scheduler attempts a remap. When it
// declines, arriving applications are placed incrementally on free
// tiles (the runner's Placement) and departing applications simply
// free theirs.
type Policy interface {
	// Name labels the policy in results.
	Name() string
	// Remap reports whether to re-solve after an event group, given the
	// time since the previous remap and the live mapping's dev-APL once
	// the group was applied.
	Remap(since int64, devAPL float64) bool
}

// Never only places arrivals incrementally — the "static" baseline.
type Never struct{}

// Name implements Policy.
func (Never) Name() string { return "never" }

// Remap implements Policy.
func (Never) Remap(int64, float64) bool { return false }

// OnChange re-solves at every arrival and departure — what the paper's
// runtime argument advocates.
type OnChange struct{}

// Name implements Policy.
func (OnChange) Name() string { return "on-change" }

// Remap implements Policy.
func (OnChange) Remap(int64, float64) bool { return true }

// Every re-solves at an event only if at least Interval time units have
// passed since the previous re-solve.
type Every struct{ Interval int64 }

// Name implements Policy.
func (e Every) Name() string { return fmt.Sprintf("every-%d", e.Interval) }

// Remap implements Policy.
func (e Every) Remap(since int64, _ float64) bool { return since >= e.Interval }

// WhenUnbalanced re-solves only when the current mapping's dev-APL
// exceeds Threshold — the adaptive policy a deployment would actually
// run: migrations happen only when the balance contract is at risk.
type WhenUnbalanced struct{ Threshold float64 }

// Name implements Policy.
func (w WhenUnbalanced) Name() string { return fmt.Sprintf("dev>%.2f", w.Threshold) }

// Remap implements Policy.
func (w WhenUnbalanced) Remap(_ int64, devAPL float64) bool { return devAPL > w.Threshold }

// Debounced rate-limits an inner policy: it never fires less than
// MinInterval time units after the previous remap, whatever the inner
// policy says. Its main use is capping the attempt rate of
// WhenUnbalanced on long timelines, where a drift period would
// otherwise trigger a solve at every event group.
type Debounced struct {
	// Inner is the wrapped policy.
	Inner Policy
	// MinInterval is the minimum gap between remap attempts.
	MinInterval int64
}

// Name implements Policy.
func (d Debounced) Name() string {
	return fmt.Sprintf("%s/min%d", d.Inner.Name(), d.MinInterval)
}

// Remap implements Policy: it defers to the inner policy only once the
// gap clears MinInterval.
func (d Debounced) Remap(since int64, devAPL float64) bool {
	return since >= d.MinInterval && d.Inner.Remap(since, devAPL)
}
