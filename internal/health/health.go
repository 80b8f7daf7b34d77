// Package health is the device-pool supervisor behind the resilient
// supervised dispatch path (gpu.CompressSupervised, which the streaming
// Writer and the one-shot API ride): per-device circuit breakers, a watchdog
// that bounds every guarded operation with a deadline, and quarantine
// with periodic half-open re-probe so a recovered device rejoins the
// pool.
//
// The Writer's retry/degrade machinery treats *segments* as the unit of
// failure isolation: an op that fails is retried and eventually
// re-encoded on the host. That is the wrong granularity for a sick
// *device* — a GPU whose every launch fails (or hangs) makes every
// segment walk the full retry ladder, and a hung kernel wedges its
// worker forever. This package isolates at the device level instead:
//
//   - A Breaker per device tracks recent outcomes in a sliding window.
//     Enough failures open the breaker; an open device is quarantined —
//     dispatchers stop routing work to it, so the fleet pays the failure
//     cost once per quarantine period instead of once per operation.
//   - After the quarantine period the breaker turns HalfOpen and admits
//     a single probe operation. Success (the configured number of times)
//     closes the breaker and the device rejoins the pool; failure
//     re-opens it for another period.
//   - Run wraps a guarded operation in a watchdog: the op runs under a
//     deadline-bound context and is abandoned when the deadline fires,
//     surfacing a typed *TimeoutError instead of blocking forever.
//     Cooperative cancellation (the cudasim launch hook and the
//     chunk/shard loops select on the context) means an abandoned op
//     also *exits* promptly; the watchdog's correctness never depends on
//     it.
//
// The supervisor also keeps a logbook of breaker transitions and a set
// of fleet counters (timeouts, breaker opens, redispatches) that
// Snapshot and core.WriterStats surface. All methods are safe
// for concurrent use. A nil *Supervisor is inert where the gpu layer
// consults it, so production paths that never arm one pay a pointer
// test.
package health

import (
	"context"
	"errors"
	"fmt"
	"time"

	"culzss/internal/cudasim"
	"culzss/internal/obs"
)

// State is a circuit breaker's position.
type State int

// Breaker states.
const (
	// Closed: the device is believed healthy; work flows normally.
	Closed State = iota
	// Open: the device is quarantined; no work is routed to it until the
	// quarantine period elapses.
	Open
	// HalfOpen: the quarantine period elapsed; one probe operation at a
	// time may test whether the device recovered.
	HalfOpen
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Policy tunes the supervisor. The zero value selects the defaults
// documented per field.
type Policy struct {
	// Obs, when non-nil, mirrors the supervisor's counters into the
	// observability registry (the culzss_health_* families, README
	// "Observability"). Nil costs nothing: the instruments resolve to
	// inert nils at construction.
	Obs *obs.Registry
	// Window is the sliding outcome window per device; 0 means 8.
	Window int
	// Threshold is the number of failures inside the window that opens
	// the breaker; 0 means 3. Threshold 1 opens on any failure.
	Threshold int
	// OpenFor is the quarantine period before an open breaker turns
	// half-open; 0 means 250ms.
	OpenFor time.Duration
	// HalfOpenProbes is the number of consecutive probe successes that
	// close a half-open breaker; 0 means 1.
	HalfOpenProbes int
	// Deadline is the watchdog bound Run places on every guarded
	// operation; 0 disables the watchdog (operations may block on their
	// own context only).
	Deadline time.Duration
	// Clock overrides time.Now for the quarantine timing (test hook).
	Clock func() time.Time
}

func (p Policy) window() int {
	if p.Window <= 0 {
		return 8
	}
	return p.Window
}

func (p Policy) threshold() int {
	if p.Threshold <= 0 {
		return 3
	}
	return p.Threshold
}

func (p Policy) openFor() time.Duration {
	if p.OpenFor <= 0 {
		return 250 * time.Millisecond
	}
	return p.OpenFor
}

func (p Policy) halfOpenProbes() int {
	if p.HalfOpenProbes <= 0 {
		return 1
	}
	return p.HalfOpenProbes
}

func (p Policy) now() time.Time {
	if p.Clock != nil {
		return p.Clock()
	}
	return time.Now()
}

// TimeoutError is the typed error Run returns when the watchdog deadline
// cuts a guarded operation — the "hung kernel" signal.
type TimeoutError struct {
	// Op names the guarded operation ("launch", "segment", "shard 3").
	Op string
	// Device is the pool index of the device the operation ran on.
	Device int
	// Deadline is the watchdog bound that fired.
	Deadline time.Duration
}

// Error implements error.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("health: %s on device %d exceeded watchdog deadline %v", e.Op, e.Device, e.Deadline)
}

// Is lets errors.Is(err, context.DeadlineExceeded) treat a watchdog cut
// like any other deadline, so existing deadline handling composes.
func (e *TimeoutError) Is(target error) bool { return target == context.DeadlineExceeded }

// ErrNoDevice is returned by dispatchers when every device in the pool
// is quarantined (or excluded) — the signal to degrade to the CPU path.
var ErrNoDevice = errors.New("health: no healthy device available")

// Event is one logbook entry: a breaker state transition.
type Event struct {
	// At is the transition time (per Policy.Clock).
	At time.Time
	// Device is the pool index.
	Device int
	// From and To are the breaker states.
	From, To State
	// Cause is a short human-readable reason ("failure threshold",
	// "quarantine elapsed", "probe success", "probe failure").
	Cause string
}

// String renders a one-line logbook entry.
func (e Event) String() string {
	return fmt.Sprintf("device %d: %v -> %v (%s)", e.Device, e.From, e.To, e.Cause)
}

// DeviceSlot describes one pool member.
type DeviceSlot struct {
	// Device is the simulated GPU; nil lets the dispatching layer pick
	// its default. Per-device fault behaviour (a dead or hanging device)
	// is armed on the device itself via cudasim.Device.LaunchHook.
	Device *cudasim.Device
}

// Snapshot is a point-in-time view of the pool.
type Snapshot struct {
	// Devices is the pool size; Healthy counts devices currently Closed
	// or HalfOpen; Quarantined counts devices currently Open.
	Devices, Healthy, Quarantined int
	// States holds every device's current breaker state.
	States []State
	// TimedOut counts watchdog-cut operations; BreakerOpens counts
	// transitions into Open; Redispatched counts operations re-routed to
	// a sibling device after a failure; Failures/Successes count recorded
	// outcomes.
	TimedOut, BreakerOpens, Redispatched, Failures, Successes int
}

// logbookCap bounds the supervisor's event history; older entries are
// dropped (a supervisor may outlive millions of operations).
const logbookCap = 1024
