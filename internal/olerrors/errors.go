// Package olerrors holds the typed sentinel errors shared across the
// simulator's layers. They live in a leaf package (imported by config,
// kernel, experiments, runner and the public facade alike) so any layer
// can wrap them with %w and callers can classify failures with
// errors.Is instead of matching message strings.
package olerrors

import "errors"

var (
	// ErrUnknownKernel reports a kernel name absent from the Table 2
	// workload registry.
	ErrUnknownKernel = errors.New("unknown kernel")

	// ErrUnknownExperiment reports an experiment ID absent from the
	// table/figure registry.
	ErrUnknownExperiment = errors.New("unknown experiment")

	// ErrInvalidSpec reports a structurally unsound kernel spec or
	// simulator configuration.
	ErrInvalidSpec = errors.New("invalid specification")

	// ErrCanceled reports a run abandoned because its context was
	// canceled or timed out before every cell completed.
	ErrCanceled = errors.New("run canceled")

	// ErrCellPanic reports an experiment cell whose simulation panicked;
	// the runner converts the panic into this typed error instead of
	// crashing the whole sweep.
	ErrCellPanic = errors.New("experiment cell panicked")

	// ErrCellTimeout reports an experiment cell killed by the runner's
	// per-cell watchdog: the simulation made no progress toward
	// completion within the configured wall-clock budget.
	ErrCellTimeout = errors.New("experiment cell timed out")

	// ErrAborted reports a machine run stopped between event windows by
	// an external abort request (watchdog or cancellation), before the
	// simulation drained.
	ErrAborted = errors.New("run aborted")
)
