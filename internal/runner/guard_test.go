package runner

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"orderlight/internal/obs"
	"orderlight/internal/olerrors"
	"orderlight/internal/stats"
)

// TestSingleCellGuardNamesOption pins the error text of the multi-cell
// guard: the message must name the facade option the caller has to
// remove (WithTraceSink / WithSampler), not a bare field name, and must
// classify as ErrInvalidSpec. A regression here turns a self-explaining
// error back into a scavenger hunt.
func TestSingleCellGuardNamesOption(t *testing.T) {
	cells := testCells(t)
	tests := []struct {
		name string
		opts Options
		want string
	}{
		{
			name: "trace sink",
			opts: Options{TraceSink: obs.NewPerfettoSink(io.Discard)},
			want: "WithTraceSink attaches to exactly one cell, got 4",
		},
		{
			name: "sampler",
			opts: Options{Sampler: stats.NewSampler(100)},
			want: "WithSampler attaches to exactly one cell, got 4",
		},
		{
			name: "sink wins over sampler",
			opts: Options{TraceSink: obs.NewPerfettoSink(io.Discard), Sampler: stats.NewSampler(100)},
			want: "WithTraceSink attaches to exactly one cell, got 4",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.opts).Run(context.Background(), cells)
			if err == nil {
				t.Fatal("multi-cell run with a single-cell option succeeded")
			}
			if !errors.Is(err, olerrors.ErrInvalidSpec) {
				t.Errorf("error %v is not classified as ErrInvalidSpec", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the offending option; want substring %q", err, tc.want)
			}
		})
	}

	// The same options on a single cell are legal: the guard must not
	// overreach.
	if _, err := New(Options{Sampler: stats.NewSampler(100), TraceSink: obs.NewPerfettoSink(io.Discard)}).
		Run(context.Background(), cells[:1]); err != nil {
		t.Errorf("single-cell run with sink and sampler failed: %v", err)
	}
}
