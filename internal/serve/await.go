package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"orderlight/internal/olerrors"
)

// Await blocks until the job reaches a terminal state and returns its
// result (or its original error). It follows the Watch stream; when the
// stream breaks — Watch fails, or the stream closes without a terminal
// event, as a reset connection does — Status decides: a terminal job's
// result is collected, a live job is watched again, and a job the
// service no longer knows ends the wait with ErrUnknownJob. A ctx that
// expires mid-wait requests Cancel on the job — the caller walking
// away should not leave work running — and reports the job's own
// terminal error when the cancellation lands, or ctx's error when the
// service cannot be reached anymore.
//
// onEvent, when non-nil, observes every watch event before Await acts
// on it (progress bars, trace taps).
func Await(ctx context.Context, svc Service, id JobID, onEvent func(WatchEvent)) (*JobResult, error) {
	for {
		if events, err := svc.Watch(ctx, id); err == nil {
			if done, res, err := follow(ctx, svc, id, events, onEvent); done {
				return res, err
			}
		}
		st, err := svc.Status(ctx, id)
		switch {
		case ctx.Err() != nil:
			return cancelAndCollect(ctx, svc, id)
		case err != nil:
			return nil, err
		case st.State.Terminal():
			return svc.Result(context.WithoutCancel(ctx), id)
		}
		// The job runs on; pause before re-watching so a service whose
		// stream keeps failing is polled, not hammered.
		if !sleepCtx(ctx, rewatchPause) {
			return cancelAndCollect(ctx, svc, id)
		}
	}
}

// rewatchPause spaces the re-watches of a job whose event stream
// broke.
const rewatchPause = 50 * time.Millisecond

// follow drains one Watch stream. done false means the stream ended
// without a terminal event and Await must ask Status where the job is.
func follow(ctx context.Context, svc Service, id JobID, events <-chan WatchEvent, onEvent func(WatchEvent)) (done bool, res *JobResult, err error) {
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				if ctx.Err() != nil {
					res, err = cancelAndCollect(ctx, svc, id)
					return true, res, err
				}
				return false, nil, nil
			}
			if onEvent != nil {
				onEvent(ev)
			}
			if ev.Terminal() {
				res, err = svc.Result(context.WithoutCancel(ctx), id)
				return true, res, err
			}
		case <-ctx.Done():
			res, err = cancelAndCollect(ctx, svc, id)
			return true, res, err
		}
	}
}

// SubmitAndAwait is Submit followed by Await, hardened against a
// service restart: if the job vanishes mid-wait (ErrUnknownJob — a
// daemon restarted and lost its in-memory job store), the identical
// request is resubmitted and awaited again. With a retry-armed client
// the submission carries an idempotency key, and on a daemon with a
// checkpoint root the resubmitted job lands on the same cell journal —
// completed cells are not re-run. Bounded at a few resubmissions so a
// crash-looping daemon fails loudly instead of forever.
func SubmitAndAwait(ctx context.Context, svc Service, req JobRequest, onEvent func(WatchEvent)) (*JobResult, error) {
	const resubmits = 4
	for attempt := 0; ; attempt++ {
		id, err := svc.Submit(ctx, req)
		if err != nil {
			return nil, err
		}
		res, err := Await(ctx, svc, id, onEvent)
		if err != nil && errors.Is(err, ErrUnknownJob) && attempt < resubmits && ctx.Err() == nil {
			continue
		}
		return res, err
	}
}

// cancelAndCollect turns an abandoned wait into a clean cancellation:
// cancel the job, then wait (briefly) for it to settle so the caller
// gets the job's real terminal error — usually wrapping
// olerrors.ErrCanceled — instead of a bare context error.
func cancelAndCollect(ctx context.Context, svc Service, id JobID) (*JobResult, error) {
	bg := context.WithoutCancel(ctx)
	if err := svc.Cancel(bg, id); err != nil {
		return nil, fmt.Errorf("serve: %w: %v (cancel failed: %v)", olerrors.ErrCanceled, ctx.Err(), err)
	}
	// A running job stops at its next cell boundary; poll until it
	// settles. The deadline only guards against a wedged service.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := svc.Status(bg, id)
		if err != nil {
			return nil, fmt.Errorf("serve: %w: %v (status failed: %v)", olerrors.ErrCanceled, ctx.Err(), err)
		}
		if st.State.Terminal() {
			return svc.Result(bg, id)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil, fmt.Errorf("serve: %w: %v (job %s did not settle after cancel)", olerrors.ErrCanceled, ctx.Err(), id)
}
