package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"orderlight/internal/olerrors"
)

// Client speaks the /v1 JSON protocol to a remote daemon. It
// implements Service, so everything written against the interface —
// Await, the facade adapters, olbench's -server mode — works
// unchanged against a daemon across the network.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy
}

// NewClient returns a client for the daemon at base (e.g.
// "http://localhost:8080"). A nil hc uses http.DefaultClient; pass a
// client without timeouts for Watch streams on long sweeps.
func NewClient(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// RetryPolicy tunes the client's transient-failure retry loop.
type RetryPolicy struct {
	// Attempts is the total number of tries per call; <= 1 disables
	// retry.
	Attempts int
	// Base is the backoff before the second try, doubling per attempt;
	// <= 0 means 50ms.
	Base time.Duration
	// Max caps one backoff sleep; <= 0 means 2s.
	Max time.Duration
	// Logf observes each retry; nil discards.
	Logf func(format string, args ...any)
}

// EnableRetry arms transient-failure retry on every call: transport
// errors, 5xx answers and undecodable response bodies are retried with
// capped exponential backoff and deterministic jitter (keyed on the
// request path and attempt, so concurrent clients decorrelate
// reproducibly). Service-level errors — 4xx classifications like
// unknown-job or invalid-spec — are never retried.
//
// Retry makes Submit ambiguous (a lost response is indistinguishable
// from a lost request), so arming it also stamps every submission with
// a content-derived idempotency key; the daemon collapses duplicate
// deliveries onto one job.
func (c *Client) EnableRetry(p RetryPolicy) {
	if p.Base <= 0 {
		p.Base = 50 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 2 * time.Second
	}
	c.retry = p
}

// errTransient tags failures worth retrying: the request may not have
// been processed, or the response was lost or mangled in flight.
var errTransient = errors.New("transient transport failure")

// retryBackoff is the sleep before attempt (1-based past the first):
// capped exponential with deterministic jitter, the same idiom as the
// runner's cell retry backoff.
func (c *Client) retryBackoff(path string, attempt int) time.Duration {
	d := c.retry.Base << uint(attempt-1)
	if d > c.retry.Max {
		d = c.retry.Max
	}
	var seed uint64
	for _, b := range []byte(path) {
		seed = seed*131 + uint64(b)
	}
	seed += uint64(attempt) * 0x9e37_79b9_7f4a_7c15
	seed ^= seed >> 33
	seed *= 0xff51_afd7_ed55_8ccd
	seed ^= seed >> 33
	return d + time.Duration(seed%uint64(d/2+1))
}

// decodeError rebuilds the service error from an error envelope. The
// JobError's Unwrap re-arms the sentinel, so
// errors.Is(err, olerrors.ErrUnknownKernel) holds on the client side
// exactly as it did inside the daemon. An answer that carries a valid
// envelope is the daemon speaking — even on 5xx, where this protocol
// reports terminal job errors — and is never retried; an envelope-less
// 5xx (a dying daemon, a proxy error page) is tagged transient.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err == nil && eb.Error != nil {
		return fmt.Errorf("serve: daemon: %w", eb.Error)
	}
	if resp.StatusCode >= 500 {
		return fmt.Errorf("serve: daemon: %w: status %s: %s", errTransient, resp.Status, bytes.TrimSpace(body))
	}
	return fmt.Errorf("serve: daemon: unexpected status %s: %s", resp.Status, bytes.TrimSpace(body))
}

// doJSON performs one request and decodes a JSON response into out,
// retrying transient failures when EnableRetry armed it.
func (c *Client) doJSON(ctx context.Context, method, path string, in, out any) error {
	var payload []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("serve: client: encode request: %w", err)
		}
		payload = b
	}
	attempts := c.retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if c.retry.Logf != nil {
				c.retry.Logf("serve: client: retrying %s %s (attempt %d/%d): %v", method, path, attempt+1, attempts, lastErr)
			}
			if !sleepCtx(ctx, c.retryBackoff(path, attempt)) {
				return fmt.Errorf("serve: client: %w: %v (last failure: %v)", olerrors.ErrCanceled, ctx.Err(), lastErr)
			}
		}
		err := c.doJSONOnce(ctx, method, path, payload, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !errors.Is(err, errTransient) || ctx.Err() != nil {
			return err
		}
	}
	return lastErr
}

// doJSONOnce is one attempt of doJSON. Transport failures and
// undecodable responses are tagged transient.
func (c *Client) doJSONOnce(ctx context.Context, method, path string, payload []byte, out any) error {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("serve: client: %w", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("serve: client: %w: %v", errTransient, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return decodeError(resp)
	}
	if resp.StatusCode == http.StatusNoContent {
		return nil // out, if any, keeps its zero value
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		// A mangled body on a 2xx: the daemon did the work but the
		// answer was lost in flight — exactly what retry is for.
		return fmt.Errorf("serve: client: %w: decode response: %v", errTransient, err)
	}
	return nil
}

// Submit implements Service. With retry armed, the submission is
// stamped with a content-derived idempotency key first, so a retried
// delivery of the same submission lands on the same job.
func (c *Client) Submit(ctx context.Context, req JobRequest) (JobID, error) {
	if req.Opts.Progress != nil || req.Opts.Sink != nil || req.Opts.Sampler != nil {
		return "", fmt.Errorf("serve: %w: in-process callbacks (WithProgress, WithTraceSink, WithSampler) cannot cross the wire; use the events stream (stream_trace) instead", olerrors.ErrInvalidSpec)
	}
	if c.retry.Attempts > 1 && req.IdempotencyKey == "" {
		b, err := json.Marshal(&req)
		if err == nil {
			sum := sha256.Sum256(b)
			req.IdempotencyKey = "idem-" + hex.EncodeToString(sum[:8])
		}
	}
	var st JobStatus
	if err := c.doJSON(ctx, http.MethodPost, "/v1/jobs", &req, &st); err != nil {
		return "", err
	}
	return st.ID, nil
}

// Status implements Service.
func (c *Client) Status(ctx context.Context, id JobID) (JobStatus, error) {
	var st JobStatus
	err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+string(id), nil, &st)
	return st, err
}

// Result implements Service.
func (c *Client) Result(ctx context.Context, id JobID) (*JobResult, error) {
	var res JobResult
	if err := c.doJSON(ctx, http.MethodGet, "/v1/jobs/"+string(id)+"/result", nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Cancel implements Service.
func (c *Client) Cancel(ctx context.Context, id JobID) error {
	return c.doJSON(ctx, http.MethodDelete, "/v1/jobs/"+string(id), nil, nil)
}

// Watch implements Service by consuming the job's server-sent event
// stream. The returned channel closes when the daemon ends the stream
// (terminal state) or ctx is canceled.
func (c *Client) Watch(ctx context.Context, id JobID) (<-chan WatchEvent, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+string(id)+"/events", nil)
	if err != nil {
		return nil, fmt.Errorf("serve: client: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("serve: client: %w", err)
	}
	if resp.StatusCode >= 400 {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	ch := make(chan WatchEvent, 128)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if !bytes.HasPrefix(line, []byte("data: ")) {
				continue // blank separators, comments
			}
			var ev WatchEvent
			if err := json.Unmarshal(line[len("data: "):], &ev); err != nil {
				continue
			}
			select {
			case ch <- ev:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ch, nil
}

// Healthz fetches the daemon's health snapshot. It doubles as the
// liveness probe olserve's -healthcheck mode uses.
func (c *Client) Healthz(ctx context.Context) (HealthInfo, error) {
	var h HealthInfo
	err := c.doJSON(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// ServerVersion fetches the daemon's protocol and toolchain versions.
func (c *Client) ServerVersion(ctx context.Context) (VersionInfo, error) {
	var v VersionInfo
	err := c.doJSON(ctx, http.MethodGet, "/v1/version", nil, &v)
	return v, err
}

// sleepCtx sleeps d or until ctx cancels; false means canceled.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
