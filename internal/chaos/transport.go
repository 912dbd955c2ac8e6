package chaos

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Transport wraps an http.RoundTripper with seeded network-fault
// injection. Returns base unchanged when the plan has no transport
// class armed, so a chaos-free client pays nothing.
func Transport(p *Plan, base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	if p == nil || !p.spec.NetActive() {
		return base
	}
	return &transport{plan: p, base: base}
}

type transport struct {
	plan *Plan
	base http.RoundTripper
}

// delayStep quantizes ClassDelay injections; the actual delay is a
// deterministic small multiple of it derived from the op index.
const delayStep = 5 * time.Millisecond

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	class, idx := t.plan.NextNet()
	switch class {
	case ClassNone:
		return t.base.RoundTrip(req)

	case ClassReset:
		// Deliver, then lose the answer: the ambiguous failure. The
		// server-side effect (a submitted job, a canceled one) is
		// real; the caller sees only a dead connection.
		resp, err := t.base.RoundTrip(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return nil, &netError{msg: fmt.Sprintf("chaos: connection reset (net #%d)", idx)}

	case ClassTimeout:
		// Never sent — the unambiguous transport failure.
		return nil, &netError{msg: fmt.Sprintf("chaos: timeout (net #%d)", idx), timeout: true}

	case ClassHTTP500:
		// Deliberately NOT a protocol error envelope: this models the
		// envelope-less 5xx a dying daemon or intermediary produces (an
		// HTML error page, a blank body), which is the retryable kind.
		// Protocol-spoken 5xx errors carry envelopes and come from the
		// real server, not from chaos.
		return synthesize(req, http.StatusInternalServerError,
			"chaos: injected internal error\n"), nil

	case ClassGarbage:
		return synthesize(req, http.StatusOK, "<<<chaos garbage; not protocol JSON>>>"), nil

	case ClassDup:
		// Deliver twice, answer with the second delivery — the
		// double-submit a retrying proxy produces. Only requests whose
		// body can be replayed (GetBody, set by http.NewRequest for
		// buffered bodies) are duplicable; others fall through intact.
		if req.Body == nil || req.GetBody != nil {
			first := req.Clone(req.Context())
			if req.GetBody != nil {
				body, err := req.GetBody()
				if err != nil {
					return nil, err
				}
				first.Body = body
			}
			if resp, err := t.base.RoundTrip(first); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			if req.GetBody != nil {
				body, err := req.GetBody()
				if err != nil {
					return nil, err
				}
				req.Body = body
			}
		}
		return t.base.RoundTrip(req)

	case ClassDelay:
		d := time.Duration(1+idx%4) * delayStep
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(d):
		}
		return t.base.RoundTrip(req)

	default:
		// Filesystem classes never reach the net domain.
		return t.base.RoundTrip(req)
	}
}

// synthesize fabricates a response that never touched the server.
func synthesize(req *http.Request, status int, body string) *http.Response {
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", status, http.StatusText(status)),
		StatusCode:    status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"application/json"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// netError is the injected transport failure; it satisfies net.Error
// so timeout-aware callers classify it the way they would the real
// thing.
type netError struct {
	msg     string
	timeout bool
}

func (e *netError) Error() string   { return e.msg }
func (e *netError) Timeout() bool   { return e.timeout }
func (e *netError) Temporary() bool { return true }
