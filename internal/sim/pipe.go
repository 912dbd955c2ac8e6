package sim

// Pipe is an order-preserving latency FIFO: an entry pushed at time t
// becomes visible to the consumer no earlier than t+latency, and entries
// always emerge in push order. It models fixed-latency, in-order
// transport such as the SM-to-L2 interconnect hop or the L2-to-DRAM
// scheduler path of Figure 6. A capacity bound provides backpressure.
//
// The backing store is a ring buffer: Push and Pop are O(1) and, once
// the buffer has grown to the high-water mark of the run (immediately,
// for bounded pipes), steady-state traffic allocates nothing.
type Pipe[T any] struct {
	latency Time
	cap     int
	buf     []pipeEntry[T]
	head    int
	n       int
}

type pipeEntry[T any] struct {
	ready Time
	v     T
}

// NewPipe creates a pipe with the given transport latency in base ticks
// and capacity in entries. capacity <= 0 means unbounded. Bounded pipes
// allocate their full backing store up front and never reallocate.
func NewPipe[T any](latency Time, capacity int) *Pipe[T] {
	p := new(Pipe[T])
	p.Reset(latency, capacity)
	return p
}

// Reset empties the pipe and gives it a new latency and capacity. The
// backing store is kept when it is large enough.
func (p *Pipe[T]) Reset(latency Time, capacity int) {
	if p.n > 0 {
		clear(p.buf) // Pop zeroes what it takes; only leftovers need it
	}
	p.latency, p.cap, p.head, p.n = latency, capacity, 0, 0
	if capacity > 0 && len(p.buf) < capacity {
		p.buf = make([]pipeEntry[T], capacity)
	}
}

// Latency returns the transport latency in base ticks.
func (p *Pipe[T]) Latency() Time { return p.latency }

// Len returns the number of in-flight entries.
func (p *Pipe[T]) Len() int { return p.n }

// CanPush reports whether the pipe has room for another entry.
func (p *Pipe[T]) CanPush() bool { return p.cap <= 0 || p.n < p.cap }

// Push inserts v at time now. It panics if the pipe is full; callers must
// check CanPush first (backpressure is part of the model).
func (p *Pipe[T]) Push(now Time, v T) {
	if !p.CanPush() {
		panic("sim: push into full pipe")
	}
	if p.n == len(p.buf) {
		p.grow()
	}
	p.buf[(p.head+p.n)%len(p.buf)] = pipeEntry[T]{ready: now + p.latency, v: v}
	p.n++
}

func (p *Pipe[T]) grow() {
	nc := 2 * len(p.buf)
	if nc < 4 {
		nc = 4
	}
	buf := make([]pipeEntry[T], nc)
	for i := 0; i < p.n; i++ {
		buf[i] = p.buf[(p.head+i)%len(p.buf)]
	}
	p.buf = buf
	p.head = 0
}

// Head returns the oldest entry in place if it has arrived by time now,
// or nil. The pointer is valid until the next Push or Pop; reading a
// head through it copies nothing, so consumers that only inspect a head
// before deciding whether to take it pay for the copy only on Pop.
func (p *Pipe[T]) Head(now Time) *T {
	if p.n == 0 || p.buf[p.head].ready > now {
		return nil
	}
	return &p.buf[p.head].v
}

// NextReady returns the arrival time of the oldest in-flight entry, or
// TimeInf when the pipe is empty. It is the pipe's quiescence hint: the
// consumer cannot observe any change before that instant.
func (p *Pipe[T]) NextReady() Time {
	if p.n == 0 {
		return TimeInf
	}
	return p.buf[p.head].ready
}

// Pop removes and returns the oldest entry if it has arrived by time now.
func (p *Pipe[T]) Pop(now Time) (T, bool) {
	h := p.Head(now)
	if h == nil {
		var zero T
		return zero, false
	}
	v := *h
	p.buf[p.head] = pipeEntry[T]{}
	p.head = (p.head + 1) % len(p.buf)
	p.n--
	return v, true
}

// Drain removes and returns every entry that has arrived by time now, in
// order.
func (p *Pipe[T]) Drain(now Time) []T {
	var out []T
	for {
		v, ok := p.Pop(now)
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// Queue is a bounded zero-latency FIFO used for the finite hardware
// queues of the model (LDST queue, L2 queues, memory-controller
// read/write queues). capacity <= 0 means unbounded. Like Pipe it is a
// ring buffer: Push and Pop are O(1) and allocation-free at steady
// state; only the out-of-order RemoveAt pays a shift.
type Queue[T any] struct {
	cap  int
	buf  []T
	head int
	n    int
}

// NewQueue creates a queue with the given capacity in entries. Bounded
// queues allocate their full backing store up front.
func NewQueue[T any](capacity int) *Queue[T] {
	q := new(Queue[T])
	q.Reset(capacity)
	return q
}

// Reset empties the queue and gives it a new capacity. The backing
// store is kept when it is large enough.
func (q *Queue[T]) Reset(capacity int) {
	if q.n > 0 {
		clear(q.buf)
	}
	q.cap, q.head, q.n = capacity, 0, 0
	if capacity > 0 && len(q.buf) < capacity {
		q.buf = make([]T, capacity)
	}
}

// Len returns the number of queued entries.
func (q *Queue[T]) Len() int { return q.n }

// Cap returns the configured capacity (0 = unbounded).
func (q *Queue[T]) Cap() int { return q.cap }

// CanPush reports whether the queue has room for another entry.
func (q *Queue[T]) CanPush() bool { return q.cap <= 0 || q.n < q.cap }

// Push appends v. It panics if the queue is full.
func (q *Queue[T]) Push(v T) {
	if !q.CanPush() {
		panic("sim: push into full queue")
	}
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
}

func (q *Queue[T]) grow() {
	nc := 2 * len(q.buf)
	if nc < 4 {
		nc = 4
	}
	buf := make([]T, nc)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = buf
	q.head = 0
}

// Head returns the oldest entry in place, or nil when the queue is
// empty. The pointer is valid until the next Push, Pop or RemoveAt.
func (q *Queue[T]) Head() *T {
	if q.n == 0 {
		return nil
	}
	return &q.buf[q.head]
}

// Pop removes and returns the oldest entry.
func (q *Queue[T]) Pop() (T, bool) {
	if q.n == 0 {
		var zero T
		return zero, false
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v, true
}

// At returns the i-th oldest entry (0 = head). It panics if out of range.
func (q *Queue[T]) At(i int) T {
	if i < 0 || i >= q.n {
		panic("sim: queue index out of range")
	}
	return q.buf[(q.head+i)%len(q.buf)]
}

// RemoveAt removes and returns the i-th oldest entry, preserving the
// order of the others. Used by out-of-order pickers such as FR-FCFS.
func (q *Queue[T]) RemoveAt(i int) T {
	if i < 0 || i >= q.n {
		panic("sim: queue index out of range")
	}
	m := len(q.buf)
	v := q.buf[(q.head+i)%m]
	for j := i; j < q.n-1; j++ {
		q.buf[(q.head+j)%m] = q.buf[(q.head+j+1)%m]
	}
	q.n--
	var zero T
	q.buf[(q.head+q.n)%m] = zero
	return v
}

// Resize returns s with length n, reusing its backing array (and the
// elements still in it) when the capacity suffices. Components use it
// to keep their per-instance slices across resets.
func Resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}
