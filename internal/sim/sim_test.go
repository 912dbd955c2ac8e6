package sim

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	// One second of simulated time is BaseTickHz ticks.
	one := Time(BaseTickHz)
	if got := one.Seconds(); got != 1.0 {
		t.Fatalf("Seconds() = %v, want 1.0", got)
	}
	if got := one.Milliseconds(); got != 1000.0 {
		t.Fatalf("Milliseconds() = %v, want 1000", got)
	}
	if got := one.Nanoseconds(); got != 1e9 {
		t.Fatalf("Nanoseconds() = %v, want 1e9", got)
	}
}

func TestClockPeriodsMatchTable1Frequencies(t *testing.T) {
	// 17 ticks at 20.4 GHz must be exactly one 1200 MHz cycle and
	// 24 ticks exactly one 850 MHz cycle.
	corePeriod := float64(CoreTicks) / BaseTickHz
	if got := 1 / corePeriod; math.Abs(got-1200e6) > 1 {
		t.Errorf("core frequency = %v, want 1200 MHz", got)
	}
	memPeriod := float64(MemTicks) / BaseTickHz
	if got := 1 / memPeriod; math.Abs(got-850e6) > 1 {
		t.Errorf("memory frequency = %v, want 850 MHz", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{TimeInf, "inf"},
		{Time(BaseTickHz / 1000), "1.000ms"},
		{Time(BaseTickHz / 1_000_000), "1.000us"},
		{Time(21), "1.0ns"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestEngineInterleavesDomainsDeterministically(t *testing.T) {
	e := NewEngine()
	core := e.AddClock("core", CoreTicks)
	mem := e.AddClock("mem", MemTicks)

	var order []string
	core.Register(TickFunc(func(int64) { order = append(order, "c") }))
	mem.Register(TickFunc(func(int64) { order = append(order, "m") }))

	// Advance through exactly one hyper-period: LCM(17,24)=408 ticks,
	// which is 24 core cycles and 17 memory cycles (edges at 0..407).
	e.RunFor(407)
	var c, m int
	for _, s := range order {
		switch s {
		case "c":
			c++
		case "m":
			m++
		}
	}
	if c != 24 || m != 17 {
		t.Fatalf("hyper-period fired %d core / %d mem edges, want 24/17", c, m)
	}
	// Time 0 fires both; clocks added first tick first on shared edges.
	if order[0] != "c" || order[1] != "m" {
		t.Fatalf("shared-edge order = %v, want core before mem", order[:2])
	}
}

func TestEngineRunDeadline(t *testing.T) {
	e := NewEngine()
	e.AddClock("core", CoreTicks)
	err := e.Run(func() bool { return false }, 1000)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("Run returned %v, want ErrDeadline", err)
	}
}

func TestEngineRunCompletes(t *testing.T) {
	e := NewEngine()
	clk := e.AddClock("core", CoreTicks)
	n := 0
	clk.Register(TickFunc(func(int64) { n++ }))
	if err := e.Run(func() bool { return n >= 10 }, TimeInf); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("ticked %d times, want 10", n)
	}
}

func TestEngineRunForStopsBetweenEdges(t *testing.T) {
	e := NewEngine()
	clk := e.AddClock("core", 10)
	n := 0
	clk.Register(TickFunc(func(int64) { n++ }))
	e.RunFor(25) // edges at 0, 10, 20
	if n != 3 {
		t.Fatalf("edges fired = %d, want 3", n)
	}
	if e.Now() != 25 {
		t.Fatalf("Now() = %d, want 25", e.Now())
	}
}

func TestPipeLatencyAndOrder(t *testing.T) {
	p := NewPipe[int](100, 4)
	p.Push(0, 1)
	p.Push(10, 2)
	if p.Head(99) != nil {
		t.Fatal("entry visible before latency elapsed")
	}
	if v, ok := p.Pop(100); !ok || v != 1 {
		t.Fatalf("Pop(100) = %v,%v, want 1,true", v, ok)
	}
	if _, ok := p.Pop(105); ok {
		t.Fatal("second entry visible too early")
	}
	if v, ok := p.Pop(110); !ok || v != 2 {
		t.Fatalf("Pop(110) = %v,%v, want 2,true", v, ok)
	}
}

func TestPipeBackpressure(t *testing.T) {
	p := NewPipe[int](10, 2)
	p.Push(0, 1)
	p.Push(0, 2)
	if p.CanPush() {
		t.Fatal("pipe should be full")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Push into full pipe did not panic")
		}
	}()
	p.Push(0, 3)
}

func TestPipeDrain(t *testing.T) {
	p := NewPipe[int](5, 0)
	for i := 0; i < 4; i++ {
		p.Push(Time(i), i)
	}
	got := p.Drain(7) // entries ready at 5,6,7 — not the one at 8
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("Drain(7) = %v, want [0 1 2]", got)
	}
	if p.Len() != 1 {
		t.Fatalf("Len after drain = %d, want 1", p.Len())
	}
}

func TestPipePreservesOrderProperty(t *testing.T) {
	// Property: regardless of push times, a pipe always pops entries in
	// push order.
	f := func(delays []uint8) bool {
		p := NewPipe[int](50, 0)
		now := Time(0)
		for i, d := range delays {
			now += Time(d)
			p.Push(now, i)
		}
		want := 0
		for {
			v, ok := p.Pop(now + 50)
			if !ok {
				break
			}
			if v != want {
				return false
			}
			want++
		}
		return want == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueFIFOAndRemoveAt(t *testing.T) {
	q := NewQueue[string](3)
	q.Push("a")
	q.Push("b")
	q.Push("c")
	if q.CanPush() {
		t.Fatal("queue should be full")
	}
	if v := q.RemoveAt(1); v != "b" {
		t.Fatalf("RemoveAt(1) = %q, want b", v)
	}
	if v, _ := q.Pop(); v != "a" {
		t.Fatalf("Pop = %q, want a", v)
	}
	if v, _ := q.Pop(); v != "c" {
		t.Fatalf("Pop = %q, want c", v)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue reported ok")
	}
}

// TestHeadInPlace pins that Head hands out the stored entry itself, not
// a copy: a write through it is what Pop later returns.
func TestHeadInPlace(t *testing.T) {
	q := NewQueue[int](2)
	if q.Head() != nil {
		t.Fatal("Head of an empty queue is not nil")
	}
	q.Push(1)
	q.Push(2)
	*q.Head() = 7
	if v, _ := q.Pop(); v != 7 {
		t.Fatalf("Pop after writing through Head = %d, want 7", v)
	}
	if h := q.Head(); h == nil || *h != 2 {
		t.Fatalf("Head after Pop = %v, want 2", h)
	}

	p := NewPipe[int](10, 0)
	p.Push(0, 1)
	if p.Head(9) != nil {
		t.Fatal("pipe Head visible before latency elapsed")
	}
	*p.Head(10) = 5
	if v, ok := p.Pop(10); !ok || v != 5 {
		t.Fatalf("pipe Pop after writing through Head = %d,%v, want 5,true", v, ok)
	}
	if p.Head(TimeInf-1) != nil {
		t.Fatal("Head of an empty pipe is not nil")
	}
}

func TestQueueAt(t *testing.T) {
	q := NewQueue[int](0)
	for i := 0; i < 5; i++ {
		q.Push(i * 10)
	}
	for i := 0; i < 5; i++ {
		if q.At(i) != i*10 {
			t.Fatalf("At(%d) = %d, want %d", i, q.At(i), i*10)
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
	c := NewRand(43)
	if a.Uint64() == c.Uint64() {
		t.Fatal("different seeds produced identical streams (suspicious)")
	}
}

func TestRandIntnBounds(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
	f := r.Float64()
	if f < 0 || f >= 1 {
		t.Fatalf("Float64() = %v out of range", f)
	}
}

func TestClockCycleCounting(t *testing.T) {
	e := NewEngine()
	clk := e.AddClock("core", CoreTicks)
	var seen []int64
	clk.Register(TickFunc(func(cy int64) { seen = append(seen, cy) }))
	for i := 0; i < 5; i++ {
		e.Step()
	}
	for i, cy := range seen {
		if cy != int64(i) {
			t.Fatalf("tick %d saw cycle %d", i, cy)
		}
	}
	if clk.Cycle() != 5 {
		t.Fatalf("Cycle() = %d, want 5", clk.Cycle())
	}
}
