package sim

// Rand is a small deterministic pseudo-random generator (SplitMix64)
// used for scheduler tie-breaking and adversarial reordering injection.
// It is reproducible from its seed and safe to embed by value.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns a uniform boolean.
func (r *Rand) Bool() bool { return r.Uint64()&1 == 1 }

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
