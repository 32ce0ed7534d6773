package stats

import (
	"math"
	"math/bits"
)

// Rand is a small, fast, deterministic pseudo-random source
// (splitmix64-seeded xoshiro256**). It is intentionally self-contained so
// that experiment outputs are stable across Go releases — math/rand's
// global source and shuffling internals have changed between versions,
// which would silently change every "random mapping" baseline.
type Rand struct {
	s [4]uint64
}

// NewRand returns a generator seeded deterministically from seed.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	// splitmix64 to spread the seed over the full state.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box–Muller, deterministic).
func (r *Rand) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		if u1 == 0 {
			continue
		}
		u2 := r.Float64()
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// LogNormal returns a lognormal variate with the given parameters of the
// underlying normal (mu, sigma).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap
// (Fisher–Yates, descending form).
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Split returns a new independent generator derived from this one, for
// handing deterministic sub-streams to parallel components (e.g. one per
// injector) without sharing state.
func (r *Rand) Split() *Rand {
	return NewRand(r.Uint64())
}

// SplitSeed derives the seed of sub-stream i from a base seed. Stream 0
// is the base seed unchanged, so a single-stream run reproduces the
// corresponding serial run exactly; later streams are splitmix64-mixed
// into well-separated states. Its callers: the tail experiment seeds
// each mapper's replica i with stream i, sched.Generator draws each
// timeline dimension (arrival times, sizes, rates, lifetimes) from its
// own stream, and NSGA-II splits initialization from evolution. Each
// stream is a pure function of (base, i), so results never depend on
// scheduling.
func SplitSeed(base uint64, i int) uint64 {
	if i == 0 {
		return base
	}
	z := base + uint64(i)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
