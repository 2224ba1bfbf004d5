// Package rng provides deterministic random number generation for the
// Ensembler reproduction. Every stochastic component of the system — weight
// initialization, data synthesis, noise injection, the secret Selector —
// draws from an rng.RNG seeded explicitly, so experiments are reproducible
// bit-for-bit for a fixed configuration.
//
// The generator is SplitMix64 feeding xoshiro256**, implemented locally so
// results do not depend on the Go version's math/rand internals.
package rng

import "math"

// RNG is a deterministic pseudo-random number generator. It is NOT safe for
// concurrent use; derive per-goroutine generators with Split.
type RNG struct {
	s [4]uint64
	// spare holds a cached second Gaussian sample from the Box-Muller
	// transform; spareOK reports whether it is valid.
	spare   float64
	spareOK bool
}

// splitmix64 advances the seed expander; used only during construction.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Distinct seeds yield
// independent-looking streams; the zero seed is valid.
func New(seed int64) *RNG {
	r := &RNG{}
	x := uint64(seed)
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits (xoshiro256**).
func (r *RNG) Uint64() uint64 {
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

// Split derives a new independent generator from r's stream. The parent and
// child streams do not overlap in practice; use this to hand independent
// sources to sub-components (per-network init, per-dataset synthesis, ...).
func (r *RNG) Split() *RNG {
	c := &RNG{}
	x := r.Uint64()
	for i := range c.s {
		c.s[i] = splitmix64(&x)
	}
	if c.s[0]|c.s[1]|c.s[2]|c.s[3] == 0 {
		c.s[0] = 0x9e3779b97f4a7c15
	}
	return c
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uniform returns a uniform sample in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a standard Gaussian sample (Box-Muller with spare caching).
func (r *RNG) Norm() float64 {
	if r.spareOK {
		r.spareOK = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.spareOK = true
	return u * m
}

// Normal returns a Gaussian sample with the given mean and standard
// deviation.
func (r *RNG) Normal(mean, std float64) float64 {
	return mean + std*r.Norm()
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Choose returns k distinct indices drawn uniformly from [0, n), in random
// order. It panics if k > n or k < 0. This is the primitive behind the
// client's secret Selector (Stage 2 of Ensembler training).
func (r *RNG) Choose(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Choose with k out of range")
	}
	p := r.Perm(n)
	return p[:k]
}

// FillNormal fills dst with Gaussian samples of the given mean and std.
func (r *RNG) FillNormal(dst []float64, mean, std float64) {
	for i := range dst {
		dst[i] = r.Normal(mean, std)
	}
}
