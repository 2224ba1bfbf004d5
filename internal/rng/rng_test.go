package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give the same stream")
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams of different seeds collided %d times", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 32; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 30 {
		t.Error("zero seed stream looks degenerate")
	}
}

func TestFloat64Range(t *testing.T) {
	f := func(seed int64) bool {
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestIntnRange(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		r := New(seed)
		for i := 0; i < 20; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(7)
	n := 20000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

func TestNormalShiftScale(t *testing.T) {
	r := New(9)
	n := 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Normal(3, 0.5)
	}
	if mean := sum / float64(n); math.Abs(mean-3) > 0.05 {
		t.Errorf("mean = %v, want ~3", mean)
	}
}

// Property: Perm returns a permutation — every index exactly once.
func TestPermIsPermutation(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Choose returns k distinct in-range indices.
func TestChooseDistinct(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw%20) + 1
		k := int(kRaw) % (n + 1)
		c := New(seed).Choose(n, k)
		if len(c) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range c {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestChoosePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Choose(3, 4)
}

func TestSplitIndependence(t *testing.T) {
	parent := New(5)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Error("sibling splits should differ")
	}
	// Splitting must be deterministic given the parent state.
	p2 := New(5)
	d1 := p2.Split()
	d2 := p2.Split()
	e1, f1 := New(5).Split(), d1
	if e1.Uint64() != f1.Uint64() {
		t.Error("split streams must be reproducible")
	}
	_ = d2
}

func TestFillers(t *testing.T) {
	r := New(4)
	buf := make([]float64, 1000)
	for i := range buf {
		buf[i] = r.Uniform(-2, 2)
	}
	for _, v := range buf {
		if v < -2 || v >= 2 {
			t.Fatalf("uniform out of range: %v", v)
		}
	}
	r.FillNormal(buf, 0, 0.1)
	sum := 0.0
	for _, v := range buf {
		sum += v
	}
	if math.Abs(sum/1000) > 0.05 {
		t.Errorf("normal fill mean too far from 0: %v", sum/1000)
	}
}
