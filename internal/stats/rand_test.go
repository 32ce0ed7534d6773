package stats

import (
	"math"
	"testing"
)

func TestRandDeterminism(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed should give same stream")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds gave %d/100 identical values", same)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRand(1)
	for _, n := range []int{1, 2, 3, 7, 64, 1000} {
		seen := make(map[int]bool)
		for i := 0; i < 200*n && len(seen) < n; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
			seen[v] = true
		}
		if len(seen) != n {
			t.Errorf("Intn(%d) did not produce all values (got %d)", n, len(seen))
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(7)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRand(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestLogNormalMoments(t *testing.T) {
	r := NewRand(13)
	const n = 200000
	mu, sigma := 0.5, 0.4
	var sum float64
	for i := 0; i < n; i++ {
		x := r.LogNormal(mu, sigma)
		if x <= 0 {
			t.Fatal("lognormal must be positive")
		}
		sum += x
	}
	wantMean := math.Exp(mu + sigma*sigma/2)
	if mean := sum / n; math.Abs(mean-wantMean)/wantMean > 0.02 {
		t.Errorf("lognormal mean = %v, want ~%v", mean, wantMean)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRand(17)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		x := r.ExpFloat64()
		if x < 0 {
			t.Fatal("exponential must be non-negative")
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(19)
	for _, n := range []int{1, 2, 5, 64} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformish(t *testing.T) {
	// Element 0 should land in each of 4 positions roughly equally often.
	r := NewRand(23)
	counts := make([]int, 4)
	const trials = 40000
	for i := 0; i < trials; i++ {
		p := r.Perm(4)
		for pos, v := range p {
			if v == 0 {
				counts[pos]++
			}
		}
	}
	for pos, c := range counts {
		frac := float64(c) / trials
		if math.Abs(frac-0.25) > 0.02 {
			t.Errorf("element 0 at position %d with frequency %v, want ~0.25", pos, frac)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRand(29)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams overlap: %d/100 identical", same)
	}
}

// TestSplitSeed checks the contract every caller relies on: stream 0 is
// the base seed unchanged (one replica reproduces the serial run), and
// later streams never collide.
func TestSplitSeed(t *testing.T) {
	if got := SplitSeed(42, 0); got != 42 {
		t.Fatalf("SplitSeed(42, 0) = %d, want the base seed", got)
	}
	seen := map[uint64]int{42: 0}
	for i := 1; i < 100; i++ {
		s := SplitSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("SplitSeed(42, %d) collides with stream %d", i, prev)
		}
		seen[s] = i
	}
}
