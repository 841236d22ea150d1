package stats

import (
	"math"
	"testing"
)

func TestNewRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRNG(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRNG(42).Float64() == c.Float64() {
			continue
		}
		same = false
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestTruncGaussianRange(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := TruncGaussian(r, 0.05, 0.10, PaperSigma)
		if v < 0.05 || v > 0.10 {
			t.Fatalf("sample %v outside [0.05, 0.10]", v)
		}
	}
}

func TestTruncGaussianCentered(t *testing.T) {
	// With sigma=0.2 and truncation to [-1,1] the mapped mean should be very
	// close to the range midpoint.
	r := NewRNG(7)
	const n = 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := TruncGaussian(r, 0, 1, PaperSigma)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
	// Mass should concentrate near the midpoint: stddev of mapped samples is
	// sigma/2 = 0.1.
	if sd := math.Sqrt(sumSq/n - mean*mean); sd < 0.05 || sd > 0.15 {
		t.Errorf("stddev = %v, want ~0.1", sd)
	}
}

func TestTruncGaussianDegenerate(t *testing.T) {
	r := NewRNG(1)
	if v := TruncGaussian(r, 0.3, 0.3, PaperSigma); v != 0.3 {
		t.Errorf("degenerate range returned %v", v)
	}
	defer func() {
		if recover() == nil {
			t.Error("inverted range should panic")
		}
	}()
	TruncGaussian(r, 1, 0, PaperSigma)
}

func TestGaussianPointClamped(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		x, y := GaussianPoint(r, 0.5, 0.5, 0.2)
		if x < 0 || x > 1 || y < 0 || y > 1 {
			t.Fatalf("point (%v,%v) outside unit square", x, y)
		}
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := NewRNG(5)
	got := SampleWithoutReplacement(r, 10, 4)
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 10 {
			t.Fatalf("index %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate index %d", v)
		}
		seen[v] = true
	}
	if got := SampleWithoutReplacement(r, 3, 10); len(got) != 3 {
		t.Errorf("oversample: len = %d, want 3", len(got))
	}
	if got := SampleWithoutReplacement(r, 0, 5); got != nil {
		t.Errorf("n=0: got %v, want nil", got)
	}
}

func TestShuffle(t *testing.T) {
	r := NewRNG(11)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	orig := append([]int(nil), s...)
	Shuffle(r, s)
	if len(s) != len(orig) {
		t.Fatal("shuffle changed length")
	}
	sum := 0
	for _, v := range s {
		sum += v
	}
	if sum != 36 {
		t.Error("shuffle changed elements")
	}
}

func TestZipfSizes(t *testing.T) {
	r := NewRNG(13)
	sizes := ZipfSizes(r, 20000, 1.5, 100)
	if len(sizes) != 20000 {
		t.Fatalf("len = %d", len(sizes))
	}
	count1, countBig := 0, 0
	for _, v := range sizes {
		if v < 1 || v > 100 {
			t.Fatalf("size %d out of range", v)
		}
		if v == 1 {
			count1++
		}
		if v > 50 {
			countBig++
		}
	}
	// Heavy tail: size 1 dominates, but large sizes still occur.
	if count1 < 7000 {
		t.Errorf("size-1 count %d too small for zipf(1.5)", count1)
	}
	if countBig == 0 {
		t.Error("no large groups sampled; tail missing")
	}
	if got := ZipfSizes(r, 0, 1.5, 10); got != nil {
		t.Error("n=0 should return nil")
	}
}
