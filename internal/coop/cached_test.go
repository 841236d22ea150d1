package coop

import (
	"math"
	"testing"
)

// countingModel counts base evaluations.
type countingModel struct {
	base  Model
	calls int
}

func (c *countingModel) Quality(i, k int) float64 {
	c.calls++
	return c.base.Quality(i, k)
}
func (c *countingModel) NumWorkers() int { return c.base.NumWorkers() }

func TestCachedTransparent(t *testing.T) {
	base := Synthetic{N: 50, Seed: 3}
	c := NewCached(base)
	for i := 0; i < 50; i++ {
		for k := 0; k < 50; k++ {
			if got, want := c.Quality(i, k), base.Quality(i, k); got != want {
				t.Fatalf("Quality(%d,%d) = %v, want %v", i, k, got, want)
			}
		}
	}
	if c.NumWorkers() != 50 {
		t.Error("NumWorkers not forwarded")
	}
	if c.Unwrap() != Model(base) {
		t.Error("Unwrap lost base")
	}
}

func TestCachedMemoizes(t *testing.T) {
	counter := &countingModel{base: Synthetic{N: 10, Seed: 1}}
	c := NewCached(counter)
	for rep := 0; rep < 100; rep++ {
		c.Quality(3, 7)
		c.Quality(7, 3) // same unordered pair
	}
	if counter.calls != 1 {
		t.Errorf("base evaluated %d times, want 1", counter.calls)
	}
	c.Quality(1, 2)
	c.Quality(2, 1)
	c.Quality(3, 7)
	if counter.calls != 2 {
		t.Errorf("base evaluated %d times after a second pair, want 2", counter.calls)
	}
	// Diagonal never touches the base.
	if c.Quality(4, 4) != 0 {
		t.Error("diagonal nonzero")
	}
	if counter.calls != 2 {
		t.Error("diagonal evaluated the base")
	}
}

// TestCachedForHoldsPairs: a memo sized for n pairs does not grow while n
// distinct pairs go in, and answers each with the base's bits; one sized
// for more pairs than its workers can form holds only those; and one given
// more pairs than it was sized for grows as NewCached's does.
func TestCachedForHoldsPairs(t *testing.T) {
	base := Synthetic{N: 1 << 12, Seed: 5}
	for _, n := range []int{0, 1, 48, 49, 96, 97, 1000, 24611} {
		c := NewCachedFor(base, n)
		slots := len(c.slots)
		for p := 0; p < n; p++ {
			i, k := p%977, 977+p/977 // distinct pairs for p < 977·(4096−977)
			if got, want := c.Quality(k, i), base.Quality(i, k); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d: Quality(%d,%d) = %v, base %v", n, k, i, got, want)
			}
		}
		if len(c.slots) != slots {
			t.Fatalf("sized for %d pairs, the memo grew from %d to %d slots while they went in", n, slots, len(c.slots))
		}
		if n > 0 && 4*n <= 3*(slots/2) && slots > 1<<cachedMinBits {
			t.Fatalf("sized for %d pairs, the memo took %d slots; half of them hold the pairs", n, slots)
		}
	}
	if c := NewCachedFor(Synthetic{N: 10, Seed: 1}, 1<<20); len(c.slots) != 1<<cachedMinBits {
		t.Fatalf("10 workers form 45 pairs, yet the memo took %d slots", len(c.slots))
	}
	c := NewCachedFor(base, 10)
	slots := len(c.slots)
	for p := 0; p < 4*slots; p++ {
		c.Quality(p, p+1)
	}
	if len(c.slots) <= slots {
		t.Fatalf("%d pairs went into a memo of %d slots and it did not grow", 4*slots, slots)
	}
}

// FuzzCachedTransparent drives a pair stream through Cached over a counting
// base: every answer must equal the base's bitwise, and the base must run
// exactly once per distinct unordered off-diagonal pair. Each input byte
// pair names a pair among n workers; n up to 512 lets one stream hold
// enough distinct pairs to double the table several times.
func FuzzCachedTransparent(f *testing.F) {
	f.Add(uint16(10), []byte{3, 7, 7, 3, 4, 4, 1, 2, 2, 1})
	f.Add(uint16(512), []byte{0, 1, 1, 0, 255, 254, 0, 0, 9, 200})
	seq := make([]byte, 0, 2048)
	for i := 0; i < 1024; i++ {
		seq = append(seq, byte(i*37), byte(i*101+i/256))
	}
	f.Add(uint16(300), seq)
	f.Fuzz(func(t *testing.T, n uint16, data []byte) {
		n = n%512 + 1
		counter := &countingModel{base: Synthetic{N: int(n), Seed: 7}}
		c := NewCached(counter)
		seen := make(map[[2]int]bool)
		for j := 0; j+1 < len(data); j += 2 {
			i, k := int(data[j]), int(data[j+1])
			if j%4 == 2 { // every other pair reaches indices above 255
				i, k = i+256, k+256
			}
			i, k = i%int(n), k%int(n)
			got, want := c.Quality(i, k), counter.base.Quality(i, k)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Quality(%d,%d) = %v, base %v", i, k, got, want)
			}
			if i != k {
				seen[[2]int{min(i, k), max(i, k)}] = true
			}
		}
		// Replay the whole stream: all hits now, so the count must hold.
		for key := range seen {
			if got, want := c.Quality(key[1], key[0]), counter.base.Quality(key[0], key[1]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("reversed replay of %v = %v, base %v", key, got, want)
			}
		}
		if counter.calls != len(seen) {
			t.Fatalf("base evaluated %d times for %d distinct pairs", counter.calls, len(seen))
		}
	})
}
