package rng

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestDerivePinned locks the stream-seed derivation. Changing it silently
// re-seeds every simulation, invalidating all recorded results, so the
// exact values are pinned here; a deliberate change must update this test
// and the recorded experiment outputs together.
func TestDerivePinned(t *testing.T) {
	cases := []struct {
		seed   uint64
		stream string
		want   uint64
	}{
		{1, "workload/background", 0x975325e309e3add6},
		{1, "switch/0", 0x8f6dabcc2df04bea},
	}
	for _, c := range cases {
		if got := Derive(c.seed, c.stream); got != c.want {
			t.Errorf("Derive(%d, %q) = %#x, want %#x", c.seed, c.stream, got, c.want)
		}
	}
}

// TestDerive2Pinned locks the indexed-stream derivation the same way
// TestDerivePinned locks the named one: per-port jitter streams (and any
// future indexed family) reseed silently if these values move.
func TestDerive2Pinned(t *testing.T) {
	cases := []struct {
		seed   uint64
		stream string
		a, b   int
		want   uint64
	}{
		{1, "link/jitter", 0, 0, 0x2f4737502e671c1b},
		{1, "link/jitter", 17, 3, 0x7c85e3a32c4280a4},
		{424242, "link/jitter", 17, 3, 0x8e6c8a72ddb68b58},
	}
	for _, c := range cases {
		if got := Derive2(c.seed, c.stream, c.a, c.b); got != c.want {
			t.Errorf("Derive2(%d, %q, %d, %d) = %#x, want %#x", c.seed, c.stream, c.a, c.b, got, c.want)
		}
	}
	if Derive2(1, "link/jitter", 1, 2) == Derive2(1, "link/jitter", 2, 1) {
		t.Error("Derive2 index order must matter")
	}
}

// TestStreamPinned locks the Stream sequence: the first draws of a pinned
// stream seed, plus the bounded draw used by link jitter.
func TestStreamPinned(t *testing.T) {
	s := Stream(Derive2(1, "link/jitter", 17, 3))
	if got, want := s.Next(), uint64(0xf2484bec7fecefc4); got != want {
		t.Errorf("Next()#1 = %#x, want %#x", got, want)
	}
	if got, want := s.Next(), uint64(0xcf73f021935ce1e8); got != want {
		t.Errorf("Next()#2 = %#x, want %#x", got, want)
	}
	if got, want := s.Int63n(2000), int64(32); got != want {
		t.Errorf("Int63n(2000) = %d, want %d", got, want)
	}
	for i := 0; i < 1000; i++ {
		if v := s.Int63n(7); v < 0 || v >= 7 {
			t.Fatalf("Int63n(7) out of range: %d", v)
		}
	}
}

func TestNewIsDeterministicPerStream(t *testing.T) {
	a := New(7, "workload/queries")
	b := New(7, "workload/queries")
	for i := 0; i < 100; i++ {
		if x, y := a.Int63(), b.Int63(); x != y {
			t.Fatalf("draw %d diverged: %d != %d", i, x, y)
		}
	}
}

func TestStreamsAreIndependent(t *testing.T) {
	// Distinct stream names, adjacent seeds, and name/seed swaps must all
	// yield different stream seeds — the historical failure mode of
	// additive derivations like seed+101.
	pairs := [][2]uint64{
		{Derive(1, "a"), Derive(1, "b")},
		{Derive(1, "a"), Derive(2, "a")},
		{Derive(1, "switch/1"), Derive(1, "switch/2")},
		{Derive(1, "switch/12"), Derive(2, "switch/1")},
	}
	for i, p := range pairs {
		if p[0] == p[1] {
			t.Errorf("pair %d: stream seeds collide: %#x", i, p[0])
		}
	}
}

// TestNewMatchesEagerSource pins the lazily seeded source to the eager one
// it replaced: every draw method, interleaved, gives the same values as
// rand.New(rand.NewSource(Derive(seed, stream))), before and after Seed.
func TestNewMatchesEagerSource(t *testing.T) {
	for _, c := range []struct {
		seed   int64
		stream string
	}{{1, "switch/0"}, {1, "switch/17"}, {7, "workload/queries"}, {-3, "bench/detour"}, {1 << 40, ""}} {
		lazy := New(c.seed, c.stream)
		eager := rand.New(rand.NewSource(int64(Derive(uint64(c.seed), c.stream))))
		for round := 0; round < 2; round++ {
			for i := 0; i < 50; i++ {
				if got, want := drawAll(lazy, i), drawAll(eager, i); got != want {
					t.Fatalf("New(%d, %q) round %d draw %d: %v, eager source %v", c.seed, c.stream, round, i, got, want)
				}
			}
			lazy.Seed(c.seed + 11)
			eager.Seed(c.seed + 11)
		}
	}
}

// drawAll takes one draw of each kind from r, sized by i.
func drawAll(r *rand.Rand, i int) (out [5]uint64) {
	out[0] = uint64(r.Intn(1 + i*37))
	out[1] = uint64(r.Int63n(int64(1) << (i + 1)))
	out[2] = uint64(r.Float64() * (1 << 53))
	out[3] = r.Uint64()
	p := r.Perm(i % 9)
	r.Shuffle(len(p), func(a, b int) { p[a], p[b] = p[b], p[a] })
	for _, v := range p {
		out[4] = out[4]*31 + uint64(v)
	}
	return out
}

// TestNewUndrawnIsSmall: a stream that is never drawn from costs its Rand
// and a small seed record, not a 4.9 KB seeded source.
func TestNewUndrawnIsSmall(t *testing.T) {
	const n = 1000
	keep := make([]*rand.Rand, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = New(int64(i), "switch/7")
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 100 {
		t.Fatalf("New of an undrawn stream allocates %d B, want < 100", per)
	}
	runtime.KeepAlive(keep)
}
