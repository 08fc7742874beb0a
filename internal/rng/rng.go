// Package rng is the single sanctioned place simulation code may construct
// pseudo-random number generators. Every stream derives deterministically
// from the run's Config.Seed plus a stable stream name, so one seed fixes
// the entire simulation and adding a new consumer cannot perturb existing
// streams (no shared counters, no ad-hoc XOR constants scattered around).
//
// TestEveryStreamFollowsSeed (internal/netsim) holds each named stream of a
// run to the seed: a stream seeded from anything but Config.Seed fails it.
package rng

import "math/rand"

// New returns a deterministic generator for the named stream of a run.
// The same (seed, stream) pair always yields the same sequence; distinct
// stream names yield statistically independent sequences even for adjacent
// seeds. Stream names are slash-separated paths by convention, e.g.
// "workload/background" or "switch/17".
//
// The generator seeds itself on its first draw. A math/rand source is
// 4.9 KB and about 15 µs to seed, and a switch's stream is drawn from only
// when it detours or sprays, so many are never seeded; the sequence is the
// same either way.
func New(seed int64, stream string) *rand.Rand {
	return rand.New(&lazySource{seed: int64(Derive(uint64(seed), stream))})
}

// lazySource is a rand.Source64 that builds rand.NewSource(seed) on its
// first draw and delegates to it from then on.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (s *lazySource) load() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	}
	return s.src
}

func (s *lazySource) Int63() int64   { return s.load().Int63() }
func (s *lazySource) Uint64() uint64 { return s.load().Uint64() }

// Seed re-seeds the stream as rand.Source.Seed does.
func (s *lazySource) Seed(seed int64) { s.seed, s.src = seed, nil }

// Derive mixes a seed with a stream name into a 64-bit stream seed:
// FNV-1a over the name, then the SplitMix64 finalizer over seed+hash.
// Exported so tests can pin the derivation, which must never change —
// every recorded result in EXPERIMENTS.md depends on it.
func Derive(seed uint64, stream string) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * fnvPrime
	}
	return mix(seed + h)
}

// Derive2 is Derive for indexed stream families: the same named stream
// fanned out over two integer indices (e.g. one jitter stream per
// (node, port) pair) without building a per-index name string, so
// constructing thousands of streams at network build time costs no
// allocations. Pinned by goldens alongside Derive.
func Derive2(seed uint64, stream string, a, b int) uint64 {
	z := Derive(seed, stream)
	z = mix(z + uint64(int64(a))*0x9e3779b97f4a7c15)
	return mix(z + uint64(int64(b))*0x9e3779b97f4a7c15)
}

// mix is the SplitMix64 finalizer, the avalanche at the heart of Derive.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is an allocation-free SplitMix64 sequence for hot paths that
// cannot afford a heap-allocated *rand.Rand per consumer (per-port link
// jitter). The zero value is a valid stream seeded at 0; construct real
// streams from Derive/Derive2 output.
type Stream uint64

// Next advances the stream and returns the next 64-bit value.
func (s *Stream) Next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63n returns a value in [0, n). Like the rest of this package the
// contract is determinism, not statistical perfection: the modulo bias at
// data-center jitter magnitudes (n ≪ 2⁶³) is unmeasurable.
func (s *Stream) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive bound")
	}
	return int64((s.Next() >> 1) % uint64(n))
}
