// Package quicktest gives testing/quick property tests a seeded input
// stream, so a failure replays. Import it from _test.go files only.
//
// Every property draws from rng.New(seed, "quick/"+t.Name()): the same
// seed gives each test the same inputs on every run, and distinct tests
// distinct inputs. The seed is 1 unless the environment variable
// DIBS_QUICK_SEED sets it; a failing test logs the seed it ran with, so
//
//	DIBS_QUICK_SEED=<seed> go test -run '^TestName$' ./internal/pkg
//
// reproduces the failure, and any other seed explores other inputs.
package quicktest

import (
	"os"
	"strconv"
	"testing"
	"testing/quick"

	"dibs/internal/rng"
)

const (
	seedEnv     = "DIBS_QUICK_SEED"
	defaultSeed = 1
)

// seed returns the seed property tests run with: seedEnv's value, or
// defaultSeed when it is unset. A value that is not an integer fails t.
func seed(t testing.TB) int64 {
	v := os.Getenv(seedEnv)
	if v == "" {
		return defaultSeed
	}
	s, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("%s=%q: not an integer seed", seedEnv, v)
	}
	return s
}

// Config returns a quick.Config of maxCount cases (0 keeps quick's
// default) drawing from t's seeded stream, and has t log the seed if it
// fails.
func Config(t testing.TB, maxCount int) *quick.Config {
	t.Helper()
	s := seed(t)
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("quick inputs drawn with seed %d; replay with %s=%d", s, seedEnv, s)
		}
	})
	return &quick.Config{MaxCount: maxCount, Rand: rng.New(s, "quick/"+t.Name())}
}
