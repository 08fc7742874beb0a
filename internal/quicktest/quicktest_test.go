package quicktest

import (
	"testing"
	"testing/quick"
)

// draws returns the first n inputs Config's stream hands a property.
func draws(t *testing.T, n int) []int64 {
	var got []int64
	f := func(x int64) bool { got = append(got, x); return true }
	if err := quick.Check(f, Config(t, n)); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSameSeedSameInputs(t *testing.T) {
	t.Setenv(seedEnv, "")
	a, b := draws(t, 20), draws(t, 20)
	if len(a) != 20 {
		t.Fatalf("%d draws, want 20", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d: %d then %d under one seed", i, a[i], b[i])
		}
	}
}

func TestSeedEnvReplaysAndVaries(t *testing.T) {
	t.Setenv(seedEnv, "")
	def := draws(t, 5)
	t.Setenv(seedEnv, "1")
	if one := draws(t, 5); one[0] != def[0] {
		t.Fatalf("%s=1 drew %d, the default seed %d", seedEnv, one[0], def[0])
	}
	t.Setenv(seedEnv, "2")
	if two := draws(t, 5); two[0] == def[0] {
		t.Fatalf("%s=2 drew the default seed's first input %d", seedEnv, def[0])
	}
}

func TestStreamsDifferByTest(t *testing.T) {
	t.Setenv(seedEnv, "")
	var first [2]int64
	for i, name := range []string{"a", "b"} {
		t.Run(name, func(t *testing.T) { first[i] = draws(t, 1)[0] })
	}
	if first[0] == first[1] {
		t.Fatalf("subtests a and b drew the same input %d", first[0])
	}
}
