package runner

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapIndexesResults(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 64} {
		got := Map(workers, 50, func(i int) int { return i * i })
		if len(got) != 50 {
			t.Fatalf("workers=%d: len = %d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := Map(4, 0, func(i int) int { return i }); got != nil {
		t.Fatalf("n=0 should return nil, got %v", got)
	}
	if got := Map(4, -3, func(i int) int { return i }); got != nil {
		t.Fatalf("n<0 should return nil, got %v", got)
	}
}

func TestMapEachIndexOnce(t *testing.T) {
	const n = 200
	var counts [n]atomic.Int32
	Map(8, n, func(i int) struct{} {
		counts[i].Add(1)
		return struct{}{}
	})
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

func TestMapSerialOnCallingGoroutine(t *testing.T) {
	// workers<=1 must not spawn: the serial path is the reference the
	// parallel path is tested against, and callers may rely on
	// goroutine-local state (e.g. testing.T) in that mode.
	var ids []int
	Map(1, 5, func(i int) struct{} {
		ids = append(ids, i) // safe only if single-goroutine and in order
		return struct{}{}
	})
	for i, v := range ids {
		if v != i {
			t.Fatalf("serial path out of order: %v", ids)
		}
	}
}

func TestMapPanicLowestIndex(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Map should re-panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "run 3 panicked: boom 3") {
			t.Fatalf("panic = %v, want lowest failing index 3", r)
		}
	}()
	Map(4, 20, func(i int) int {
		if i == 3 || i == 11 || i == 17 {
			panic("boom " + string(rune('0'+i%10)))
		}
		return i
	})
}

func TestDefaultWorkers(t *testing.T) {
	if got := defaultWorkers(5); got != 5 {
		t.Fatalf("defaultWorkers(5) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := defaultWorkers(0); got != want {
		t.Fatalf("defaultWorkers(0) = %d, want %d", got, want)
	}
	if got := defaultWorkers(-1); got != want {
		t.Fatalf("defaultWorkers(-1) = %d, want %d", got, want)
	}
}
