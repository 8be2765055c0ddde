package main

import (
	"bytes"
	"testing"
)

func TestSameSeedSameDigests(t *testing.T) {
	set := func(seed uint64) [][]byte {
		g := newGen(seed)
		var sums [][]byte
		for _, f := range g.fileSet("in", 0, 1, 9*mib, 4, 2*mib) {
			sums = append(sums, g.digest(f))
		}
		return sums
	}
	a, b, c := set(7), set(7), set(8)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("file %d: seed 7 gave two digests", i)
		}
		if bytes.Equal(a[i], c[i]) {
			t.Fatalf("file %d: seeds 7 and 8 gave the same digest", i)
		}
	}
}

func TestSplitKeepsTotal(t *testing.T) {
	g := newGen(3)
	var sum int64
	for _, n := range g.split(96*mib, 3, 0.25) {
		sum += n
	}
	if sum != 96*mib {
		t.Fatalf("split sums to %d", sum)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	vals := make([]float64, 999)
	for i := range vals {
		vals[i] = float64(i)
	}
	if _, ok := quantile(vals, 0.99); ok {
		t.Fatal("p99 of 999 samples reported: fewer than 10 lie beyond it")
	}
	if v, ok := quantile(append(vals, 999), 0.99); !ok || v != 989 {
		t.Fatalf("p99 of 1000 samples = %v, %v; want 989, true", v, ok)
	}
	if _, ok := quantile(vals[:3], 0.5); !ok {
		t.Fatal("median withheld")
	}
}

func TestUnion(t *testing.T) {
	if got := union([]interval{{5, 8}, {0, 2}, {1, 3}, {7, 9}}); got != 7 {
		t.Fatalf("union = %d, want 7", got)
	}
}

// quick runs a short workload with the given faults.
func quick(t *testing.T, workload string, trace bool, f faults) *result {
	t.Helper()
	o := &options{workload: workload, seed: 5, seconds: 0.05, trace: trace, out: t.TempDir(), faults: f, minTasks: 1}
	res, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted == 0 {
		t.Fatal("nothing attempted")
	}
	return res
}

func TestCleanRunsAreCorrect(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			if res := quick(t, w, false, faults{}); !res.Correct || res.Failed != 0 {
				t.Fatalf("clean run: correct=%v failed=%d", res.Correct, res.Failed)
			}
		})
	}
}

func TestTracedRunsAreCorrect(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res := quick(t, w, true, faults{})
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: correct=%v failed=%d", res.Correct, res.Failed)
			}
			if _, ok := res.Metrics["trace.overhead_pct"]; !ok {
				t.Fatal("traced run printed no tracing overhead")
			}
		})
	}
}

func TestFlippedByteMakesRunIncorrect(t *testing.T) {
	for _, w := range []string{"stage-in", "task-storm"} {
		if res := quick(t, w, false, faults{flipByte: true}); res.Correct {
			t.Fatalf("%s: a staged file with one flipped byte passed the checks", w)
		}
	}
}

func TestHiddenTerminalEventMakesRunIncorrect(t *testing.T) {
	for _, w := range []string{"stage-out", "task-storm"} {
		if res := quick(t, w, false, faults{hideTerminal: true}); res.Correct {
			t.Fatalf("%s: a hidden terminal event passed the checks", w)
		}
	}
}
