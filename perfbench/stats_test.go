package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{5000, 99}, {1000, 99}, {999, 90}, {100, 90}, {99, 50}, {20, 50}, {1, 50},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := int(tailPercentile(c.n)); p != 50 && c.n*(100-p) < minBeyond*100 {
			t.Errorf("n=%d: p%v leaves fewer than %d samples beyond", c.n, p, minBeyond)
		}
	}
}

func TestSummarizeReportsCountAndPercentiles(t *testing.T) {
	var v []float64
	for i := 1000; i >= 1; i-- { // unsorted input
		v = append(v, float64(i))
	}
	s := summarize(v)
	if s.N != 1000 || s.TailPc != 99 {
		t.Fatalf("N=%d TailPc=%v, want 1000 and 99", s.N, s.TailPc)
	}
	if math.Abs(s.P50-500.5) > 1e-9 || math.Abs(s.Tail-990.01) > 1e-9 || math.Abs(s.Mean-500.5) > 1e-9 {
		t.Fatalf("P50=%v Tail=%v Mean=%v", s.P50, s.Tail, s.Mean)
	}
	if v[0] != 1000 {
		t.Fatal("summarize sorted its input in place")
	}
	if e := summarize(nil); e.N != 0 {
		t.Fatalf("empty summary N=%d", e.N)
	}
}

func TestReconcileArithmetic(t *testing.T) {
	if got := reconcileErr(100, 60, 30, 10); got != 0 {
		t.Errorf("exact split: residual %v", got)
	}
	if got := reconcileErr(100, 60, 30); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("10%% missing: residual %v", got)
	}
	if got := reconcileErr(100, 70, 40); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("10%% over: residual %v", got)
	}
	if got := containErr(100, 40, 50); got != 0 {
		t.Errorf("parts inside whole: %v", got)
	}
	if got := containErr(100, 80, 40); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("parts overflow whole by 20%%: %v", got)
	}
	if !math.IsInf(reconcileErr(0, 1), 1) || !math.IsInf(containErr(0, 1), 1) {
		t.Error("an empty whole must never reconcile")
	}
}

func TestOverheadFrac(t *testing.T) {
	if got := overheadFrac(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("traced 10%% slower: %v", got)
	}
	if got := overheadFrac(100, 0); got != 0 {
		t.Errorf("no traced work: %v", got)
	}
}

func TestTracedPhasesCancelDrift(t *testing.T) {
	start := time.Unix(100, 0)
	p := &phases{start: start, window: 4 * time.Second, n: tracePhases}
	want := []bool{false, true, true, false, false}
	for i, w := range want {
		at := start.Add(time.Duration(i)*time.Second + 500*time.Millisecond)
		if got := p.tracedAt(at); got != w {
			t.Errorf("second %d: traced %v, want %v", i, got, w)
		}
	}
	untraced := &phases{start: start, window: 4 * time.Second, n: 1}
	if untraced.tracedAt(start.Add(1500 * time.Millisecond)) {
		t.Error("an untraced run has no traced phase")
	}
}
