package main

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

func TestCoverageMatchesTraceCountToAckedBundles(t *testing.T) {
	// Preload of 100; versions 2..4 hold 102, 103 and 106 bundles.
	corpus := map[int64]int{1: 100, 2: 102, 3: 103, 4: 106}
	rec := []receipt{{version: 2}, {version: 3}, {version: 4}}
	got := coverage(100, 7, rec, func(v int64) int { return corpus[v] })
	// Bundles 1-2 first appear in v2, 3 in v3, 4-6 in v4, 7 never.
	want := []int{0, 0, 1, 2, 2, 2, -1}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("coverage = %v, want %v", got, want)
		}
	}
}

func TestCoverageSkipsVersionsTheWatcherMissed(t *testing.T) {
	// The watcher saw only v4: every bundle is charged to it.
	corpus := map[int64]int{4: 13}
	got := coverage(10, 3, []receipt{{version: 4}}, func(v int64) int { return corpus[v] })
	for k, r := range got {
		if r != 0 {
			t.Fatalf("bundle %d covered by receipt %d, want 0", k, r)
		}
	}
}

// fakeClock is a manual clock for the open-loop generator.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) sleep(d time.Duration)   { c.t = c.t.Add(d) }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	start := clk.t
	dues := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 500 * time.Millisecond}
	// The first send stalls 100ms (a flush holding the serving lock);
	// the others take 1ms.
	cost := []time.Duration{100 * time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond}
	fail := errors.New("rejected")
	out := openLoop(start, dues, func(i int) error {
		clk.advance(cost[i])
		if i == 3 {
			return fail
		}
		return nil
	}, clk.now, clk.sleep)

	wantAck := []time.Duration{100, 101, 102, 501} // ms after start
	for i, s := range out {
		if got := s.ack.Sub(start); got != wantAck[i]*time.Millisecond {
			t.Errorf("arrival %d acked at %v, want %v", i, got, wantAck[i]*time.Millisecond)
		}
		if s.due != start.Add(dues[i]) {
			t.Errorf("arrival %d due %v", i, s.due.Sub(start))
		}
		if s.late != 0 {
			t.Errorf("arrival %d: generator late %v, want 0 (it sent as soon as it could)", i, s.late)
		}
	}
	// Queued behind the stall, arrival 1 waited 91ms from its due time.
	if lat := out[1].ack.Sub(out[1].due); lat != 91*time.Millisecond {
		t.Errorf("arrival 1 latency from due %v, want 91ms", lat)
	}
	if out[2].dispatch != start.Add(101*time.Millisecond) {
		t.Errorf("arrival 2 dispatched at %v, want right after the previous ack", out[2].dispatch.Sub(start))
	}
	if !errors.Is(out[3].err, fail) {
		t.Errorf("arrival 3 error %v, want the send error", out[3].err)
	}
}

func TestOpenLoopReportsGeneratorLateness(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	start := clk.t
	// A sleep that oversleeps by 3ms: the generator itself is late.
	oversleep := func(d time.Duration) { clk.advance(d + 3*time.Millisecond) }
	out := openLoop(start, []time.Duration{50 * time.Millisecond}, func(int) error {
		clk.advance(time.Millisecond)
		return nil
	}, clk.now, oversleep)
	if out[0].late != 3*time.Millisecond {
		t.Fatalf("late = %v, want 3ms", out[0].late)
	}
}

func TestScheduleSendsSeparatedBursts(t *testing.T) {
	window := 10 * time.Second
	dues, hot, burst := schedule(rand.New(rand.NewSource(1)), window)
	nb := bursts(window)
	if nb != 5 {
		t.Fatalf("%d bursts in %v, want 5", nb, window)
	}
	if len(dues) != nb*freshBurstSize || len(hot) != len(dues) || len(burst) != len(dues) {
		t.Fatalf("%d arrivals, want %d", len(dues), nb*freshBurstSize)
	}
	perBurst := make([]int, nb)
	hotPerBurst := make([]int, nb)
	for i, d := range dues {
		if i > 0 && d < dues[i-1] {
			t.Fatalf("arrival %d at %v before arrival %d at %v", i, d, i-1, dues[i-1])
		}
		start := time.Duration(burst[i]) * freshBurstEvery
		if d < start || d >= start+freshBurstSpan || d >= window {
			t.Fatalf("arrival %d at %v outside burst %d", i, d, burst[i])
		}
		perBurst[burst[i]]++
		if hot[i] {
			hotPerBurst[burst[i]]++
		}
	}
	for j := range perBurst {
		if perBurst[j] != freshBurstSize || hotPerBurst[j] != freshBurstHot {
			t.Errorf("burst %d: %d arrivals (%d hot), want %d (%d)", j, perBurst[j], hotPerBurst[j], freshBurstSize, freshBurstHot)
		}
	}
	again, _, _ := schedule(rand.New(rand.NewSource(1)), window)
	for i := range dues {
		if dues[i] != again[i] {
			t.Fatal("the same seed gave a different schedule")
		}
	}
	if bursts(2*time.Second) != 1 {
		t.Error("a window shorter than the burst period must still hold one burst")
	}
}

// TestBurstGapLeavesTheDebounceQuiet pins the property the fresh
// schedule exists for: between bursts the serving layer's debounce
// timer runs out and a flush of the hot report ends before the next
// burst, so every burst is served by its own debounced flush.
func TestBurstGapLeavesTheDebounceQuiet(t *testing.T) {
	if gap := freshBurstEvery - freshBurstSpan; gap < freshDebounce+freshFlushBudget {
		t.Fatalf("quiet gap %v between bursts, want at least the debounce plus a flush (%v)", gap, freshDebounce+freshFlushBudget)
	}
}
