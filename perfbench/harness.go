package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// repeatSetup builds a workload's set-up setupRepeats times, tears down
// every copy but the last, and returns it with the median build time.
func repeatSetup[T any](build func() (T, error), teardown func(T)) (T, float64, error) {
	var env T
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(env)
			runtime.GC()
		}
		start := time.Now()
		e, err := build()
		if err != nil {
			var zero T
			return zero, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		env = e
	}
	return env, median(times), nil
}

// liveHeapMB forces a collection and returns the live heap in MiB.
// Callers quiesce background work first so nothing allocates meanwhile.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// procSample is a point-in-time reading of everything a traced phase
// diffs: Go runtime allocation and CPU accounting plus the program's own
// registry counters and histograms.
type procSample struct {
	allocBytes        float64
	gcCPU, totalCPU   float64
	ingestSum         float64 // collect_ingest_seconds
	ingestCount       float64
	clientRetries     float64
	analyses, notifys float64
	taskSum           float64 // parallel_task_seconds
	at                time.Time
}

var (
	hIngest   = obs.Default.Histogram("collect_ingest_seconds", "", nil)
	hTask     = obs.Default.Histogram("parallel_task_seconds", "", nil)
	cRetries  = obs.Default.Counter("collect_client_retries_total", "")
	cAnalyses = obs.Default.Counter("serve_analyses_total", "")
	cNotifies = obs.Default.Counter("serve_notifies_total", "")
)

// runtimeSamples are the runtime/metrics a phase diffs. The CPU classes
// count available CPU (GOMAXPROCS × wall), so gc/total is the share of
// the machine the collector took, as runtime.MemStats.GCCPUFraction.
var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProc() procSample {
	rs := make([]metrics.Sample, len(runtimeSamples))
	copy(rs, runtimeSamples)
	metrics.Read(rs)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return procSample{
		allocBytes:    val(rs[0]),
		gcCPU:         val(rs[1]),
		totalCPU:      val(rs[2]),
		ingestSum:     hIngest.Sum(),
		ingestCount:   float64(hIngest.Count()),
		clientRetries: float64(cRetries.Value()),
		analyses:      float64(cAnalyses.Value()),
		notifys:       float64(cNotifies.Value()),
		taskSum:       hTask.Sum(),
		at:            time.Now(),
	}
}

// sub returns the field-wise difference a-b.
func (a procSample) sub(b procSample) procSample {
	return procSample{
		allocBytes:    a.allocBytes - b.allocBytes,
		gcCPU:         a.gcCPU - b.gcCPU,
		totalCPU:      a.totalCPU - b.totalCPU,
		ingestSum:     a.ingestSum - b.ingestSum,
		ingestCount:   a.ingestCount - b.ingestCount,
		clientRetries: a.clientRetries - b.clientRetries,
		analyses:      a.analyses - b.analyses,
		notifys:       a.notifys - b.notifys,
		taskSum:       a.taskSum - b.taskSum,
	}
}

func (a procSample) add(b procSample) procSample {
	neg := procSample{}.sub(b)
	return a.sub(neg)
}

// phases cuts a timed window into untraced and traced slices; an
// untraced run has one untraced phase. The harness-side wrappers read
// Traced() on every call, so one set-up serves both kinds of phase and
// the overhead of tracing is the difference between them.
type phases struct {
	start  time.Time
	window time.Duration
	n      int

	traced atomic.Bool

	mu       sync.Mutex
	tracedD  procSample    // summed deltas over traced phases
	tracedT  time.Duration // summed traced wall time
	untraceT time.Duration
	stop     chan struct{}
	done     chan struct{}
}

// tracePhases is how many phases a traced run's window is cut into.
const tracePhases = 4

// tracedPhase reports whether phase i of a traced run is traced. The
// order untraced, traced, traced, untraced cancels a linear drift
// across the window out of the traced-versus-untraced comparison.
func tracedPhase(i int) bool { return i == 1 || i == 2 }

// startPhases begins the timed window now.
func startPhases(window time.Duration, traced bool) *phases {
	p := &phases{start: time.Now(), window: window, n: 1,
		stop: make(chan struct{}), done: make(chan struct{})}
	if !traced {
		close(p.done)
		return p
	}
	p.n = tracePhases
	go p.loop()
	return p
}

func (p *phases) loop() {
	defer close(p.done)
	slice := p.window / time.Duration(p.n)
	last := sampleProc()
	lastAt := p.start
	for i := 1; ; i++ {
		var wait <-chan time.Time
		if i < p.n {
			wait = time.After(time.Until(p.start.Add(time.Duration(i) * slice)))
		}
		select {
		case <-wait:
		case <-p.stop:
		}
		now := sampleProc()
		wasTraced := p.traced.Load()
		p.mu.Lock()
		if wasTraced {
			p.tracedD = p.tracedD.add(now.sub(last))
			p.tracedT += now.at.Sub(lastAt)
		} else {
			p.untraceT += now.at.Sub(lastAt)
		}
		p.mu.Unlock()
		last, lastAt = now, now.at
		if i >= p.n || isClosed(p.stop) {
			p.traced.Store(false)
			return
		}
		p.traced.Store(tracedPhase(i))
	}
}

func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// Traced reports whether the current phase is traced.
func (p *phases) Traced() bool { return p.traced.Load() }

// Deadline is the end of the timed window.
func (p *phases) Deadline() time.Time { return p.start.Add(p.window) }

// tracedAt reports whether an operation starting at t fell in a traced
// phase (by the phase schedule).
func (p *phases) tracedAt(t time.Time) bool {
	if p.n == 1 {
		return false
	}
	i := int(t.Sub(p.start) / (p.window / time.Duration(p.n)))
	return i < p.n && tracedPhase(i)
}

// Finish stops the phase clock (at the end of the window or when the
// workload stops early) and returns the traced deltas and durations.
func (p *phases) Finish() (traced procSample, tracedT, untracedT time.Duration) {
	if p.n > 1 && !isClosed(p.stop) {
		close(p.stop)
	}
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tracedD, p.tracedT, p.untraceT
}

// recorder collects duration samples (in the unit the caller chooses)
// from concurrent goroutines.
type recorder struct {
	mu sync.Mutex
	v  []float64
}

func (r *recorder) add(x float64) {
	r.mu.Lock()
	r.v = append(r.v, x)
	r.mu.Unlock()
}

func (r *recorder) values() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.v...)
}

// ms and us convert durations to float milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// overheadFrac is how much slower the traced phases ran than the
// untraced ones, from per-phase throughputs (higher is better).
func overheadFrac(untracedRate, tracedRate float64) float64 {
	if tracedRate <= 0 {
		return 0
	}
	return untracedRate/tracedRate - 1
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
