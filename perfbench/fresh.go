package main

// Workload "fresh": open loop. Uploads arrive in bursts on one uploader
// connection; one watcher connection long-polls the hot app's report
// with If-None-Match, the way a dashboard or `energydx -watch` reads it.
// The hot K9Mail app is preloaded with a 10,000-session corpus (served
// report ≈ 41 MB) and receives most arrivals; a tail of small apps
// receives the rest.
//
// The arrival pattern follows from the serving layer's schedule at
// collectd's defaults: one debounce timer per shard, pushed back by
// every Notify on that shard (500 ms quiet period), and a flush forced
// once arrivals have kept it dirty for MaxDelay (5 s). A steady stream
// faster than one arrival per debounce never leaves the timer quiet, so
// every flush waits out MaxDelay and freshness measures that timer, not
// the report, marshal and publish work. Bursts separated by a quiet gap
// longer than the debounce plus one flush make each burst set off
// exactly one debounced flush, so a bundle's freshness is its wait for
// the rest of its burst, the debounce, the incremental report, and the
// marshal, hash, install and delivery of the served report. The run
// checks that property: every burst must be served as its own version,
// or the run is invalid.
//
// Why: serve scheduling, report materialization, marshal, hash and
// publish, plus the core incremental report, dominate here; seglog and
// collect are lightly loaded, and the watcher puts reads beside the
// writes on the same serve lock.
// Loads: serve, core (incremental), collect and seglog lightly, go.
// Bypasses: revision, parallel, trace decode of JSONL.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/collect"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

const (
	freshHotSessions = 10000 // preloaded hot-app corpus
	// freshDebounce is the serving layer's quiet period at collectd's
	// default (-analysis-debounce 500ms), which the benchmark keeps.
	freshDebounce = 500 * time.Millisecond
	// freshFlushBudget covers one flush of the hot report: incremental
	// report, marshal, hash, install and delivery, 0.5–1 s on a 2-CPU
	// machine.
	freshFlushBudget = time.Second
	// A burst is freshBurstSize uploads, freshBurstHot of them to the hot
	// app, spread over freshBurstSpan. One burst starts every
	// freshBurstEvery, which leaves a quiet gap longer than the debounce
	// plus a flush, so each burst's flush is over before the next burst.
	// Most uploads are hot, so most of them are freshness samples; the
	// rest go to one of freshTailApps small apps, which rarely repeat, so
	// some flushes also analyze a newly dirty small app beside the hot one.
	freshBurstSize  = 10
	freshBurstHot   = 8
	freshBurstSpan  = 100 * time.Millisecond
	freshBurstEvery = 2 * time.Second
	freshTailApps   = 200
	// freshLateLimit is how far behind schedule the generator itself may
	// run (p99) before the run is invalid.
	freshLateLimit = 50 * time.Millisecond
	// freshDrain bounds the wait, after the last arrival, for the
	// watcher to see a report covering every acked hot bundle.
	freshDrain = 30 * time.Second
	// freshStall separates an upload that waited behind a flush from
	// one that did not.
	freshStall = 50 * time.Millisecond
)

// freshEnv is one set-up of the fresh workload.
type freshEnv struct {
	sys     *system
	debug   *obs.DebugServer
	hot     string
	preload []*trace.TraceBundle
	// arrivals in schedule order with their due offsets.
	arrivals []arrival
}

type arrival struct {
	due   time.Duration
	b     *trace.TraceBundle
	hot   bool
	burst int
}

// hotCorpus generates n light K9Mail sessions (few browse phases,
// coarse sampling: the shape of the repository's corpus-size sweep) in
// two seeded halves, one per CPU.
func hotCorpus(app *apps.App, seed int64, n int) ([]*trace.TraceBundle, error) {
	halves := [2][]*trace.TraceBundle{}
	errs := [2]error{}
	var wg sync.WaitGroup
	for h := 0; h < 2; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			cfg := workload.DefaultConfig(app, seed*2+int64(h))
			cfg.Users = (n + 1 - h) / 2
			cfg.ImpactedFraction = 0.2
			cfg.BrowsePhases = 3
			cfg.SamplePeriodMS = 2000
			res, err := workload.Generate(cfg)
			if err != nil {
				errs[h] = err
				return
			}
			halves[h] = res.Bundles
		}(h)
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		return nil, err
	}
	return append(halves[0], halves[1]...), nil
}

func buildFresh(opts options, hotN int, window time.Duration) (*freshEnv, error) {
	app, err := apps.K9Mail()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	dues, isHot, burst := schedule(rng, window)
	hotLive := 0
	for _, h := range isHot {
		if h {
			hotLive++
		}
	}
	corpus, err := hotCorpus(app, opts.Seed, hotN+hotLive)
	if err != nil {
		return nil, err
	}
	env := &freshEnv{hot: app.AppID, preload: corpus[:hotN]}
	live := corpus[hotN:]
	for i, d := range dues {
		a := arrival{due: d, hot: isHot[i], burst: burst[i]}
		if a.hot {
			a.b, live = live[0], live[1:]
		} else {
			tail := fmt.Sprintf("tail%03d", rng.Intn(freshTailApps))
			a.b = tinySession(tail, fmt.Sprintf("tu%d", i), rng)
		}
		env.arrivals = append(env.arrivals, a)
	}

	sys, err := newSystem(fmt.Sprintf("%s/fresh-%d", opts.Dir, time.Now().UnixNano()), opts.Trace)
	if err != nil {
		return nil, err
	}
	env.sys = sys
	mux := obs.DebugMux(obs.Default, obs.NewHealth())
	mux.Handle("/analysis/", sys.fan.Handler())
	env.debug, err = obs.ServeDebug("127.0.0.1:0", obs.Default.InstrumentHTTP(mux, nil))
	if err != nil {
		sys.close()
		return nil, err
	}
	// Preload: the warm-up collectd runs over a restored store — every
	// bundle offered to the owning serving layer, then one flush.
	svc := sys.svcFor(env.hot)
	for _, b := range env.preload {
		svc.Notify(b)
	}
	svc.Flush()
	return env, nil
}

func (e *freshEnv) close() {
	if e.debug != nil {
		e.debug.Close()
	}
	e.sys.close()
}

// bursts is how many whole bursts fit in the window (at least one).
func bursts(window time.Duration) int {
	return max(1, int((window-freshBurstSpan)/freshBurstEvery)+1)
}

// schedule draws the open-loop arrival times: burst j starts at
// j·freshBurstEvery and holds freshBurstSize arrivals at uniform times
// within freshBurstSpan (a Poisson burst conditioned on its count),
// freshBurstHot of them, chosen at random, to the hot app. It returns
// the due offsets in order, the hot flags, and each arrival's burst.
func schedule(rng *rand.Rand, window time.Duration) ([]time.Duration, []bool, []int) {
	var dues []time.Duration
	var hot []bool
	var burst []int
	for j := 0; j < bursts(window); j++ {
		start := time.Duration(j) * freshBurstEvery
		times := make([]time.Duration, freshBurstSize)
		for i := range times {
			times[i] = start + time.Duration(rng.Int63n(int64(freshBurstSpan)))
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		flags := make([]bool, freshBurstSize)
		for i := 0; i < freshBurstHot; i++ {
			flags[i] = true
		}
		rng.Shuffle(len(flags), func(i, j int) { flags[i], flags[j] = flags[j], flags[i] })
		dues = append(dues, times...)
		hot = append(hot, flags...)
		for range times {
			burst = append(burst, j)
		}
	}
	return dues, hot, burst
}

// sent is one arrival's fate on the uploader.
type sent struct {
	hot      bool
	due      time.Time
	dispatch time.Time
	ack      time.Time
	late     time.Duration // generator lateness: dispatch − max(due, previous ack)
	err      error
}

// openLoop sends arrival i at start+dues[i] (dues ascending) on one
// connection: a send that comes due while the previous one still waits
// for its ack goes out as soon as that ack arrives. Latency is counted
// from the due time, so a stall charges every arrival queued behind it;
// late is the generator's own delay past the moment it could have sent.
func openLoop(start time.Time, dues []time.Duration, send func(i int) error,
	now func() time.Time, sleep func(time.Duration)) []sent {
	out := make([]sent, len(dues))
	prevAck := start
	for i, d := range dues {
		due := start.Add(d)
		if wait := due.Sub(now()); wait > 0 {
			sleep(wait)
		}
		s := sent{due: due, dispatch: now()}
		ready := due
		if prevAck.After(ready) {
			ready = prevAck
		}
		s.late = s.dispatch.Sub(ready)
		s.err = send(i)
		s.ack = now()
		prevAck = s.ack
		out[i] = s
	}
	return out
}

// receipt is one report version the watcher received.
type receipt struct {
	at      time.Time
	version int64
	bytes   int
	sum     [32]byte
}

// receiptLog is the watcher's record, read by the harness while the
// watcher appends.
type receiptLog struct {
	mu sync.Mutex
	r  []receipt
}

func (l *receiptLog) add(r receipt) {
	l.mu.Lock()
	l.r = append(l.r, r)
	l.mu.Unlock()
}

func (l *receiptLog) all() []receipt {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]receipt(nil), l.r...)
}

// watch long-polls app's report until ctx ends, recording every new
// version it receives. Bodies are read into one reused buffer, so the
// watcher, which shares the process with the serving layer, adds no
// garbage of the report's size per version.
func watch(ctx context.Context, addr, app string, out *receiptLog) error {
	client := &http.Client{}
	etag := ""
	var body bytes.Buffer
	url := fmt.Sprintf("http://%s/analysis/report?app=%s&wait=30s", addr, app)
	for ctx.Err() == nil {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		resp, err := client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		body.Reset()
		if resp.ContentLength > 0 {
			body.Grow(int(resp.ContentLength))
		}
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		at := time.Now()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		switch resp.StatusCode {
		case http.StatusNotModified:
			continue
		case http.StatusOK:
		default:
			return fmt.Errorf("watch: %s: %s", resp.Status, body.Bytes())
		}
		v, err := strconv.ParseInt(resp.Header.Get("X-Analysis-Version"), 10, 64)
		if err != nil {
			return fmt.Errorf("watch: version header: %w", err)
		}
		etag = resp.Header.Get("ETag")
		out.add(receipt{at: at, version: v, bytes: body.Len(), sum: sha256.Sum256(body.Bytes())})
	}
	return nil
}

// coverage pairs each acked hot bundle with the first received report
// that includes it: the k-th hot ack (0-based) is covered by a version
// whose corpus holds at least base+k+1 bundles. It returns, per bundle,
// the index of that receipt or -1 when none covers it.
func coverage(base int, hotAcks int, rec []receipt, corpusOf func(version int64) int) []int {
	out := make([]int, hotAcks)
	r := 0
	for k := range out {
		need := base + k + 1
		for r < len(rec) && corpusOf(rec[r].version) < need {
			r++
		}
		if r == len(rec) {
			out[k] = -1
			continue
		}
		out[k] = r
	}
	return out
}

func runFresh(opts options) (*outcome, error) {
	hotN := freshHotSessions
	if opts.Smoke {
		hotN = 200
	}
	env, setupS, err := repeatSetup(func() (*freshEnv, error) { return buildFresh(opts, hotN, opts.Window) },
		func(e *freshEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer env.close()
	sys := env.sys
	svc := sys.svcFor(env.hot)
	v0, ok := svc.History(env.hot)
	if !ok || len(v0) != 1 {
		return nil, fmt.Errorf("preload installed %d versions, want 1", len(v0))
	}

	appends0, commits0 := sys.logStats()
	before := sampleProc()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var rlog receiptLog
	watchErr := make(chan error, 1)
	go func() { watchErr <- watch(ctx, env.debug.Addr(), env.hot, &rlog) }()
	// The watcher's first read is the preload's report; let it finish
	// before the window so the first burst does not share the CPU with it.
	for firstBy := time.Now().Add(freshDrain); len(rlog.all()) == 0; {
		if time.Now().After(firstBy) {
			return nil, errors.New("watcher received no report before the window")
		}
		select {
		case err := <-watchErr:
			return nil, fmt.Errorf("watcher stopped before the window: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
	}

	ph := startPhases(opts.Window, opts.Trace)
	if sys.tap != nil {
		sys.tap.ph.Store(ph)
	}
	client := collect.NewClient(sys.ss.Addr(), collect.WithBinary(), collect.WithJitterSeed(opts.Seed))
	state := collect.PhoneState{Charging: true, OnWiFi: true}
	dues := make([]time.Duration, len(env.arrivals))
	for i, a := range env.arrivals {
		dues[i] = a.due
	}
	sents := openLoop(ph.start, dues, func(i int) error {
		return client.Upload(state, []*trace.TraceBundle{env.arrivals[i].b})
	}, time.Now, time.Sleep)
	for i := range sents {
		sents[i].hot = env.arrivals[i].hot
	}
	lastAck := sents[len(sents)-1].ack
	ph.Finish()
	if sys.tap != nil {
		sys.tap.ph.Store(nil)
	}

	// Snapshot metadata per version: corpus size, AnalyzedAt, WallMillis.
	type snapInfo struct {
		corpus   int
		analyzed time.Time
		wall     time.Duration
	}
	snaps := map[int64]snapInfo{}
	refresh := func() error {
		hist, _ := svc.History(env.hot)
		for _, s := range hist {
			t, err := time.Parse(time.RFC3339Nano, s.AnalyzedAt)
			if err != nil {
				return fmt.Errorf("snapshot %d: analyzedAt: %w", s.Version, err)
			}
			snaps[s.Version] = snapInfo{
				corpus:   s.Summary.TotalTraces + s.Summary.Skipped,
				analyzed: t,
				wall:     time.Duration(s.WallMillis * float64(time.Millisecond)),
			}
		}
		return nil
	}
	hotAcked := 0
	var failed int64
	for _, s := range sents {
		if s.err != nil {
			failed++
		} else if s.hot {
			hotAcked++
		}
	}
	want := hotN + hotAcked
	// Wait for the watcher to see a report covering every acked hot
	// bundle (the debounce fires once arrivals stop).
	drainEnd := time.Now().Add(freshDrain)
	for {
		if err := refresh(); err != nil {
			return nil, err
		}
		rs := rlog.all()
		seen := len(rs) > 0 && snaps[rs[len(rs)-1].version].corpus >= want
		if seen || time.Now().After(drainEnd) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	if err := <-watchErr; err != nil {
		return nil, err
	}
	receipts := rlog.all()
	if err := refresh(); err != nil {
		return nil, err
	}
	delta := sampleProc().sub(before)
	sys.fan.Flush() // no flush may run while the heap is measured
	heap := liveHeapMB()

	// Per hot bundle: fresh = receipt − ack, split at AnalyzedAt−Wall
	// (the flush start) and AnalyzedAt (the report done).
	var hotSents []sent
	var hotBurst []int
	for i, s := range sents {
		if s.hot && s.err == nil {
			hotSents = append(hotSents, s)
			hotBurst = append(hotBurst, env.arrivals[i].burst)
		}
	}
	cov := coverage(hotN, len(hotSents), receipts, func(v int64) int { return snaps[v].corpus })
	var freshMS, schedMS, incrMS, pubMS, residual []float64
	var missed int64
	nb := bursts(opts.Window)
	perBurst, perBurstPub := make([][]float64, nb), make([][]float64, nb)
	for k, r := range cov {
		if r < 0 {
			missed++
			continue
		}
		rc := receipts[r]
		si := snaps[rc.version]
		ack := hotSents[k].ack.Round(0) // wall clock, comparable with AnalyzedAt
		f := rc.at.Sub(hotSents[k].ack)
		sched := si.analyzed.Add(-si.wall).Sub(ack)
		pub := rc.at.Round(0).Sub(si.analyzed)
		freshMS = append(freshMS, ms(f))
		perBurst[hotBurst[k]] = append(perBurst[hotBurst[k]], ms(f))
		perBurstPub[hotBurst[k]] = append(perBurstPub[hotBurst[k]], ms(pub))
		schedMS = append(schedMS, ms(sched))
		incrMS = append(incrMS, ms(si.wall))
		pubMS = append(pubMS, ms(pub))
		residual = append(residual, ms(f-sched-si.wall-pub))
	}
	out := &outcome{Attempted: int64(len(sents)), Failed: failed + missed}
	if len(freshMS) == 0 {
		return nil, errors.New("no hot bundle was observed in a served report")
	}
	// Validity: burst j was served as version j+2 (the preload is
	// version 1), so every flush was set off by the debounce after its
	// own burst, not by MaxDelay or by a flush that ran into the next
	// burst. Otherwise freshness measures the timer, and the run is
	// invalid.
	for k, r := range cov {
		if want := int64(hotBurst[k]) + 2; r >= 0 && receipts[r].version != want {
			return nil, fmt.Errorf("invalid run: a bundle of burst %d was first served in version %d, want %d: the bursts did not each get their own debounced flush",
				hotBurst[k], receipts[r].version, want)
		}
	}
	hist, _ := svc.History(env.hot)
	if got := hist[len(hist)-1].Version - 1; got != int64(nb) {
		return nil, fmt.Errorf("invalid run: %d bursts installed %d versions of the hot report, want one each", nb, got)
	}
	var bs []string
	for j, f := range perBurst {
		si := snaps[int64(j)+2]
		bs = append(bs, fmt.Sprintf("%.0f/%.0f/%.0f", median(f), ms(si.wall), median(perBurstPub[j])))
	}
	out.note("per burst, fresh p50 / incremental report / publish p50 ms: %s", strings.Join(bs, " "))

	// Output check: the final served report (and the bytes the watcher
	// received for it) equal batch analysis of preload + acked corpus.
	if err := sameAsBatch(sys, env.hot, env.preload, hotAcked); err != nil {
		return nil, err
	}
	final, _, _ := svc.AppReport(env.hot)
	fb, err := json.Marshal(final)
	if err != nil {
		return nil, err
	}
	if last := receipts[len(receipts)-1]; missed == 0 && last.sum != sha256.Sum256(fb) {
		return nil, fmt.Errorf("watcher's last body (%d bytes) differs from the final served report (%d bytes)", last.bytes, len(fb))
	}

	var ackMS, lateMS []float64
	for _, s := range sents {
		if s.err == nil {
			ackMS = append(ackMS, ms(s.ack.Sub(s.due)))
		}
		lateMS = append(lateMS, ms(s.late))
	}
	late := summarize(lateMS)
	if late.Tail > ms(freshLateLimit) {
		return nil, fmt.Errorf("invalid run: generator ran p%g %.1fms behind schedule (limit %v)", late.TailPc, late.Tail, freshLateLimit)
	}
	out.GenLateMS = &late.Tail
	fr := summarize(freshMS)
	ack := summarize(ackMS)
	out.E2E = map[string]float64{
		"setup_s":        setupS,
		"ops_per_s":      float64(len(ackMS)) / lastAck.Sub(ph.start).Seconds(),
		"latency_p50_ms": fr.P50,
		"live_heap_mb":   heap,
	}
	out.note("ops_per_s: bundles acked per second of the window, set by the schedule unless the tier falls behind (%d bursts of %d every %v, %d arrivals, %d hot); one hot version per burst",
		nb, freshBurstSize, freshBurstEvery, len(sents), len(hotSents))
	out.note("latency_p50_ms = fresh_p50_ms: ack → watcher receives a covering report; fresh_p%g_ms %.3f (bench.latency_tail_ms), n=%d, %d versions received",
		fr.TailPc, fr.Tail, fr.N, len(receipts))
	out.note("ack_p50_ms %.3f ack_p%g_ms %.3f (scheduled send → ack); generator late p%g %.3fms",
		ack.P50, ack.TailPc, ack.Tail, late.TailPc, late.Tail)

	if opts.Trace {
		sc, inc, pub := summarize(schedMS), summarize(incrMS), summarize(pubMS)
		resid := 0.0
		for _, r := range residual {
			if r < 0 {
				r = -r
			}
			resid += r
		}
		recon := resid / float64(len(residual)) / fr.Mean
		if recon > reconcileBound {
			return nil, fmt.Errorf("traced run does not reconcile: fresh mean %.1fms vs sched %.1f + report %.1f + publish %.1f (residual %.3f > %.2f)",
				fr.Mean, sc.Mean, inc.Mean, pub.Mean, recon, reconcileBound)
		}
		// Tracing overhead on the seams the tap wraps shows in the ack
		// path; fresh latency itself follows the flushes, a few per
		// phase. Uploads that waited behind a flush are excluded: where
		// the flushes land relative to the phases would swamp the cost
		// of the wrappers.
		var ackU, ackT []float64
		for _, s := range sents {
			if s.err != nil || s.ack.Sub(s.dispatch) > freshStall {
				continue
			}
			if ph.tracedAt(s.dispatch) {
				ackT = append(ackT, ms(s.ack.Sub(s.dispatch)))
			} else {
				ackU = append(ackU, ms(s.ack.Sub(s.dispatch)))
			}
		}
		if len(ackT) == 0 || len(ackU) == 0 {
			return nil, fmt.Errorf("traced run needs bursts in both kinds of phase: %d traced and %d untraced uploads; the window holds %d bursts",
				len(ackT), len(ackU), nb)
		}
		var cs serve.AppStatus
		for _, st := range svc.Statuses() {
			if st.App == env.hot {
				cs = st
			}
		}
		hit := 0.0
		if cs.Cache.Lookups > 0 {
			hit = float64(cs.Cache.Hits) / float64(cs.Cache.Lookups)
		}
		bytesSum := 0
		for _, r := range receipts {
			bytesSum += r.bytes
		}
		app := summarize(sys.tap.appendUS.values())
		not := summarize(sys.tap.notifyUS.values())
		appends1, commits1 := sys.logStats()
		stats := sys.ss.Stats()
		out.Layers = map[string]float64{
			"collect.server_ingest_us":      1e6 * delta.ingestSum / delta.ingestCount,
			"collect.wire_bytes_per_bundle": float64(stats.BytesIngested) / float64(stats.Accepted+stats.Duplicated),
			"seglog.fsyncs_per_bundle":      float64(commits1-commits0) / float64(appends1-appends0),
			"seglog.disk_bytes_per_bundle":  float64(sys.diskBytes()) / float64(stats.Accepted),
			"collect.ack_p50_ms":            ack.P50,
			"collect.ack_p99_ms":            ack.Tail,
			"collect.client_retries":        delta.clientRetries,
			"seglog.append_p50_us":          app.P50,
			"seglog.append_p99_us":          app.Tail,
			"serve.notify_p50_us":           not.P50,
			"serve.notify_p99_us":           not.Tail,
			"serve.sched_wait_p50_ms":       sc.P50,
			"serve.sched_wait_p99_ms":       sc.Tail,
			"serve.publish_p50_ms":          pub.P50,
			"serve.publish_p99_ms":          pub.Tail,
			"serve.report_bytes":            float64(bytesSum) / float64(len(receipts)),
			"serve.analyses_per_notify":     delta.analyses / delta.notifys,
			"core.incr_report_p50_ms":       inc.P50,
			"core.incr_report_p99_ms":       inc.Tail,
			"core.step1_cache_hit_rate":     hit,
			"go.alloc_bytes_per_op":         delta.allocBytes / float64(len(ackMS)),
			"go.gc_cpu_frac":                delta.gcCPU / delta.totalCPU,
			"bench.gen_late_p99_ms":         late.Tail,
			"bench.trace_overhead_frac":     median(ackT)/median(ackU) - 1,
			"bench.latency_tail_ms":         fr.Tail,
			"bench.reconcile_err_frac":      recon,
		}
		out.note("traced: fresh mean %.1fms = sched wait %.1f + incremental report %.1f + publish %.1f (residual %.2g)",
			fr.Mean, sc.Mean, inc.Mean, pub.Mean, recon)
		out.note("traced: overhead from unstalled send→ack p50, traced %.3fms vs untraced %.3fms (n=%d/%d); appends n=%d, notifies n=%d",
			median(ackT), median(ackU), len(ackT), len(ackU), app.N, not.N)
	}
	return out, nil
}
