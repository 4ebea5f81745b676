package main

// Workload "ingest": closed loop, two binary uploader connections. Tiny
// fleet-shaped sessions across ~1,000 apps go through both shards; every
// tenth bundle is a re-upload of one already acked, as a phone re-sends
// after a lost ack.
//
// Why: per-bundle costs dominate here — framing, verify/validate, dedup,
// routing, group commit plus fsync, and Notify — while core does almost
// no work. The re-uploads run the dedup path next to the write path, and
// many tiny per-app flushes compete with ingest for the CPU.
// Loads: trace/binenc, collect, seglog, serve (Notify, many small
// flushes), go. Bypasses: core Steps 1–5 at scale, revision, parallel.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/trace"
)

const (
	ingestApps     = 1000
	ingestUploader = 2
	ingestChunk    = 100 // bundles per Upload call (one connection each)
	ingestReupload = 10  // every ingestReupload-th slot re-sends an acked bundle
	// ingestCheckApps is how many apps' served reports are compared
	// byte for byte against batch analysis.
	ingestCheckApps = 8
	// ingestWarmChunks is how many chunks each uploader sends during
	// set-up, before the timed window.
	ingestWarmChunks = 10
)

// tinySession synthesizes one short phone session of app: three
// balanced callback pairs over 1.5 s and a matching utilization trace.
func tinySession(app string, user string, rng *rand.Rand) *trace.TraceBundle {
	base := int64(1_000 + rng.Intn(1_000_000))
	recs := make([]trace.Record, 0, 6)
	for p := 0; p < 3; p++ {
		key := trace.EventKey{Class: "Lfleet/Worker", Callback: fmt.Sprintf("cb%d", p)}
		at := base + int64(p*500)
		recs = append(recs,
			trace.Record{TimestampMS: at, Dir: trace.Enter, Key: key},
			trace.Record{TimestampMS: at + 100 + int64(rng.Intn(300)), Dir: trace.Exit, Key: key},
		)
	}
	samples := make([]trace.UtilizationSample, 4)
	for i := range samples {
		samples[i].TimestampMS = base + int64(i*500)
		samples[i].Util[trace.CPU-1] = 0.05 + 0.6*rng.Float64()
	}
	return &trace.TraceBundle{
		Event: trace.EventTrace{
			AppID:   app,
			UserID:  user,
			Device:  "nexus6",
			TraceID: fmt.Sprintf("t%016x", rng.Uint64()),
			Records: recs,
		},
		Util: trace.UtilizationTrace{AppID: app, PID: 1000 + rng.Intn(30000), PeriodMS: 500, Samples: samples},
	}
}

// sessionSource yields one uploader's seeded stream of first uploads.
// Sessions are generated as they are sent (a few microseconds each), so
// the stream never runs dry and the inputs stay out of the live heap.
type sessionSource struct {
	rng  *rand.Rand
	apps int
	u, n int
}

func newSessionSource(seed int64, u, apps int) *sessionSource {
	return &sessionSource{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(u))), apps: apps, u: u}
}

func (s *sessionSource) next() *trace.TraceBundle {
	app := fmt.Sprintf("fleet%04d", s.rng.Intn(s.apps))
	s.n++
	return tinySession(app, fmt.Sprintf("u%d-%d", s.u, s.n), s.rng)
}

// ackSample is one acked bundle's send→ack latency and ack time.
type ackSample struct {
	at time.Time
	d  time.Duration
}

// uploaderResult is what one closed-loop uploader did.
type uploaderResult struct {
	acks       []ackSample
	unique     []*trace.TraceBundle // acked first uploads, in order
	reuploads  int                  // acked re-uploads
	unacked    int                  // bundles never acked
	end        time.Time
	uploadErrs []error
}

// runUploader is one closed-loop uploader: it sends chunks until the
// deadline passes (the chunk in flight completes after it) or, when
// maxChunks > 0, after that many chunks. Re-uploads pick from known
// (bundles acked before this call) and from this call's own acks.
func runUploader(addr string, seed int64, src *sessionSource, known []*trace.TraceBundle,
	deadline time.Time, maxChunks int) *uploaderResult {
	res := &uploaderResult{}
	var chunkAcks []ackSample
	client := collect.NewClient(addr,
		collect.WithBinary(),
		collect.WithJitterSeed(seed),
		collect.WithAckObserver(func(d time.Duration) {
			chunkAcks = append(chunkAcks, ackSample{at: time.Now(), d: d})
		}))
	rng := rand.New(rand.NewSource(seed))
	state := collect.PhoneState{Charging: true, OnWiFi: true}
	for chunks := 0; time.Now().Before(deadline) && (maxChunks <= 0 || chunks < maxChunks); chunks++ {
		chunk := make([]*trace.TraceBundle, 0, ingestChunk)
		isRe := make([]bool, 0, ingestChunk)
		fresh := 0
		for len(chunk) < ingestChunk {
			acked := len(known) + len(res.unique)
			if (len(chunk)+1)%ingestReupload == 0 && acked+fresh > 0 {
				// Re-send a bundle acked earlier (in an earlier chunk or
				// earlier in this one: the client sends in order and
				// waits for each ack).
				var b *trace.TraceBundle
				switch k := rng.Intn(acked + fresh); {
				case k < len(known):
					b = known[k]
				case k < acked:
					b = res.unique[k-len(known)]
				default:
					b = chunk[freshIndex(isRe, k-acked)]
				}
				chunk = append(chunk, b)
				isRe = append(isRe, true)
				continue
			}
			chunk = append(chunk, src.next())
			isRe = append(isRe, false)
			fresh++
		}
		chunkAcks = chunkAcks[:0]
		if err := client.Upload(state, chunk); err != nil {
			res.uploadErrs = append(res.uploadErrs, err)
		}
		// Acks arrive in send order, so the acked bundles are a prefix.
		n := len(chunkAcks)
		for i, b := range chunk[:n] {
			if isRe[i] {
				res.reuploads++
			} else {
				res.unique = append(res.unique, b)
			}
		}
		res.unacked += len(chunk) - n
		res.acks = append(res.acks, chunkAcks...)
	}
	res.end = time.Now()
	return res
}

// ingestEnv is one set-up of the ingest workload: the tier, each
// uploader's session stream, and the warm-up uploads already acked.
type ingestEnv struct {
	sys  *system
	srcs []*sessionSource
	warm []*uploaderResult
}

// uploadAll runs the uploaders concurrently; known[u] seeds uploader
// u's re-upload choices.
func (e *ingestEnv) uploadAll(seed int64, known [][]*trace.TraceBundle, deadline time.Time, maxChunks int) []*uploaderResult {
	out := make([]*uploaderResult, ingestUploader)
	var wg sync.WaitGroup
	for u := 0; u < ingestUploader; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			out[u] = runUploader(e.sys.ss.Addr(), seed*31+int64(u), e.srcs[u], known[u], deadline, maxChunks)
		}(u)
	}
	wg.Wait()
	return out
}

// buildIngest starts the tier and warms it with ingestWarmChunks chunks
// per uploader, so every app has its analyzer and the stores and
// connections are past their first use before timing starts.
func buildIngest(opts options, apps int) (*ingestEnv, error) {
	sys, err := newSystem(fmt.Sprintf("%s/ingest-%d", opts.Dir, time.Now().UnixNano()), opts.Trace)
	if err != nil {
		return nil, err
	}
	env := &ingestEnv{sys: sys}
	for u := 0; u < ingestUploader; u++ {
		env.srcs = append(env.srcs, newSessionSource(opts.Seed, u, apps))
	}
	env.warm = env.uploadAll(opts.Seed+7, make([][]*trace.TraceBundle, ingestUploader),
		time.Now().Add(time.Hour), ingestWarmChunks)
	for u, r := range env.warm {
		if r.unacked > 0 {
			sys.close()
			return nil, fmt.Errorf("warm-up uploader %d: %d bundles unacked: %v", u, r.unacked, r.uploadErrs)
		}
	}
	return env, nil
}

// freshIndex maps the k-th first upload of a chunk to its slot.
func freshIndex(isRe []bool, k int) int {
	for i, re := range isRe {
		if !re {
			if k == 0 {
				return i
			}
			k--
		}
	}
	panic("freshIndex out of range")
}

func runIngest(opts options) (*outcome, error) {
	apps := ingestApps
	if opts.Smoke {
		apps = 20
	}
	env, setupS, err := repeatSetup(func() (*ingestEnv, error) { return buildIngest(opts, apps) },
		func(e *ingestEnv) { e.sys.close() })
	if err != nil {
		return nil, err
	}
	sys := env.sys
	defer sys.close()

	appends0, commits0 := sys.logStats()
	before := sampleProc()
	ph := startPhases(opts.Window, opts.Trace)
	if sys.tap != nil {
		sys.tap.ph.Store(ph)
	}
	known := make([][]*trace.TraceBundle, ingestUploader)
	for u, r := range env.warm {
		known[u] = r.unique
	}
	results := env.uploadAll(opts.Seed, known, ph.Deadline(), 0)
	tracedD, tracedT, untracedT := ph.Finish()
	if sys.tap != nil {
		sys.tap.ph.Store(nil)
	}
	end := ph.start
	var acks []ackSample
	var unique []*trace.TraceBundle
	reuploads, unacked := 0, 0
	for _, r := range results {
		if r.end.After(end) {
			end = r.end
		}
		acks = append(acks, r.acks...)
		unique = append(unique, r.unique...)
		reuploads += r.reuploads
		unacked += r.unacked
	}
	// The checks cover everything the stores hold, warm-up included.
	allUnique, allRe := append([]*trace.TraceBundle(nil), unique...), reuploads
	for _, r := range env.warm {
		allUnique = append(allUnique, r.unique...)
		allRe += r.reuploads
	}
	elapsed := end.Sub(ph.start)
	delta := sampleProc().sub(before)
	appends1, commits1 := sys.logStats()
	stats := sys.ss.Stats()
	if err := checkIngest(sys, allUnique, allRe, stats); err != nil {
		return nil, err
	}
	// The live heap counts the tier's state, not the harness's copies of
	// the bundles it sent (checkIngest has flushed the serving layers).
	results, unique, allUnique, env.warm = nil, nil, nil, nil
	heap := liveHeapMB()

	out := &outcome{Attempted: int64(len(acks) + unacked), Failed: int64(unacked)}

	ackMS := make([]float64, len(acks))
	for i, a := range acks {
		ackMS[i] = ms(a.d)
	}
	ack := summarize(ackMS)
	qps := float64(len(acks)) / elapsed.Seconds()
	perSec := make([]int, int(elapsed.Seconds())+1)
	for _, a := range acks {
		perSec[int(a.at.Sub(ph.start).Seconds())]++
	}
	out.note("acks per second of the window: %v", perSec)
	out.E2E = map[string]float64{
		"setup_s":        setupS,
		"ops_per_s":      qps,
		"latency_p50_ms": ack.P50,
		"live_heap_mb":   heap,
	}
	out.note("ops_per_s = ingest_qps: bundles acked OK per second (%d acks, %d re-uploads, %.3fs)",
		len(acks), reuploads, elapsed.Seconds())
	out.note("latency_p50_ms = ack_p50_ms: send→ack; ack_p%g_ms %.3f (bench.latency_tail_ms), n=%d", ack.TailPc, ack.Tail, ack.N)

	if opts.Trace {
		var tracedAcks, untracedAcks []float64
		for _, a := range acks {
			if ph.tracedAt(a.at.Add(-a.d)) {
				tracedAcks = append(tracedAcks, ms(a.d))
			} else {
				untracedAcks = append(untracedAcks, ms(a.d))
			}
		}
		tack := summarize(tracedAcks)
		serverUS := 1e6 * tracedD.ingestSum / tracedD.ingestCount
		app := summarize(sys.tap.appendUS.values())
		not := summarize(sys.tap.notifyUS.values())
		ackUS := tack.Mean * 1000
		transit := ackUS - serverUS - not.Mean
		// Server ingest (the collect_ingest_seconds span) contains the
		// store append; Notify runs after it, on the same handler, before
		// the ack is written.
		recon := max(containErr(ackUS, serverUS, not.Mean), containErr(serverUS, app.Mean))
		if recon > reconcileBound {
			return nil, fmt.Errorf("traced run does not reconcile: ack %.1fus, server ingest %.1fus, notify %.1fus, append %.1fus (residual %.3f > %.2f)",
				ackUS, serverUS, not.Mean, app.Mean, recon, reconcileBound)
		}
		lines := stats.Accepted + stats.Duplicated
		out.Layers = map[string]float64{
			"collect.server_ingest_us":      serverUS,
			"collect.ack_p50_ms":            tack.P50,
			"collect.ack_p99_ms":            tack.Tail,
			"collect.wire_bytes_per_bundle": float64(stats.BytesIngested) / float64(lines),
			"collect.client_retries":        delta.clientRetries,
			"seglog.append_p50_us":          app.P50,
			"seglog.append_p99_us":          app.Tail,
			"seglog.fsyncs_per_bundle":      float64(commits1-commits0) / float64(appends1-appends0),
			"seglog.disk_bytes_per_bundle":  float64(sys.diskBytes()) / float64(stats.Accepted),
			"serve.notify_p50_us":           not.P50,
			"serve.notify_p99_us":           not.Tail,
			"serve.analyses_per_notify":     delta.analyses / delta.notifys,
			"go.alloc_bytes_per_op":         tracedD.allocBytes / float64(len(tracedAcks)),
			"go.gc_cpu_frac":                tracedD.gcCPU / tracedD.totalCPU,
			// By median ack: the serving layer's periodic flush lands in
			// one phase and would swamp a throughput comparison.
			"bench.trace_overhead_frac": tack.P50/median(untracedAcks) - 1,
			"bench.latency_tail_ms":     ack.Tail,
			"bench.reconcile_err_frac":  recon,
		}
		out.note("traced: ack mean %.1fus = transit %.1fus + server ingest %.1fus (⊇ append mean %.1fus) + notify mean %.1fus",
			ackUS, transit, serverUS, app.Mean, not.Mean)
		out.note("traced: %d acks in traced phases (%.2fs), %d in untraced (%.2fs); percentiles p%g (append n=%d, notify n=%d)",
			len(tracedAcks), tracedT.Seconds(), len(untracedAcks), untracedT.Seconds(), app.TailPc, app.N, not.N)
	}
	return out, nil
}

// checkIngest verifies the ingest outputs: the stores hold exactly the
// acked unique set, the duplicate count is exactly the re-upload count,
// and a sample of apps' served reports equal batch analysis byte for
// byte.
func checkIngest(sys *system, unique []*trace.TraceBundle, reuploads int, stats collect.ServerStats) error {
	if stats.Accepted != int64(len(unique)) || stats.Duplicated != int64(reuploads) {
		return fmt.Errorf("server counted %d accepted + %d duplicated, harness acked %d unique + %d re-uploads",
			stats.Accepted, stats.Duplicated, len(unique), reuploads)
	}
	if stats.Quarantined != 0 {
		return fmt.Errorf("%d lines quarantined, want 0", stats.Quarantined)
	}
	want := make(map[string]bool, len(unique))
	byApp := make(map[string][]*trace.TraceBundle)
	for _, b := range unique {
		s := trace.ScrubBundle(b)
		want[trace.ContentKey(s)] = true
		byApp[b.Event.AppID] = append(byApp[b.Event.AppID], b)
	}
	got := 0
	for i, st := range sys.stores {
		persisted, skipped, err := st.Load()
		if err != nil {
			return fmt.Errorf("shard %d: load: %w", i, err)
		}
		if skipped != 0 {
			return fmt.Errorf("shard %d: %d undecodable records", i, skipped)
		}
		for app, bs := range persisted {
			if collect.ShardOf(app, shards) != i {
				return fmt.Errorf("app %s persisted on shard %d, owner is %d", app, i, collect.ShardOf(app, shards))
			}
			for _, b := range bs {
				if !want[b.Key] {
					return fmt.Errorf("shard %d holds bundle %s that was never acked", i, b.Key)
				}
				got++
			}
		}
	}
	if got != len(want) {
		return fmt.Errorf("stores hold %d bundles, acked unique set has %d", got, len(want))
	}

	// Served reports: drain the debounce, then compare a seeded sample.
	sys.fan.Flush()
	apps := sortedKeys(byApp)
	rng := rand.New(rand.NewSource(int64(len(unique))))
	rng.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	if len(apps) > ingestCheckApps {
		apps = apps[:ingestCheckApps]
	}
	for _, app := range apps {
		if err := sameAsBatch(sys, app, nil, len(byApp[app])); err != nil {
			return err
		}
	}
	return nil
}

// sameAsBatch compares app's served report with a batch analysis of the
// corpus the server stored for it (after the preload bundles, which the
// serving layer received first), byte for byte. want is the expected
// corpus size.
func sameAsBatch(sys *system, app string, preload []*trace.TraceBundle, wantStored int) error {
	served, _, ok := sys.svcFor(app).AppReport(app)
	if !ok || served == nil {
		return fmt.Errorf("app %s has no served report", app)
	}
	stored := sys.ss.Bundles(app)
	if len(stored) != wantStored {
		return fmt.Errorf("app %s: server stored %d bundles, harness acked %d", app, len(stored), wantStored)
	}
	corpus := append(append([]*trace.TraceBundle(nil), preload...), stored...)
	// The serving layer adds bundles in hook order, which concurrent
	// connections may interleave differently from the store's order;
	// order the batch corpus as the served report lists its traces.
	if preload == nil {
		pos := make(map[string]int, len(served.Traces))
		for i, at := range served.Traces {
			pos[at.TraceID] = i
		}
		if len(pos) != len(corpus) {
			return fmt.Errorf("app %s: served report has %d traces, corpus %d", app, len(pos), len(corpus))
		}
		sort.SliceStable(corpus, func(i, j int) bool {
			return pos[corpus[i].Event.TraceID] < pos[corpus[j].Event.TraceID]
		})
	}
	cfg := core.DefaultConfig()
	cfg.SkipInvalidTraces = true
	a, err := core.NewAnalyzer(cfg)
	if err != nil {
		return err
	}
	batch, err := a.Analyze(corpus)
	if err != nil {
		return fmt.Errorf("app %s: batch analysis: %w", app, err)
	}
	sb, err := json.Marshal(served)
	if err != nil {
		return err
	}
	bb, err := json.Marshal(batch)
	if err != nil {
		return err
	}
	if !bytes.Equal(sb, bb) {
		return fmt.Errorf("app %s: served report (%d bytes) differs from batch analysis (%d bytes)", app, len(sb), len(bb))
	}
	return nil
}
