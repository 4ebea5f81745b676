package main

// Workload "revision": in-process. The revision battery mix — version
// chains across three apps and every regression kind, plus clean
// chains — each walked by revision.Analyzer.AnalyzeVersion (delta sync
// and incremental re-analysis), revision.Compare and
// DefaultGate().Evaluate.
//
// Why: the only workload that exercises internal/revision, and it uses
// core a third way (delta add/remove rather than batch or per-arrival).
// Loads: revision, core (incremental, delta-fed), go. Bypasses: collect,
// seglog, serve, trace decode, and the worker pool, which the traced run
// reads over its batch analyses instead.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/revision"
	"repro/internal/trace"
)

// The battery shape of `reproduce -exp revisions` — four versions, the
// regression landing at v2, 12-user corpora from workload seed 7 — with
// ten chain seeds per app × kind and ten clean chains per app, so the
// hop mix (and with it the cost per hop) varies little from seed to
// seed. The run seed picks the chain seeds and the walk order.
var revisionApps = []string{"k9mail", "sensorium", "opencamera"}

const (
	revisionVersions     = 4
	revisionRegressionAt = 2
	revisionSeedsPerCell = 10
	revisionCleanSeeds   = 10
	revisionUsers        = 12
	revisionCorpusSeed   = 7
)

// revChain is one generated chain with its per-version corpora.
type revChain struct {
	name    string
	chain   *revision.Chain
	corpora [][]*trace.TraceBundle
	clean   bool
}

func buildRevision(opts options, appIDs []string, seedsPerCell, cleanSeeds int) ([]*revChain, error) {
	var out []*revChain
	add := func(app *apps.App, kind revision.Kind, seed int64, clean bool) error {
		ccfg := revision.ChainConfig{App: app, Versions: revisionVersions, Seed: seed, Kind: kind}
		if !clean {
			ccfg.RegressionAt = revisionRegressionAt
			ccfg.Rewires = true
		}
		chain, err := revision.GenerateChain(ccfg)
		if err != nil {
			return err
		}
		corpora, err := revision.ChainCorpora(chain, ccfg,
			revision.CorpusConfig{Users: revisionUsers, Seed: revisionCorpusSeed})
		if err != nil {
			return err
		}
		name := fmt.Sprintf("%s/%s/%d", app.AppID, kind, seed)
		if clean {
			name = fmt.Sprintf("%s/clean/%d", app.AppID, seed)
		}
		out = append(out, &revChain{name: name, chain: chain, corpora: corpora, clean: clean})
		return nil
	}
	base := opts.Seed * 100
	for _, id := range appIDs {
		app, err := apps.ByAppID(id)
		if err != nil {
			return nil, err
		}
		for _, kind := range revision.Kinds() {
			for s := 0; s < seedsPerCell; s++ {
				if err := add(app, kind, base+int64(s), false); err != nil {
					return nil, err
				}
			}
		}
		for s := 0; s < cleanSeeds; s++ {
			if err := add(app, "", base+int64(s), true); err != nil {
				return nil, err
			}
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// hop is one timed version hop.
type hop struct {
	start           time.Time
	wall            time.Duration
	analyze, report time.Duration // AnalyzeVersion wall; its Report total
	compare, gate   time.Duration
	shared, added   int
	lookups, hits   int64              // Step-1 cache activity of this hop
	stages          []core.StageTiming // the incremental report's steps
	batch           time.Duration      // core.Analyze on the same version (traced only)
	diff            *revision.Diff
	verdict         revision.GateResult
	cand            *core.Report
	chain           *revChain
	to              int
}

// walkChain analyzes v0 and then every hop of one chain. It returns the
// hops, the v0 report and the analyzer, which holds the walk's state.
func walkChain(c *revChain) ([]hop, *core.Report, *revision.Analyzer, error) {
	a, err := revision.NewAnalyzer(revision.AnalyzeConfig{})
	if err != nil {
		return nil, nil, nil, err
	}
	prev, err := a.AnalyzeVersion(0, c.corpora[0])
	if err != nil {
		return nil, nil, nil, err
	}
	v0 := prev.Report
	var hops []hop
	for v := 1; v < len(c.corpora); v++ {
		h := hop{start: time.Now(), chain: c, to: v}
		vr, err := a.AnalyzeVersion(v, c.corpora[v])
		if err != nil {
			return nil, nil, nil, err
		}
		t1 := time.Now()
		d := revision.Compare(prev.Report, vr.Report)
		t2 := time.Now()
		verdict := revision.DefaultGate().Evaluate(d)
		t3 := time.Now()
		h.analyze, h.compare, h.gate, h.wall = t1.Sub(h.start), t2.Sub(t1), t3.Sub(t2), t3.Sub(h.start)
		for _, st := range vr.Report.Stages {
			if st.Step == 0 {
				h.report = st.Wall
			}
		}
		h.stages = vr.Report.Stages
		h.shared, h.added = vr.Delta.Shared, vr.Delta.Added
		h.lookups = vr.CacheStats.Lookups - prev.CacheStats.Lookups
		h.hits = vr.CacheStats.Hits - prev.CacheStats.Hits
		h.diff, h.verdict, h.cand = d, verdict, vr.Report
		hops = append(hops, h)
		prev = vr
	}
	return hops, v0, a, nil
}

// timeBatch sets the batch time of every hop that traced selects: one
// core.Analyze of the version the hop reached, timed once per version.
// It runs outside the timed window.
func timeBatch(hops []hop, traced func(hop) bool) error {
	type version struct {
		c *revChain
		v int
	}
	times := map[version]time.Duration{}
	for i, h := range hops {
		if !traced(h) {
			continue
		}
		k := version{h.chain, h.to}
		if _, ok := times[k]; !ok {
			start := time.Now()
			a, err := core.NewAnalyzer(core.DefaultConfig())
			if err != nil {
				return err
			}
			if _, err := a.Analyze(h.chain.corpora[h.to]); err != nil {
				return err
			}
			times[k] = time.Since(start)
		}
		hops[i].batch = times[k]
	}
	return nil
}

// accuracy counts regression hops, how many of them the gate failed,
// and how many ranked the ground-truth culprit as the top suspect.
type accuracy struct{ regressions, caught, top int }

// accuracyFloor is the share of regression hops on which the gate must
// trip and the culprit must be the top suspect: the repository's
// revision-gate floor (revision_gate_test.go).
const accuracyFloor = 0.9

// check fails unless both shares reach accuracyFloor.
func (a accuracy) check() error {
	if a.regressions == 0 {
		return nil
	}
	n := float64(a.regressions)
	if float64(a.caught)/n < accuracyFloor || float64(a.top)/n < accuracyFloor {
		return fmt.Errorf("on %d regression hops the gate tripped %d times and the culprit was the top suspect %d times (floor %.0f%%)",
			a.regressions, a.caught, a.top, 100*accuracyFloor)
	}
	return nil
}

// checkChain verifies one walked chain: every delta-fed report equals a
// batch analysis of its version byte for byte, and clean chains never
// trip the gate. Regression hops are tallied into acc.
func checkChain(c *revChain, v0 *core.Report, hops []hop, acc *accuracy) error {
	reports := []*core.Report{v0}
	for _, h := range hops {
		reports = append(reports, h.cand)
	}
	for v, rep := range reports {
		// Delta sync keeps surviving bundles at their old positions and
		// appends new ones, so the batch corpus takes the delta-fed
		// report's trace order.
		corpus, err := inReportOrder(rep, c.corpora[v])
		if err != nil {
			return fmt.Errorf("chain %s v%d: %w", c.name, v, err)
		}
		a, err := core.NewAnalyzer(core.DefaultConfig())
		if err != nil {
			return err
		}
		batch, err := a.Analyze(corpus)
		if err != nil {
			return err
		}
		bb, _ := json.Marshal(batch)
		db, _ := json.Marshal(rep)
		if !bytes.Equal(bb, db) {
			return fmt.Errorf("chain %s v%d: delta-fed report differs from batch analysis", c.name, v)
		}
	}
	for _, h := range hops {
		if c.clean {
			if !h.verdict.Pass {
				return fmt.Errorf("clean chain %s: gate tripped on hop v%d→v%d: %v", c.name, h.to-1, h.to, h.verdict.Violations)
			}
			continue
		}
		if h.to != c.chain.RegressionAt {
			continue
		}
		acc.regressions++
		if !h.verdict.Pass {
			acc.caught++
		}
		if top, ok := h.diff.TopSuspect(); ok && top.Key == c.chain.Culprit {
			acc.top++
		}
	}
	return nil
}

func runRevision(opts options) (*outcome, error) {
	appIDs, perCell, clean := revisionApps, revisionSeedsPerCell, revisionCleanSeeds
	if opts.Smoke {
		// One app; enough regression chains for the accuracy floor.
		appIDs, clean = appIDs[:1], 2
	}
	chains, setupS, err := repeatSetup(func() ([]*revChain, error) { return buildRevision(opts, appIDs, perCell, clean) },
		func([]*revChain) {})
	if err != nil {
		return nil, err
	}

	// Warm-up: one untimed pass over the battery, checked.
	var acc accuracy
	for _, c := range chains {
		hs, v0, _, err := walkChain(c)
		if err != nil {
			return nil, fmt.Errorf("chain %s: %w", c.name, err)
		}
		if err := checkChain(c, v0, hs, &acc); err != nil {
			return nil, err
		}
	}
	if err := acc.check(); err != nil {
		return nil, err
	}

	ph := startPhases(opts.Window, opts.Trace)
	var hops []hop
	var end time.Time
	// The last pass's analyzers: the revision engine's state after
	// walking the battery, which live_heap_mb measures.
	analyzers := make([]*revision.Analyzer, len(chains))
	// Whole passes over the battery until the deadline, each chain once
	// per pass.
	var passRates []float64 // hops per second of each pass
	for time.Now().Before(ph.Deadline()) {
		passStart, passHops := time.Now(), 0
		for i, c := range chains {
			hs, _, a, err := walkChain(c)
			if err != nil {
				return nil, fmt.Errorf("chain %s: %w", c.name, err)
			}
			end = time.Now()
			analyzers[i] = a
			for i := range hs {
				hs[i].diff, hs[i].cand = nil, nil
			}
			hops = append(hops, hs...)
			passHops += len(hs)
		}
		passRates = append(passRates, float64(passHops)/time.Since(passStart).Seconds())
	}
	tracedD, _, _ := ph.Finish()
	elapsed := end.Sub(ph.start)

	// Batch analysis of the versions the traced hops reached, for
	// revision.delta_over_batch: after the window, so the traced phases
	// held only hop work. Hops feed core one bundle at a time and never
	// reach the worker pool; batch analysis fans Step 1 out through it, so
	// parallel.busy_frac is read over these runs.
	var poolBusy float64
	if opts.Trace {
		before := sampleProc()
		if err := timeBatch(hops, func(h hop) bool { return ph.tracedAt(h.start) }); err != nil {
			return nil, err
		}
		after := sampleProc()
		poolBusy = after.sub(before).taskSum /
			(after.at.Sub(before.at).Seconds() * float64(runtime.GOMAXPROCS(0)))
	}
	// The heap is read with the analyzers held and the generated chains
	// (the harness's inputs) let go: what stays is what the analyzers
	// retain.
	for i := range hops {
		hops[i].chain = nil
	}
	chains = nil
	heap := liveHeapMB()
	runtime.KeepAlive(analyzers)

	var wallMS []float64
	for _, h := range hops {
		wallMS = append(wallMS, ms(h.wall))
	}
	lat := summarize(wallMS)
	out := &outcome{Attempted: int64(len(hops))}
	out.E2E = map[string]float64{
		"setup_s":        setupS,
		"ops_per_s":      median(passRates),
		"latency_p50_ms": lat.P50,
		"live_heap_mb":   heap,
	}
	out.note("regression hops: %d, gate tripped on %d, culprit top suspect on %d (floor %.0f%%); clean chains: no gate trip",
		acc.regressions, acc.caught, acc.top, 100*accuracyFloor)
	out.note("ops_per_s = revision_hops_per_s: version hops per second of a pass over the battery, v0 seeding of each walk included; the median of the window's %d passes",
		len(passRates))
	out.note("hops per second of each pass: %.0f; over the whole window %.1f (%d hops over %d chains, %.3fs)",
		passRates, float64(len(hops))/elapsed.Seconds(), len(hops), len(analyzers), elapsed.Seconds())
	out.note("latency_p50_ms: one hop (delta sync + re-analysis + Compare + gate); tail p%g %.3fms (bench.latency_tail_ms), n=%d", lat.TailPc, lat.Tail, lat.N)

	if opts.Trace {
		var tr []hop
		var tW, uW time.Duration
		var tN, uN int
		for _, h := range hops {
			if ph.tracedAt(h.start) {
				tr = append(tr, h)
				tW += h.wall
				tN++
			} else {
				uW += h.wall
				uN++
			}
		}
		if len(tr) == 0 {
			return nil, fmt.Errorf("no hop started in a traced phase")
		}
		var wall, sync, report, compare, gate, batch time.Duration
		var shared, total int
		var lookups, hits int64
		var reportMS []float64
		steps := make([]time.Duration, 6)
		for _, h := range tr {
			for _, st := range h.stages {
				if st.Step >= 1 && st.Step <= 5 {
					steps[st.Step] += st.Wall
				}
			}
			wall += h.wall
			sync += h.analyze - h.report
			report += h.report
			compare += h.compare
			gate += h.gate
			batch += h.batch
			shared += h.shared
			total += h.shared + h.added
			lookups += h.lookups
			hits += h.hits
			reportMS = append(reportMS, ms(h.report))
		}
		recon := reconcileErr(float64(wall), float64(sync), float64(report), float64(compare), float64(gate))
		if recon > reconcileBound {
			return nil, fmt.Errorf("traced run does not reconcile: hop %v vs sync %v + report %v + compare %v + gate %v (residual %.3f > %.2f)",
				wall, sync, report, compare, gate, recon, reconcileBound)
		}
		k := float64(len(tr))
		rep := summarize(reportMS)
		hit := 0.0
		if lookups > 0 {
			hit = float64(hits) / float64(lookups)
		}
		out.Layers = map[string]float64{
			"revision.sync_ms":          ms(sync) / k,
			"revision.compare_ms":       ms(compare) / k,
			"revision.gate_us":          us(gate) / k,
			"revision.shared_frac":      float64(shared) / float64(total),
			"revision.delta_over_batch": float64(wall) / float64(batch),
			"core.incr_report_p50_ms":   rep.P50,
			"core.incr_report_p99_ms":   rep.Tail,
			"core.step1_cache_hit_rate": hit,
			"core.step1_ms":             ms(steps[1]) / k,
			"core.rank_ms":              ms(steps[2]) / k,
			"core.normalize_ms":         ms(steps[3]) / k,
			"core.detect_ms":            ms(steps[4]) / k,
			"core.step5_ms":             ms(steps[5]) / k,
			"parallel.busy_frac":        poolBusy,
			"go.alloc_bytes_per_op":     tracedD.allocBytes / k,
			"go.gc_cpu_frac":            tracedD.gcCPU / tracedD.totalCPU,
			"bench.trace_overhead_frac": overheadFrac(float64(uN)/uW.Seconds(), float64(tN)/tW.Seconds()),
			"bench.latency_tail_ms":     lat.Tail,
			"bench.reconcile_err_frac":  recon,
		}
		out.note("traced: per hop (n=%d) %.3fms = sync %.3f + incremental report %.3f + compare %.3f + gate %.4f (residual %.3f); batch analyze %.3fms",
			len(tr), ms(wall)/k, ms(sync)/k, ms(report)/k, ms(compare)/k, ms(gate)/k, recon, ms(batch)/k)
	}
	return out, nil
}

// inReportOrder orders a corpus as rep lists its traces (trace IDs are
// unique within one version's corpus).
func inReportOrder(rep *core.Report, corpus []*trace.TraceBundle) ([]*trace.TraceBundle, error) {
	pos := make(map[string]int, len(rep.Traces))
	for i, at := range rep.Traces {
		pos[at.TraceID] = i
	}
	if len(pos) != len(corpus) {
		return nil, fmt.Errorf("report lists %d distinct traces, corpus has %d", len(pos), len(corpus))
	}
	out := append([]*trace.TraceBundle(nil), corpus...)
	sort.SliceStable(out, func(i, j int) bool { return pos[out[i].Event.TraceID] < pos[out[j].Event.TraceID] })
	return out, nil
}
