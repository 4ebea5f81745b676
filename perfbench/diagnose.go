package main

// Workload "diagnose": in-process batch, workers = GOMAXPROCS. Every
// catalog app's seeded corpus (with its ABD ground truth) is serialized
// to JSONL during set-up; the timed path takes each corpus from JSONL
// bytes through trace decoding, core.Analyze and json.Marshal of the
// report, app after app, pass after pass.
//
// Why: trace decode, core Steps 1–5 and parallel do nearly all the
// work. Loads: trace, core (batch), power/stats inside it, parallel, go.
// Bypasses: collect, seglog, serve (no network, fsync or serving), and
// revision.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/android"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/trace"
	"repro/internal/workload"
)

const (
	diagnoseUsers    = 100 // sessions per app corpus
	diagnoseImpacted = 0.2
	// diagnoseTopKeys is how many reported events a developer reads
	// (the paper's Table II shows six).
	diagnoseTopKeys = 6
)

// diagCorpus is one app's serialized corpus with its ground truth.
type diagCorpus struct {
	app             *apps.App
	jsonl           []byte
	traces          int
	impactedPercent float64
}

func buildDiagnose(opts options, users int, catalog []*apps.App) ([]diagCorpus, error) {
	return parallel.Map(0, len(catalog), func(i int) (diagCorpus, error) {
		app := catalog[i]
		cfg := workload.DefaultConfig(app, opts.Seed*1000+int64(i))
		cfg.Users = users
		cfg.ImpactedFraction = diagnoseImpacted
		res, err := workload.Generate(cfg)
		if err != nil {
			return diagCorpus{}, fmt.Errorf("%s: %w", app.AppID, err)
		}
		var buf bytes.Buffer
		if err := trace.WriteBundles(&buf, res.Bundles); err != nil {
			return diagCorpus{}, err
		}
		return diagCorpus{app: app, jsonl: buf.Bytes(), traces: len(res.Bundles),
			impactedPercent: res.ImpactedPercent}, nil
	})
}

// diagRun is one app's timed diagnosis.
type diagRun struct {
	start                 time.Time
	wall, decode, analyze time.Duration
	marshal               time.Duration
	stages                []core.StageTiming
	traces                int
	sum                   [32]byte
	report                *core.Report // first pass only, for the check
}

// diagnoseOne takes one corpus from JSONL bytes to a JSON report.
func diagnoseOne(c diagCorpus) (diagRun, []byte, error) {
	r := diagRun{start: time.Now()}
	bundles, err := trace.ReadBundles(bytes.NewReader(c.jsonl))
	if err != nil {
		return r, nil, err
	}
	t1 := time.Now()
	cfg := core.DefaultConfig()
	cfg.DeveloperImpactPercent = c.impactedPercent
	a, err := core.NewAnalyzer(cfg)
	if err != nil {
		return r, nil, err
	}
	rep, err := a.Analyze(bundles)
	if err != nil {
		return r, nil, err
	}
	t2 := time.Now()
	data, err := json.Marshal(rep)
	if err != nil {
		return r, nil, err
	}
	t3 := time.Now()
	r.decode, r.analyze, r.marshal, r.wall = t1.Sub(r.start), t2.Sub(t1), t3.Sub(t2), t3.Sub(r.start)
	r.stages = rep.Stages
	r.traces = len(bundles)
	r.report = rep
	return r, data, nil
}

// culpritReported applies the repository's detection rule: the report
// found manifestations and a reported event points at the injected ABD
// (its trigger, the trigger's class, the missed release point, or the
// background-idle event a drain elevates).
func culpritReported(rep *core.Report, app *apps.App) bool {
	if rep.ImpactedTraces == 0 {
		return false
	}
	for _, k := range rep.TopKeys(diagnoseTopKeys) {
		if k == app.Fault.Trigger || k == app.Fault.ReleasePoint ||
			k.Class == app.Fault.Trigger.Class || k == android.IdleKey() {
			return true
		}
	}
	return false
}

func runDiagnose(opts options) (*outcome, error) {
	catalog, err := apps.Catalog()
	if err != nil {
		return nil, err
	}
	users := diagnoseUsers
	if opts.Smoke {
		catalog, users = catalog[:3], 20
	}
	corpora, setupS, err := repeatSetup(func() ([]diagCorpus, error) { return buildDiagnose(opts, users, catalog) },
		func([]diagCorpus) {})
	if err != nil {
		return nil, err
	}

	// Warm-up: one untimed pass over the catalog, checked.
	first := make([][32]byte, len(corpora))
	for i, c := range corpora {
		r, data, err := diagnoseOne(c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.app.AppID, err)
		}
		if !culpritReported(r.report, c.app) {
			return nil, fmt.Errorf("%s: ground-truth culprit %s (%s) not among the top %d reported events",
				c.app.AppID, c.app.Fault.Trigger, c.app.Fault.Kind, diagnoseTopKeys)
		}
		first[i] = sha256.Sum256(data)
	}

	ph := startPhases(opts.Window, opts.Trace)
	var runs []diagRun
	// The last pass's reports: what diagnosing the catalog leaves the
	// caller holding, which live_heap_mb measures.
	reports := make([]*core.Report, len(corpora))
	// Whole passes over the catalog until the deadline, each app once per
	// pass, so every app weighs the same in the latency distribution.
	var passRates []float64 // traces per second of each pass
	for time.Now().Before(ph.Deadline()) {
		passStart, passTraces := time.Now(), 0
		for i, c := range corpora {
			r, data, err := diagnoseOne(c)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.app.AppID, err)
			}
			r.sum = sha256.Sum256(data)
			if r.sum != first[i] {
				return nil, fmt.Errorf("%s: report bytes differ between passes", c.app.AppID)
			}
			reports[i], r.report = r.report, nil
			runs = append(runs, r)
			passTraces += r.traces
		}
		passRates = append(passRates, float64(passTraces)/time.Since(passStart).Seconds())
	}
	tracedD, _, _ := ph.Finish()
	elapsed := runs[len(runs)-1].start.Add(runs[len(runs)-1].wall).Sub(ph.start)
	// The heap is read with the reports held and the serialized corpora
	// (the harness's inputs) let go.
	corpora = nil
	heap := liveHeapMB()
	runtime.KeepAlive(reports)

	traces := 0
	var wallMS []float64
	for _, r := range runs {
		traces += r.traces
		wallMS = append(wallMS, ms(r.wall))
	}
	lat := summarize(wallMS)
	out := &outcome{Attempted: int64(len(runs))}
	out.E2E = map[string]float64{
		"setup_s":        setupS,
		"ops_per_s":      float64(traces) / elapsed.Seconds(),
		"latency_p50_ms": lat.P50,
		"live_heap_mb":   heap,
	}
	out.note("ops_per_s = diagnose_traces_per_s: traces from JSONL bytes to a JSON report per second (%d app runs, %d traces, %.3fs)",
		len(runs), traces, elapsed.Seconds())
	out.note("traces per second of each pass: %.0f", passRates)
	out.note("latency_p50_ms: one app corpus JSONL → JSON report; tail p%g %.3fms (bench.latency_tail_ms), n=%d", lat.TailPc, lat.Tail, lat.N)

	if opts.Trace {
		var tr []diagRun
		var tracedTraces, untracedTraces int
		var tracedWall, untracedWall time.Duration
		for _, r := range runs {
			if ph.tracedAt(r.start) {
				tr = append(tr, r)
				tracedTraces += r.traces
				tracedWall += r.wall
			} else {
				untracedTraces += r.traces
				untracedWall += r.wall
			}
		}
		if len(tr) == 0 {
			return nil, fmt.Errorf("no app run started in a traced phase")
		}
		var wall, decode, marshal, stageSum time.Duration
		steps := make([]time.Duration, 6)
		n := 0
		for _, r := range tr {
			wall += r.wall
			decode += r.decode
			marshal += r.marshal
			n += r.traces
			for _, st := range r.stages {
				if st.Step >= 1 && st.Step <= 5 {
					steps[st.Step] += st.Wall
					stageSum += st.Wall
				}
			}
		}
		recon := reconcileErr(float64(wall), float64(decode), float64(stageSum), float64(marshal))
		if recon > reconcileBound {
			return nil, fmt.Errorf("traced run does not reconcile: wall %v vs decode %v + stages %v + report JSON %v (residual %.3f > %.2f)",
				wall, decode, stageSum, marshal, recon, reconcileBound)
		}
		k := float64(len(tr))
		procs := float64(runtime.GOMAXPROCS(0))
		var tracedT time.Duration
		for _, r := range tr {
			tracedT += r.wall
		}
		out.Layers = map[string]float64{
			"core.step1_ms":             ms(steps[1]) / k,
			"core.rank_ms":              ms(steps[2]) / k,
			"core.normalize_ms":         ms(steps[3]) / k,
			"core.detect_ms":            ms(steps[4]) / k,
			"core.step5_ms":             ms(steps[5]) / k,
			"core.report_json_ms":       ms(marshal) / k,
			"trace.decode_us_per_trace": us(decode) / float64(n),
			"parallel.busy_frac":        tracedD.taskSum / (tracedT.Seconds() * procs),
			"go.alloc_bytes_per_op":     tracedD.allocBytes / float64(n),
			"go.gc_cpu_frac":            tracedD.gcCPU / tracedD.totalCPU,
			"bench.trace_overhead_frac": overheadFrac(float64(untracedTraces)/untracedWall.Seconds(),
				float64(tracedTraces)/tracedWall.Seconds()),
			"bench.latency_tail_ms":    lat.Tail,
			"bench.reconcile_err_frac": recon,
		}
		out.note("traced: per app run (n=%d) wall %.2fms = decode %.2f + steps 1–5 %.2f + report JSON %.2f (residual %.3f)",
			len(tr), ms(wall)/k, ms(decode)/k, ms(stageSum)/k, ms(marshal)/k, recon)
	}
	return out, nil
}
