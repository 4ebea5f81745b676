package core_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/power"
	"repro/internal/trace"
	"repro/internal/workload"
)

// bundlePool generates a deterministic pool of bundles the mutation
// harness draws from.
func bundlePool(t *testing.T, users int, seed int64) []*trace.TraceBundle {
	t.Helper()
	app, err := apps.K9Mail()
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig(app, seed)
	cfg.Users = users
	cfg.ImpactedFraction = 0.25
	corpus, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return corpus.Bundles
}

// reportJSON marshals a report; JSON is the byte-identity currency of
// the differential harness (Stages is json:"-", so timing jitter never
// participates).
func reportJSON(t *testing.T, r *core.Report) []byte {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Device profiles the differential suite moves bundles onto.
// infiniteDevice has infinite base power: any trace recorded on it gets
// non-finite Step-1 powers. dimDevice draws a subnormal power except on
// GPS, which the test workload never powers, so its traces' powers are
// finite but so small that, once they are a tenth of a key's instances,
// the key's base power divides other devices' powers to infinity and
// Step 4 fails on those traces.
const (
	infiniteDevice = "infinite-base"
	dimDevice      = "dim"
)

// deviceRegistry returns the built-in device registry plus
// infiniteDevice and dimDevice.
func deviceRegistry(t *testing.T) *device.Registry {
	t.Helper()
	reg := device.NewRegistry()
	p, err := reg.Lookup("nexus6")
	if err != nil {
		t.Fatal(err)
	}
	inf := p
	inf.Name = infiniteDevice
	inf.BaseMW = math.Inf(1)
	reg.Register(inf)
	dim := p
	dim.Name = dimDevice
	dim.BaseMW = 1e-309
	for i := range dim.CoeffMW {
		dim.CoeffMW[i] = 1e-309
	}
	dim.CoeffMW[trace.GPS-1] = 1
	reg.Register(dim)
	return reg
}

// mirror is the oracle corpus: the exact ordered bundle slice the
// incremental analyzer should be equivalent to batch-analyzing.
type mirror struct {
	keys    []string
	bundles []*trace.TraceBundle
}

func (m *mirror) add(key string, b *trace.TraceBundle) {
	m.keys = append(m.keys, key)
	m.bundles = append(m.bundles, b)
}

func (m *mirror) remove(key string) {
	for i, k := range m.keys {
		if k == key {
			m.keys = append(m.keys[:i:i], m.keys[i+1:]...)
			m.bundles = append(m.bundles[:i:i], m.bundles[i+1:]...)
			return
		}
	}
}

// TestIncrementalMatchesBatch is the differential harness of the
// incremental engine: a seeded random sequence of corpus mutations
// (add, remove, re-add, duplicate add) with, after every mutation, a
// byte-identical comparison between IncrementalAnalyzer.Report and a
// fresh batch Analyzer.Analyze over the mirrored bundle slice. The
// serving encode path rides along: two more analyzers take the same
// mutations and answer ReportJSON at Parallelism 1 and 4, whose bytes
// must equal both json.Marshal of the report they return and the batch
// report's bytes. The chunk grain is 1, so the report's per-trace loops
// split even these small corpora into one chunk per worker. Variants
// cover estimation noise (Step-1 purity under the per-bundle seeded
// RNG), a cache far smaller than the corpus (eviction must cost time,
// never correctness), a pool holding traces with non-finite Step-1
// powers, which the summaries cannot represent (while one is in the
// corpus every engine must fail with the batch pipeline's error, and
// once it leaves the sublinear path resumes), and a pool holding a
// trace that makes Step 4 fail on several others on the sublinear
// path, where the error must name the batch pipeline's lowest failing
// trace.
func TestIncrementalMatchesBatch(t *testing.T) {
	t.Cleanup(core.SetChunkGrain(1))
	variants := []struct {
		name      string
		noise     float64
		cacheCap  int
		mutations int
		device    string // device the moved pool indices are recorded on
		moved     []int
	}{
		{"no-noise", 0, 0, 120, "", nil},
		{"paper-noise", power.PaperNoiseFrac, 0, 120, "", nil},
		{"tiny-cache", 0, 3, 80, "", nil},
		{"non-finite", 0, 0, 120, infiniteDevice, []int{3, 9}},
		{"detect-error", 0, 0, 120, dimDevice, []int{3}},
	}
	basePool := bundlePool(t, 14, 41)
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.EstimationNoiseFrac = v.noise
			cfg.NoiseSeed = 7
			pool := append([]*trace.TraceBundle(nil), basePool...)
			if len(v.moved) > 0 {
				cfg.Devices = deviceRegistry(t)
				for _, i := range v.moved {
					b := *pool[i]
					b.Key = ""
					b.Event.Device = v.device
					pool[i] = &b
				}
			}
			batch, err := core.NewAnalyzer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := core.NewIncrementalAnalyzer(cfg, v.cacheCap)
			if err != nil {
				t.Fatal(err)
			}
			// Analyzers answering ReportJSON, by Parallelism.
			encoders := map[int]*core.IncrementalAnalyzer{}
			for _, p := range []int{1, 4} {
				ecfg := cfg
				ecfg.Parallelism = p
				if encoders[p], err = core.NewIncrementalAnalyzer(ecfg, v.cacheCap); err != nil {
					t.Fatal(err)
				}
			}
			add := func(b *trace.TraceBundle) (string, bool) {
				key, added := inc.Add(b)
				for p, e := range encoders {
					if k, a := e.Add(b); k != key || a != added {
						t.Fatalf("parallelism-%d analyzer: Add = (%s, %v), want (%s, %v)", p, k, a, key, added)
					}
				}
				return key, added
			}
			remove := func(key string) bool {
				removed := inc.Remove(key)
				for p, e := range encoders {
					if r := e.Remove(key); r != removed {
						t.Fatalf("parallelism-%d analyzer: Remove = %v, want %v", p, r, removed)
					}
				}
				return removed
			}
			var failed, served int // non-empty corpora that failed / were served

			rng := rand.New(rand.NewSource(1000 + int64(len(v.name))))
			var m mirror
			removed := make(map[string]*trace.TraceBundle) // key -> bundle, for re-adds
			next := 0                                      // next unseen pool bundle

			check := func(step int) {
				t.Helper()
				got, gotErr := inc.Report()
				if len(m.bundles) == 0 {
					if !errors.Is(gotErr, core.ErrNoTraces) {
						t.Fatalf("step %d: empty corpus: got %v, want ErrNoTraces", step, gotErr)
					}
					for p, e := range encoders {
						if _, _, err := e.ReportJSON(); !errors.Is(err, core.ErrNoTraces) {
							t.Fatalf("step %d: empty corpus: ReportJSON at parallelism %d: got %v, want ErrNoTraces", step, p, err)
						}
					}
					return
				}
				want, wantErr := batch.Analyze(m.bundles)
				if wantErr != nil {
					if len(v.moved) == 0 {
						t.Fatalf("step %d: batch analyze: %v", step, wantErr)
					}
					failed++
					if gotErr == nil || gotErr.Error() != wantErr.Error() {
						t.Fatalf("step %d: incremental error %v, want batch error %v", step, gotErr, wantErr)
					}
					for p, e := range encoders {
						if _, _, err := e.ReportJSON(); err == nil || err.Error() != wantErr.Error() {
							t.Fatalf("step %d: ReportJSON at parallelism %d: error %v, want batch error %v", step, p, err, wantErr)
						}
					}
					return
				}
				if gotErr != nil {
					t.Fatalf("step %d: incremental report: %v", step, gotErr)
				}
				wj, wantEnc := json.Marshal(want)
				gj, gotEnc := json.Marshal(got)
				if wantEnc != nil {
					// A trace too short for Step 4's fences keeps a
					// non-finite normalized power: the corpus analyzes
					// but its report does not encode, and every engine
					// must fail to encode it with json.Marshal's error.
					if len(v.moved) == 0 {
						t.Fatalf("step %d: encoding the batch report: %v", step, wantEnc)
					}
					failed++
					if gotEnc == nil || gotEnc.Error() != wantEnc.Error() {
						t.Fatalf("step %d: encoding the incremental report: error %v, want batch error %v", step, gotEnc, wantEnc)
					}
					for p, e := range encoders {
						if _, _, err := e.ReportJSON(); err == nil || err.Error() != wantEnc.Error() {
							t.Fatalf("step %d: ReportJSON at parallelism %d: error %v, want batch error %v", step, p, err, wantEnc)
						}
					}
					return
				}
				if gotEnc != nil {
					t.Fatalf("step %d: encoding the incremental report: %v", step, gotEnc)
				}
				served++
				if !bytes.Equal(gj, wj) {
					t.Fatalf("step %d: incremental report diverged from batch over %d bundles:\nincremental: %.200s\nbatch:       %.200s",
						step, len(m.bundles), gj, wj)
				}
				for p, e := range encoders {
					r, data, err := e.ReportJSON()
					if err != nil {
						t.Fatalf("step %d: ReportJSON at parallelism %d: %v", step, p, err)
					}
					if rj := reportJSON(t, r); !bytes.Equal(data, rj) {
						t.Fatalf("step %d: ReportJSON at parallelism %d: bytes differ from json.Marshal of its report:\nReportJSON:   %.200s\njson.Marshal: %.200s",
							step, p, data, rj)
					}
					if !bytes.Equal(data, wj) {
						t.Fatalf("step %d: ReportJSON at parallelism %d diverged from batch", step, p)
					}
				}
			}

			for step := 0; step < v.mutations; step++ {
				op := rng.Intn(4)
				switch {
				case op == 0 && next < len(pool): // add an unseen bundle
					b := pool[next]
					next++
					key, added := add(b)
					if !added {
						t.Fatalf("step %d: fresh bundle %s reported as duplicate", step, key)
					}
					m.add(key, b)
				case op == 1 && len(m.keys) > 0: // remove a random corpus bundle
					key := m.keys[rng.Intn(len(m.keys))]
					removed[key] = nil
					for i, k := range m.keys {
						if k == key {
							removed[key] = m.bundles[i]
							break
						}
					}
					if !remove(key) {
						t.Fatalf("step %d: remove of present key %s returned false", step, key)
					}
					m.remove(key)
				case op == 2 && len(removed) > 0: // re-add a removed bundle (cache hit)
					var key string
					for k := range removed {
						key = k
						break
					}
					b := removed[key]
					delete(removed, key)
					k2, added := add(b)
					if k2 != key {
						t.Fatalf("step %d: re-add changed content key: %s -> %s", step, key, k2)
					}
					if !added {
						t.Fatalf("step %d: re-add of absent key %s reported as duplicate", step, key)
					}
					m.add(key, b)
				case op == 3 && len(m.keys) > 0: // duplicate add: must be a no-op
					i := rng.Intn(len(m.bundles))
					before := inc.Len()
					if _, added := add(m.bundles[i]); added {
						t.Fatalf("step %d: duplicate add of %s was not deduplicated", step, m.keys[i])
					}
					if inc.Len() != before {
						t.Fatalf("step %d: duplicate add changed corpus size %d -> %d", step, before, inc.Len())
					}
				default: // op not applicable in this state; add if possible
					if next < len(pool) {
						b := pool[next]
						next++
						key, _ := add(b)
						m.add(key, b)
					}
				}
				check(step)
			}
			if inc.Len() != len(m.bundles) {
				t.Fatalf("corpus size diverged: incremental %d, mirror %d", inc.Len(), len(m.bundles))
			}
			st := inc.CacheStats()
			if st.Hits+st.Misses != st.Lookups {
				t.Fatalf("cache stats do not reconcile: hits %d + misses %d != lookups %d", st.Hits, st.Misses, st.Lookups)
			}
			if v.cacheCap <= 0 && st.Evictions != 0 {
				t.Fatalf("unbounded-enough cache evicted %d entries", st.Evictions)
			}
			if v.cacheCap == 3 && st.Evictions == 0 {
				t.Fatal("tiny cache variant never evicted; eviction-then-recompute path untested")
			}
			if len(v.moved) > 0 && (failed == 0 || served == 0) {
				t.Fatalf("%s variant failed %d and served %d corpora; want both paths exercised", v.name, failed, served)
			}
		})
	}
}

// TestIncrementalSkipInvalidMatchesBatch extends the differential
// check to the graceful-degradation path: corrupt bundles under
// SkipInvalidTraces must produce identical Skipped entries (including
// corpus indices) from both engines, and the negative cache must not
// distort later reports.
func TestIncrementalSkipInvalidMatchesBatch(t *testing.T) {
	pool := bundlePool(t, 8, 43)
	// Corrupt two bundles in ways Step 1 rejects: an unknown device and
	// an invalid utilization period.
	bad1 := *pool[2]
	bad1.Key = ""
	bad1.Event.Device = "no-such-device"
	bad2 := *pool[5]
	bad2.Key = ""
	bad2.Util.PeriodMS = -1
	corpus := []*trace.TraceBundle{pool[0], &bad1, pool[1], &bad2, pool[3]}

	cfg := core.DefaultConfig()
	cfg.SkipInvalidTraces = true
	batch, err := core.NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := core.NewIncrementalAnalyzer(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range corpus {
		inc.Add(b)
	}
	for round := 0; round < 2; round++ { // round 2 serves Step-1 failures from the negative cache
		got, err := inc.Report()
		if err != nil {
			t.Fatalf("round %d: incremental: %v", round, err)
		}
		want, err := batch.Analyze(corpus)
		if err != nil {
			t.Fatalf("round %d: batch: %v", round, err)
		}
		if gj, wj := reportJSON(t, got), reportJSON(t, want); !bytes.Equal(gj, wj) {
			t.Fatalf("round %d: lenient incremental report diverged from batch", round)
		}
		if len(got.Skipped) != 2 {
			t.Fatalf("round %d: skipped %d traces, want 2", round, len(got.Skipped))
		}
	}
	// Strict mode: both engines must fail on the same bundle.
	cfg.SkipInvalidTraces = false
	strictBatch, err := core.NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	strictInc, err := core.NewIncrementalAnalyzer(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range corpus {
		strictInc.Add(b)
	}
	_, batchErr := strictBatch.Analyze(corpus)
	_, incErr := strictInc.Report()
	if batchErr == nil || incErr == nil {
		t.Fatalf("strict mode did not fail: batch %v, incremental %v", batchErr, incErr)
	}
	if batchErr.Error() != incErr.Error() {
		t.Fatalf("strict errors diverge:\nbatch:       %v\nincremental: %v", batchErr, incErr)
	}
}

// TestServedReportDetachedFromAnalyzerState is the regression test for
// the served-report aliasing fix: a caller holding a long-lived report
// (an online serving handler's client) may mutate anything reachable
// from it — TopEvents/TopKeys results, the impact table, even the
// per-trace Step-1 vectors — without changing what the analyzer serves
// next.
func TestServedReportDetachedFromAnalyzerState(t *testing.T) {
	pool := bundlePool(t, 6, 47)
	inc, err := core.NewIncrementalAnalyzer(core.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range pool {
		inc.Add(b)
	}
	served, err := inc.Report()
	if err != nil {
		t.Fatal(err)
	}
	want := reportJSON(t, served) // snapshot before any mutation

	// Vandalize everything a handler could leak to a client.
	if top := served.TopEvents(0); len(top) > 0 {
		top[0].Key.Class = "Lmutated/by/caller"
		top[0].Percent = -1
		top[0].Traces = 1 << 30
	}
	if keys := served.TopKeys(0); len(keys) > 0 {
		keys[0].Callback = "mutated"
	}
	if len(served.Impacted) > 0 {
		served.Impacted[0].Percent = 123456
	}
	for _, at := range served.Traces {
		for i := range at.Events {
			at.Events[i].PowerMW = -999
			at.Events[i].Instance.Key.Class = "Lclobbered"
		}
		for i := range at.Rank {
			at.Rank[i] = -1
		}
		at.Manifestations = append(at.Manifestations, 0)
		at.WindowKeys = nil
	}

	again, err := inc.Report()
	if err != nil {
		t.Fatal(err)
	}
	if got := reportJSON(t, again); !bytes.Equal(got, want) {
		t.Fatal("mutating a served report changed the next report: analyzer state was aliased")
	}
}

// TestIncrementalConcurrentUse exercises Add/Remove/Report/ReportJSON/
// CacheStats racing from many goroutines; correctness here is "no race,
// no panic, reports internally consistent", pinned under -race in CI.
// ReportJSON encodes outside the analyzer lock, from cached bytes that
// a concurrent ReportJSON may be filling for other traces; the chunk
// grain is 1, so the report's per-trace loops run on several workers.
func TestIncrementalConcurrentUse(t *testing.T) {
	t.Cleanup(core.SetChunkGrain(1))
	pool := bundlePool(t, 10, 53)
	inc, err := core.NewIncrementalAnalyzer(core.DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(pool))
	for i, b := range pool {
		keys[i], _ = inc.Add(b)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 15; i++ {
				switch rng.Intn(4) {
				case 0:
					k := keys[rng.Intn(len(keys))]
					inc.Remove(k)
					inc.Add(pool[indexOf(keys, k)])
				case 1:
					if r, err := inc.Report(); err == nil {
						if r.TotalTraces != len(r.Traces) {
							t.Errorf("inconsistent report: TotalTraces %d, traces %d", r.TotalTraces, len(r.Traces))
						}
					}
				case 2:
					if r, data, err := inc.ReportJSON(); err == nil {
						if rj, err := json.Marshal(r); err != nil || !bytes.Equal(data, rj) {
							t.Errorf("ReportJSON bytes differ from json.Marshal of its report (marshal error %v)", err)
						}
					}
				default:
					st := inc.CacheStats()
					if st.Hits+st.Misses != st.Lookups {
						t.Errorf("stats racing apart: %+v", st)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestReportJSONCachesOnlyCurrentColumns: a ReportJSON encodes its
// report after releasing the analyzer lock and caches the parts it
// encoded afterwards. When another mutation and report re-normalize a
// trace in between, the encoding of the replaced columns must not be
// cached, or every later ReportJSON would serve it.
func TestReportJSONCachesOnlyCurrentColumns(t *testing.T) {
	pool := bundlePool(t, 12, 73)
	cfg := core.DefaultConfig()
	inc, err := core.NewIncrementalAnalyzer(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range pool[:8] {
		inc.Add(b)
	}
	if _, _, err := inc.ReportJSON(); err != nil {
		t.Fatal(err)
	}
	inc.Add(pool[8])
	if _, _, err := inc.ReportJSONWith(func() {
		inc.Add(pool[9])
		if _, err := inc.Report(); err != nil {
			t.Fatal(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if inc.SummaryStats().DetectDirtyTraces == 0 {
		t.Fatal("the interleaved report re-normalized no trace; the test exercises nothing")
	}
	batch, err := core.NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := batch.Analyze(pool[:10])
	if err != nil {
		t.Fatal(err)
	}
	_, data, err := inc.ReportJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, reportJSON(t, want)) {
		t.Fatal("ReportJSON served a detection encoding cached from columns replaced while it was encoded")
	}
}

func indexOf(keys []string, k string) int {
	for i, key := range keys {
		if key == k {
			return i
		}
	}
	panic(fmt.Sprintf("key %s not in pool", k))
}

// TestTopEventsTopKeysDefensiveCopies pins the defensive-copy contract
// of the report accessors on the plain batch path too: mutating their
// results must not change the report.
func TestTopEventsTopKeysDefensiveCopies(t *testing.T) {
	pool := bundlePool(t, 6, 59)
	analyzer, err := core.NewAnalyzer(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	report, err := analyzer.Analyze(pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Impacted) == 0 {
		t.Fatal("corpus produced no impacted events; pick a different seed")
	}
	want := reportJSON(t, report)

	top := report.TopEvents(len(report.Impacted))
	for i := range top {
		top[i].Key = trace.EventKey{Class: "Ljunk", Callback: "junk"}
		top[i].Traces = -1
		top[i].Percent = -1
	}
	keys := report.TopKeys(len(report.Impacted))
	for i := range keys {
		keys[i] = trace.EventKey{Class: "Lmore/junk", Callback: "junk"}
	}
	if got := reportJSON(t, report); !bytes.Equal(got, want) {
		t.Fatal("mutating TopEvents/TopKeys results changed the report")
	}
}
