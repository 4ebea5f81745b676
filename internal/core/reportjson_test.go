package core_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/trace"
	"repro/internal/workload"
)

// renamedCorpus returns a copy of corpus whose first two bundles carry
// the given trace ID, user ID, device and event class (an empty string
// keeps the original). The class replaces the class of the first
// bundle's first record wherever it occurs in the two bundles, so the
// renamed key still groups across traces. The config's device registry
// maps a new device name to the Nexus 6 profile.
func renamedCorpus(t testing.TB, corpus []*trace.TraceBundle, traceID, userID, dev, class string) ([]*trace.TraceBundle, core.Config) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.SkipInvalidTraces = true
	if dev != "" {
		reg := device.NewRegistry()
		p, err := reg.Lookup("nexus6")
		if err != nil {
			t.Fatal(err)
		}
		p.Name = dev
		reg.Register(p)
		cfg.Devices = reg
	}
	out := append([]*trace.TraceBundle(nil), corpus...)
	var from string
	if len(corpus[0].Event.Records) > 0 {
		from = corpus[0].Event.Records[0].Key.Class
	}
	for i := 0; i < 2 && i < len(out); i++ {
		b := *out[i]
		b.Key = ""
		if traceID != "" {
			b.Event.TraceID = traceID + string(rune('0'+i))
		}
		if userID != "" {
			b.Event.UserID = userID
		}
		if dev != "" {
			b.Event.Device = dev
		}
		if class != "" {
			b.Event.Records = append([]trace.Record(nil), b.Event.Records...)
			for j := range b.Event.Records {
				if b.Event.Records[j].Key.Class == from {
					b.Event.Records[j].Key.Class = class
				}
			}
		}
		out[i] = &b
	}
	return out, cfg
}

// checkReportJSON holds ReportJSON, at Parallelism 1 and 4, to
// json.Marshal of the report it returns and to the batch report's
// bytes, and the encoder itself to json.Marshal on the batch report,
// whose traces carry no cached parts. The chunk grain is 1, so the
// encoder splits even these small reports into one chunk per worker.
// It returns the bytes.
func checkReportJSON(t testing.TB, cfg core.Config, corpus []*trace.TraceBundle) []byte {
	t.Helper()
	defer core.SetChunkGrain(1)()
	batch, err := core.NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, wantErr := batch.Analyze(corpus)
	var wj []byte
	if wantErr == nil {
		if wj, err = json.Marshal(want); err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 4} {
			enc, err := core.EncodeReport(want, p)
			if err != nil || !bytes.Equal(enc, wj) {
				t.Fatalf("encoding the batch report at parallelism %d: err %v, bytes differ from json.Marshal: %v", p, err, !bytes.Equal(enc, wj))
			}
		}
	}
	for _, p := range []int{1, 4} {
		icfg := cfg
		icfg.Parallelism = p
		inc, err := core.NewIncrementalAnalyzer(icfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range corpus {
			inc.Add(b)
		}
		// Twice: the first call fills the JSON caches, the second
		// serves from them.
		for round := 0; round < 2; round++ {
			r, data, err := inc.ReportJSON()
			if wantErr != nil {
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("parallelism %d round %d: ReportJSON error %v, want batch error %v", p, round, err, wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("parallelism %d round %d: ReportJSON: %v", p, round, err)
			}
			rj, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, rj) {
				t.Fatalf("parallelism %d round %d: ReportJSON bytes differ from json.Marshal of its report:\nReportJSON:   %.300s\njson.Marshal: %.300s", p, round, data, rj)
			}
			if !bytes.Equal(data, wj) {
				t.Fatalf("parallelism %d round %d: ReportJSON bytes differ from the batch report's", p, round)
			}
		}
	}
	return wj
}

// TestReportJSONEscapesStrings feeds the encoder trace, user, device and
// class strings that json.Marshal rewrites: the HTML-sensitive <, > and
// &, the line separator U+2028 that is valid JSON but not valid
// JavaScript, and invalid UTF-8, which becomes U+FFFD.
func TestReportJSONEscapesStrings(t *testing.T) {
	corpus, cfg := renamedCorpus(t, bundlePool(t, 6, 61),
		"<trace>&\u2028", "user\xff<&>", "dev<ice>\u2028&\xfe", "Lcom/<esc>\u2028&\xff")
	data := checkReportJSON(t, cfg, corpus)
	if data == nil {
		t.Fatal("escaping corpus did not produce a report")
	}
	if bytes.Contains(data, []byte(`"skipped"`)) {
		t.Fatal("escaping corpus skipped a trace; the escapes would not reach the Step-1 prefix")
	}
	for _, esc := range []string{
		`"traceId":"\u003ctrace\u003e\u0026\u20280"`,
		`"userId":"user\ufffd\u003c\u0026\u003e"`,
		`"device":"dev\u003cice\u003e\u2028\u0026\ufffd"`,
		`"class":"Lcom/\u003cesc\u003e\u2028\u0026\ufffd"`,
	} {
		if !bytes.Contains(data, []byte(esc)) {
			t.Errorf("served report lacks %s", esc)
		}
	}
}

// FuzzReportJSON holds the serving encoder to json.Marshal on the
// golden corpora with fuzzed trace, user, device and class strings.
// Names that Step 1 rejects land in the report's skipped list, so the
// tail is fuzzed too.
func FuzzReportJSON(f *testing.F) {
	var corpora [][]*trace.TraceBundle
	for _, tc := range goldenCases {
		app, err := apps.ByAppID(tc.appID)
		if err != nil {
			f.Fatal(err)
		}
		wcfg := workload.DefaultConfig(app, goldenSeed)
		wcfg.Users = tc.users
		res, err := workload.Generate(wcfg)
		if err != nil {
			f.Fatal(err)
		}
		corpora = append(corpora, res.Bundles)
	}
	for i := range corpora {
		f.Add(uint8(i), "", "", "", "")
		f.Add(uint8(i), "<t>&\u2028", "u\xff", "d<\u2029>", "L<c>&\xfe")
	}
	f.Add(uint8(0), "t", "u", "nexus5", "La;b")
	f.Fuzz(func(t *testing.T, which uint8, traceID, userID, dev, class string) {
		corpus, cfg := renamedCorpus(t, corpora[int(which)%len(corpora)], traceID, userID, dev, class)
		checkReportJSON(t, cfg, corpus)
	})
}

// TestAppendFloatsMatchesMarshal holds the rank-column encoder to
// json.Marshal of a []float64 across both of its formats (plain and
// exponent, with the exponent's padding trimmed), their boundaries,
// negative zero, nil versus empty, and the non-finite error.
func TestAppendFloatsMatchesMarshal(t *testing.T) {
	cases := [][]float64{
		nil,
		{},
		{0, math.Copysign(0, -1), 1, 1.5, -2.25, 10007.5},
		{1e-6, 9.999999e-7, 1e-7, 1.5e-9, 1e-10, 5e-324, math.SmallestNonzeroFloat64},
		{1e20, 1e21, 9.999999999999999e20, 1.2345e21, 1e100, math.MaxFloat64, -1e21, -3e-8},
		{0.1, 0.2, 0.30000000000000004, 1.0 / 3, 2.0 / 3, 123456789.123456789},
		{1, math.Inf(1)},
		{math.NaN()},
		{math.Inf(-1), 2},
	}
	rng := rand.New(rand.NewSource(67))
	for i := 0; i < 200; i++ {
		fs := make([]float64, 1+rng.Intn(5))
		for j := range fs {
			fs[j] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
		}
		cases = append(cases, fs)
	}
	for _, fs := range cases {
		want, wantErr := json.Marshal(fs)
		got, gotErr := core.AppendFloats([]byte("x"), fs)
		if wantErr != nil {
			if gotErr == nil || gotErr.Error() != wantErr.Error() {
				t.Errorf("%v: error %v, want json.Marshal's %v", fs, gotErr, wantErr)
			}
			continue
		}
		if gotErr != nil || string(got) != "x"+string(want) {
			t.Errorf("%v: got %s (error %v), want x%s", fs, got, gotErr, want)
		}
	}
}
