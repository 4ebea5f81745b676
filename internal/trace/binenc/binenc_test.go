package binenc

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/trace"
	"repro/internal/workload"
)

// edgeBundles are hand-built bundles covering the encoding's corner
// cases: nil vs empty slices, unicode strings, negative and unsorted
// timestamps, direction bit packing across byte boundaries, repeated
// dictionary keys, and extreme integer values.
func edgeBundles() []*trace.TraceBundle {
	k := func(class, cb string) trace.EventKey { return trace.EventKey{Class: class, Callback: cb} }
	rec := func(ts int64, dir trace.Direction, key trace.EventKey) trace.Record {
		return trace.Record{TimestampMS: ts, Dir: dir, Key: key}
	}
	manyRecs := make([]trace.Record, 19) // crosses two direction-bit bytes
	for i := range manyRecs {
		dir := trace.Enter
		if i%3 == 0 {
			dir = trace.Exit
		}
		manyRecs[i] = rec(int64(i)*250, dir, k("Cls", "cb"))
	}
	var extremeUtil trace.UtilizationVector
	for i := range extremeUtil {
		extremeUtil[i] = -1.7e308 / float64(i+1) // huge but finite: JSON-representable
	}
	return []*trace.TraceBundle{
		{}, // zero value: nil records, nil samples, empty strings
		{
			Event: trace.EventTrace{AppID: "app", Records: []trace.Record{}},
			Util:  trace.UtilizationTrace{AppID: "app", Samples: []trace.UtilizationSample{}},
		},
		{
			Key: "0123456789abcdef",
			Event: trace.EventTrace{
				AppID: "com.example.mail", UserID: "u-1", Device: "nexus6", TraceID: "t-9",
				Records: []trace.Record{
					rec(1000, trace.Enter, k("MainActivity", "onCreate")),
					rec(1004, trace.Exit, k("MainActivity", "onCreate")),
					rec(1010, trace.Enter, k("SyncService", "onStartCommand")),
					rec(1500, trace.Exit, k("SyncService", "onStartCommand")),
				},
			},
			Util: trace.UtilizationTrace{
				AppID: "com.example.mail", PID: 4321, PeriodMS: 500,
				Samples: []trace.UtilizationSample{
					{TimestampMS: 1000, Util: trace.UtilizationVector{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}},
					{TimestampMS: 1500, Util: trace.UtilizationVector{0, 0, 0, 0, 0, 0, 1}},
				},
			},
		},
		{
			Event: trace.EventTrace{
				AppID: "приложение/テスト", UserID: strings.Repeat("長", 40), Device: "déjà-vu",
				Records: []trace.Record{
					rec(-5000, trace.Exit, k("雪", "溶ける")),
					rec(9_223_372_036_854_000, trace.Enter, k("", "")),
					rec(-9_000_000_000_000_000, trace.Exit, k("雪", "溶ける")),
				},
			},
			Util: trace.UtilizationTrace{
				AppID: "приложение/テスト", PID: -7, PeriodMS: -250,
				Samples: []trace.UtilizationSample{
					{TimestampMS: -1, Util: extremeUtil},
				},
			},
		},
		{
			Event: trace.EventTrace{AppID: "bitpack", Records: manyRecs},
			Util:  trace.UtilizationTrace{AppID: "bitpack", PID: 1},
		},
	}
}

// corpus returns the differential corpus: a full workload generation
// (what production encodes) plus the hand-built edge bundles.
func corpus(t *testing.T) []*trace.TraceBundle {
	t.Helper()
	app, err := apps.ByAppID("k9mail")
	if err != nil {
		t.Fatalf("ByAppID: %v", err)
	}
	cfg := workload.DefaultConfig(app, 42)
	cfg.Users = 6
	res, err := workload.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	bs := append([]*trace.TraceBundle{}, res.Bundles...)
	for _, b := range res.Bundles[:min(4, len(res.Bundles))] {
		stamped := *b
		stamped.Key = trace.ContentKey(b)
		bs = append(bs, &stamped)
	}
	return append(bs, edgeBundles()...)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func mustEncode(t *testing.T, b *trace.TraceBundle) []byte {
	t.Helper()
	payload, err := EncodeBundle(nil, b)
	if err != nil {
		t.Fatalf("EncodeBundle: %v", err)
	}
	return payload
}

func textLine(t *testing.T, b *trace.TraceBundle) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.EncodeBundle(&buf, b); err != nil {
		t.Fatalf("text EncodeBundle: %v", err)
	}
	return buf.Bytes()
}

// TestDifferentialVsTextCodec is the conformance gate: for every bundle
// in the corpus, decoding the binary payload and re-serializing through
// the Fig-5 text codec must be byte-identical to serializing the
// original bundle directly — the two wire formats describe the same
// bundles exactly, nil/empty distinction included.
func TestDifferentialVsTextCodec(t *testing.T) {
	for i, b := range corpus(t) {
		want := textLine(t, b)
		got, err := DecodeBundle(mustEncode(t, b))
		if err != nil {
			t.Fatalf("bundle %d: DecodeBundle: %v", i, err)
		}
		if line := textLine(t, got); !bytes.Equal(line, want) {
			t.Fatalf("bundle %d: binary round trip diverges from text codec\n text: %s\n  bin: %s", i, want, line)
		}
		if !reflect.DeepEqual(got, b) {
			t.Fatalf("bundle %d: decoded bundle not deeply equal", i)
		}
		// The text codec's own round trip must agree too (decoded
		// structs equal, not just serialized bytes).
		fromText, err := trace.DecodeBundle(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("bundle %d: text DecodeBundle: %v", i, err)
		}
		if !reflect.DeepEqual(got, fromText) {
			t.Fatalf("bundle %d: binary and text decodes disagree", i)
		}
	}
}

// TestContentKeySurvivesBinaryRoundTrip: the idempotency key computed
// from a binary-decoded bundle matches the original — the dedup
// machinery cannot tell the two wire formats apart.
func TestContentKeySurvivesBinaryRoundTrip(t *testing.T) {
	for i, b := range corpus(t) {
		got, err := DecodeBundle(mustEncode(t, b))
		if err != nil {
			t.Fatalf("bundle %d: %v", i, err)
		}
		if gk, wk := trace.ContentKey(got), trace.ContentKey(b); gk != wk {
			t.Fatalf("bundle %d: content key %s != %s after round trip", i, gk, wk)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	var payloads [][]byte
	for _, b := range edgeBundles() {
		p := mustEncode(t, b)
		payloads = append(payloads, p)
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	// AppendFrame and WriteFrame must produce identical bytes.
	var appended []byte
	for _, p := range payloads {
		appended = AppendFrame(appended, p)
	}
	if !bytes.Equal(appended, buf.Bytes()) {
		t.Fatal("AppendFrame and WriteFrame disagree")
	}
	r := bytes.NewReader(buf.Bytes())
	for i, want := range payloads {
		got, err := ReadFrame(r, 0)
		if err != nil {
			t.Fatalf("frame %d: ReadFrame: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if _, err := ReadFrame(r, 0); err != io.EOF {
		t.Fatalf("want clean io.EOF at end of stream, got %v", err)
	}
}

// TestFrameTornTail: every strict prefix of a framed stream must fail
// with io.ErrUnexpectedEOF (torn mid-frame), except prefixes ending at a
// frame boundary, which end with clean io.EOF. This is the signal the
// segment replay uses to truncate a torn tail without discarding the
// preceding good records.
func TestFrameTornTail(t *testing.T) {
	payload := mustEncode(t, edgeBundles()[2])
	framed := AppendFrame(nil, payload)
	framed = AppendFrame(framed, payload)
	boundary := frameHeaderLen + len(payload)
	for cut := 0; cut < len(framed); cut++ {
		r := bytes.NewReader(framed[:cut])
		var err error
		for err == nil {
			_, err = ReadFrame(r, 0)
		}
		if cut == 0 || cut == boundary {
			if err != io.EOF {
				t.Fatalf("cut %d (boundary): want io.EOF, got %v", cut, err)
			}
		} else if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: want io.ErrUnexpectedEOF, got %v", cut, err)
		}
	}
}

// TestCorruptFrameErrorParity flips every single byte of a framed
// binary bundle and asserts the frame reader rejects each mutation —
// matching the text codec, where corrupting a stored line is caught by
// JSON/grammar validation. No single-byte corruption is silent in
// either format.
func TestCorruptFrameErrorParity(t *testing.T) {
	payload := mustEncode(t, edgeBundles()[2])
	framed := AppendFrame(nil, payload)
	for i := range framed {
		mut := append([]byte(nil), framed...)
		mut[i] ^= 0x40
		got, err := ReadFrame(bytes.NewReader(mut), 0)
		if err == nil {
			// A flip in the length prefix can shorten the declared
			// length so the CRC no longer matches — ReadFrame must
			// never return a payload that differs from the original.
			t.Fatalf("byte %d: corruption accepted (payload %d bytes)", i, len(got))
		}
		if !errors.Is(err, ErrCRCMismatch) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("byte %d: unexpected error class %v", i, err)
		}
	}

	// Text-side parity: corrupting the stored JSON line is detected
	// either by the decoder or by content-key verification.
	b := edgeBundles()[2]
	b.Key = trace.ContentKey(b)
	line := textLine(t, b)
	for i := 0; i < len(line)-1; i++ { // skip trailing newline
		mut := append([]byte(nil), line...)
		mut[i] ^= 0x40
		dec, err := trace.DecodeBundle(bytes.NewReader(mut))
		if err != nil || trace.VerifyContentKey(dec) != nil {
			continue // rejected — parity holds
		}
		// The one tolerated mutation class: corrupting the "key" field
		// *name* makes it an unknown JSON field, so the bundle decodes
		// as a legacy unkeyed upload, which key verification permits
		// by design. Anything else slipping through is a real gap.
		if dec.Key == "" && b.Key != "" {
			continue
		}
		t.Fatalf("text codec: silent corruption at byte %d (%q -> %q)", i, line[i], mut[i])
	}
}

func TestReadFrameTooLarge(t *testing.T) {
	framed := AppendFrame(nil, make([]byte, 100))
	if _, err := ReadFrame(bytes.NewReader(framed), 50); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
	if _, err := ReadFrame(bytes.NewReader(framed), 100); err != nil {
		t.Fatalf("payload at limit must pass: %v", err)
	}
}

func TestEncodeRejectsInvalidDirection(t *testing.T) {
	b := &trace.TraceBundle{Event: trace.EventTrace{
		Records: []trace.Record{{TimestampMS: 1, Dir: 3}},
	}}
	if _, err := EncodeBundle(nil, b); err == nil {
		t.Fatal("want error for invalid direction")
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	payload := mustEncode(t, edgeBundles()[2])
	payload[0] = 99
	if _, err := DecodeBundle(payload); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("want ErrBadVersion, got %v", err)
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	payload := mustEncode(t, edgeBundles()[2])
	if _, err := DecodeBundle(append(payload, 0)); err == nil {
		t.Fatal("want error for trailing bytes")
	}
}

// TestDecodeTruncatedPayload: every strict prefix of a valid payload
// must error, never silently decode.
func TestDecodeTruncatedPayload(t *testing.T) {
	for i, b := range edgeBundles() {
		payload := mustEncode(t, b)
		for cut := 0; cut < len(payload); cut++ {
			if _, err := DecodeBundle(payload[:cut]); err == nil {
				t.Fatalf("bundle %d: prefix of %d/%d bytes decoded without error", i, cut, len(payload))
			}
		}
	}
}

// TestBinarySmallerThanText sanity-checks the size win that motivates
// the codec on realistic workload traffic.
func TestBinarySmallerThanText(t *testing.T) {
	app, err := apps.ByAppID("k9mail")
	if err != nil {
		t.Fatalf("ByAppID: %v", err)
	}
	cfg := workload.DefaultConfig(app, 7)
	cfg.Users = 4
	res, err := workload.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	var textN, binN int
	for _, b := range res.Bundles {
		textN += len(textLine(t, b))
		binN += frameHeaderLen + len(mustEncode(t, b))
	}
	if binN >= textN {
		t.Fatalf("binary frames (%d B) not smaller than text lines (%d B)", binN, textN)
	}
	t.Logf("corpus size: text %d B, binary %d B (%.1f%%)", textN, binN, 100*float64(binN)/float64(textN))
}
