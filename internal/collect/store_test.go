package collect

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/collect/seglog"
	"repro/internal/trace"
	"repro/internal/trace/binenc"
)

func TestSegStoreAppendAndLoad(t *testing.T) {
	dir := t.TempDir()
	store, err := NewSegStore(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range []*trace.TraceBundle{
		bundle("k9mail", "u1", "t1"),
		bundle("k9mail", "u2", "t2"),
		bundle("opengps", "u1", "t1"),
	} {
		if err := store.Append(b); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := NewSegStore(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	loaded, skipped, err := reopened.Load()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("skipped = %d lines on a clean store", skipped)
	}
	if len(loaded["k9mail"]) != 2 || len(loaded["opengps"]) != 1 {
		t.Errorf("loaded = %d k9, %d gps", len(loaded["k9mail"]), len(loaded["opengps"]))
	}
}

// corruptRecordBody rewrites the first body byte of the single record
// in dir's only segment and recomputes the frame CRC, so the record
// replays cleanly but its body no longer decodes.
func corruptRecordBody(t *testing.T, dir string, to byte) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (%v), want one", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Frame: u32le length, u32le CRC-32C, payload. Payload: u8 type,
	// uvarint key length (keys here are < 128 bytes), key, body.
	payload := data[binenc.FrameOverhead:]
	if int(binary.LittleEndian.Uint32(data[0:4])) != len(payload) {
		t.Fatalf("segment holds more than one record")
	}
	payload[2+int(payload[1])] = to
	binary.LittleEndian.PutUint32(data[4:8], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSegStoreSurfacesUndecodableRecords: a record whose CRC checks out
// but whose body does not decode fails Load, Scan and LoadQuarantine
// with an error naming the segment and the key; it is never skipped as
// if it were not there.
func TestSegStoreSurfacesUndecodableRecords(t *testing.T) {
	open := func(dir string) *SegStore {
		t.Helper()
		store, err := NewSegStore(dir, seglog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return store
	}

	bundleDir := t.TempDir()
	store := open(bundleDir)
	b := bundle("k9mail", "u1", "t1")
	b.Key = trace.ContentKey(b)
	if err := store.Append(b); err != nil {
		t.Fatal(err)
	}
	store.Close()
	corruptRecordBody(t, bundleDir, 0xff) // an unknown binenc version
	store = open(bundleDir)
	defer store.Close()
	loaded, skipped, err := store.Load()
	if err == nil {
		t.Fatalf("Load of an undecodable bundle succeeded: %d apps, %d skipped", len(loaded), skipped)
	}
	for _, want := range []string{"seg-", b.Key, "decode bundle"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("Load error %q does not name %q", err, want)
		}
	}
	if err := store.Scan(func(*trace.TraceBundle) error { return nil }); err == nil {
		t.Error("Scan of an undecodable bundle succeeded")
	}

	quarDir := t.TempDir()
	store = open(quarDir)
	if err := store.AppendQuarantine(QuarantineEntry{Reason: "r", Line: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	store.Close()
	corruptRecordBody(t, quarDir, 'X') // no longer a JSON object
	store = open(quarDir)
	defer store.Close()
	entries, err := store.LoadQuarantine()
	if err == nil {
		t.Fatalf("LoadQuarantine of an undecodable entry succeeded: %+v", entries)
	}
	for _, want := range []string{"seg-", "q!", "decode quarantine entry"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("LoadQuarantine error %q does not name %q", err, want)
		}
	}
}

func TestServerSurvivesRestartWithStore(t *testing.T) {
	dir := t.TempDir()
	store, err := NewSegStore(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(srv.Addr())
	st := PhoneState{Charging: true, OnWiFi: true}
	if err := c.Upload(st, []*trace.TraceBundle{
		bundle("k9mail", "u1", "t1"), bundle("k9mail", "u2", "t2"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh server over the same directory sees the old
	// bundles and deduplicates re-uploads against them.
	store2, err := NewSegStore(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	srv2, err := NewServer("127.0.0.1:0", WithStore(store2))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if srv2.Count() != 2 {
		t.Fatalf("restarted server holds %d bundles, want 2", srv2.Count())
	}
	c2 := NewClient(srv2.Addr())
	if err := c2.Upload(st, []*trace.TraceBundle{
		bundle("k9mail", "u1", "t1"), // duplicate of a persisted bundle
		bundle("k9mail", "u3", "t3"), // new
	}); err != nil {
		t.Fatal(err)
	}
	if srv2.Count() != 3 {
		t.Errorf("after dedup + new upload: %d bundles, want 3", srv2.Count())
	}
	// And the new bundle was persisted too.
	loaded, _, err := store2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded["k9mail"]) != 3 {
		t.Errorf("persisted = %d, want 3", len(loaded["k9mail"]))
	}
}

func TestStreamHelpersRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	in := []*trace.TraceBundle{bundle("a", "u1", "t1"), bundle("a", "u2", "t2")}
	if err := trace.WriteBundles(f, in); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	out, err := trace.ReadBundles(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Event.UserID != "u1" || out[1].Event.TraceID != "t2" {
		t.Errorf("round trip = %+v", out)
	}
}
