package collect

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/collect/seglog"
	"repro/internal/trace"
)

// wireLine serializes a bundle as the client would put it on the wire
// (scrubbed, key-stamped, newline-terminated).
func wireLine(t *testing.T, b *trace.TraceBundle) []byte {
	t.Helper()
	sb := trace.ScrubBundle(b)
	sb.Key = trace.ContentKey(sb)
	var buf bytes.Buffer
	if err := trace.EncodeBundle(&buf, sb); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestQuarantineKeepsRejectedLines(t *testing.T) {
	s := startServer(t)
	conn := dialRaw(t, s)
	r := bufio.NewReader(conn)

	garbage := "definitely not json\n"
	if _, err := conn.Write([]byte(garbage)); err != nil {
		t.Fatal(err)
	}
	ack, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ack, "ERR ? ") {
		t.Errorf("undecodable line acked %q, want ERR with unknown key", ack)
	}
	if s.QuarantineCount() != 1 {
		t.Fatalf("quarantine count = %d, want 1", s.QuarantineCount())
	}
	entries := s.Quarantine()
	if len(entries) != 1 {
		t.Fatalf("quarantine holds %d entries, want 1", len(entries))
	}
	if string(entries[0].Line) != strings.TrimSuffix(garbage, "\n") {
		t.Errorf("quarantined line = %q, want the offending bytes", entries[0].Line)
	}
	if !strings.Contains(entries[0].Reason, "decode") {
		t.Errorf("reason = %q, want a decode error", entries[0].Reason)
	}
	if s.Count() != 0 {
		t.Error("rejected line reached the store")
	}
}

func TestQuarantineOnIntegrityMismatch(t *testing.T) {
	s := startServer(t)
	conn := dialRaw(t, s)
	r := bufio.NewReader(conn)

	// A validly stamped bundle whose content is then altered in a way
	// that still parses: the server must catch the key mismatch.
	line := wireLine(t, bundle("app", "u1", "t1"))
	tampered := bytes.Replace(line, []byte(`"t1"`), []byte(`"t2"`), 1)
	if bytes.Equal(tampered, line) {
		t.Fatal("tampering had no effect; test setup broken")
	}
	if _, err := conn.Write(tampered); err != nil {
		t.Fatal(err)
	}
	ack, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ack, "ERR ") || !strings.Contains(ack, "integrity") {
		t.Errorf("tampered line acked %q, want an integrity rejection", ack)
	}
	// The rejection carries the stamped key, so the client (and the
	// quarantine) can attribute it to the original upload.
	entries := s.Quarantine()
	if len(entries) != 1 || entries[0].Key == "" {
		t.Fatalf("quarantine = %+v, want one entry carrying the stamped key", entries)
	}
	if s.Count() != 0 {
		t.Error("tampered bundle reached the store")
	}
}

func TestLimitsRejectOversizeAndOverlongTraces(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", WithLimits(Limits{MaxLineBytes: 512, MaxRecords: 1}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	// More records than MaxRecords: rejected with a per-line ERR.
	conn := dialRaw(t, s)
	r := bufio.NewReader(conn)
	if _, err := conn.Write(wireLine(t, bundle("app", "u1", "t1"))); err != nil { // 2 records
		t.Fatal(err)
	}
	ack, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ack, "ERR ") || !strings.Contains(ack, "limit") {
		t.Errorf("overlong trace acked %q, want a limit rejection", ack)
	}

	// A line over MaxLineBytes: quarantined by size class, connection
	// closed (the scanner cannot resync mid-line).
	conn2 := dialRaw(t, s)
	r2 := bufio.NewReader(conn2)
	huge := append(bytes.Repeat([]byte("x"), 600), '\n')
	if _, err := conn2.Write(huge); err != nil {
		t.Fatal(err)
	}
	ack2, err := r2.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ack2, "byte limit") {
		t.Errorf("oversize line acked %q, want a byte-limit rejection", ack2)
	}
	if _, err := r2.ReadString('\n'); err == nil {
		t.Error("connection survived an oversize line")
	}
	if got := s.QuarantineCount(); got != 2 {
		t.Errorf("quarantine count = %d, want 2", got)
	}
	if s.Count() != 0 {
		t.Error("limited bundle reached the store")
	}
}

func TestBadLineBudgetClosesConnection(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", WithLimits(Limits{MaxBadLinesPerConn: 2}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	conn := dialRaw(t, s)
	r := bufio.NewReader(conn)
	for i := 0; i < 3; i++ {
		if _, err := conn.Write([]byte(fmt.Sprintf("garbage %d\n", i))); err != nil {
			t.Fatal(err)
		}
	}
	acks := 0
	for {
		if _, err := r.ReadString('\n'); err != nil {
			break
		}
		acks++
	}
	if acks != 3 {
		t.Errorf("got %d ERR acks before the close, want 3", acks)
	}
	// A good client can still connect afterwards.
	c := NewClient(s.Addr())
	if err := c.Upload(PhoneState{Charging: true, OnWiFi: true},
		[]*trace.TraceBundle{bundle("app", "u", "t")}); err != nil {
		t.Fatal(err)
	}
}

func TestQuarantineRingIsBounded(t *testing.T) {
	s := startServer(t)
	for i := 0; i < maxQuarantineKept+50; i++ {
		s.Shards()[0].quarantineLine([]byte(fmt.Sprintf("junk %d", i)), "", errors.New("test reject"), nil)
	}
	if got := s.QuarantineCount(); got != maxQuarantineKept+50 {
		t.Errorf("total count = %d, want %d", got, maxQuarantineKept+50)
	}
	entries := s.Quarantine()
	if len(entries) != maxQuarantineKept {
		t.Fatalf("in-memory quarantine holds %d entries, want the cap %d", len(entries), maxQuarantineKept)
	}
	// The ring keeps the most recent entries.
	if want := fmt.Sprintf("junk %d", maxQuarantineKept+49); string(entries[len(entries)-1].Line) != want {
		t.Errorf("newest entry = %q, want %q", entries[len(entries)-1].Line, want)
	}
}

func TestQuarantinePersistsAndNeverLoadsAsCorpus(t *testing.T) {
	dir := t.TempDir()
	store, err := NewSegStore(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer("127.0.0.1:0", WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	conn := dialRaw(t, s)
	r := bufio.NewReader(conn)
	if _, err := conn.Write([]byte("broken line\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	c := NewClient(s.Addr())
	if err := c.Upload(PhoneState{Charging: true, OnWiFi: true},
		[]*trace.TraceBundle{bundle("app", "u", "t")}); err != nil {
		t.Fatal(err)
	}
	// The raw connection must be gone before Close, which waits for
	// in-flight handlers.
	conn.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := NewSegStore(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	entries, err := store2.LoadQuarantine()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || string(entries[0].Line) != "broken line" {
		t.Fatalf("persisted quarantine = %+v, want the rejected line", entries)
	}
	// Load returns only accepted bundles: quarantine records must never
	// be picked up as corpus.
	loaded, skipped, err := store2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Errorf("clean store load skipped %d lines", skipped)
	}
	total := 0
	for _, bs := range loaded {
		total += len(bs)
	}
	if total != 1 {
		t.Errorf("loaded %d bundles, want 1 (quarantine must not load)", total)
	}
}

// writeLegacyStore lays out one directory of the JSONL store format
// ImportJSONL migrates: one <app>.jsonl file per app, then optionally a
// torn partial record appended to the first app's file (a crash
// mid-append), and the rejected lines in quarantine/rejected.jsonl.
func writeLegacyStore(t *testing.T, dir string, perApp map[string][]*trace.TraceBundle, torn string, rejected []QuarantineEntry) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		t.Fatal(err)
	}
	first := true
	for _, app := range sortedApps(perApp) {
		var buf bytes.Buffer
		if err := trace.WriteBundles(&buf, perApp[app]); err != nil {
			t.Fatal(err)
		}
		if first {
			buf.WriteString(torn)
			first = false
		}
		if err := os.WriteFile(filepath.Join(dir, app+".jsonl"), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if len(rejected) > 0 {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, e := range rejected {
			if err := enc.Encode(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, quarantineDir, quarantineFile), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func sortedApps(perApp map[string][]*trace.TraceBundle) []string {
	apps := make([]string, 0, len(perApp))
	for app := range perApp {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	return apps
}

// TestStoreLoadToleratesTornTrailingLine: ImportJSONL migrates the JSONL
// store layout, one shard directory at a time, into SegStores. A torn
// trailing line (a crash mid-append, never acked) is dropped and
// counted, each app keeps its order, the quarantine carries over, and a
// re-run — after success, or after a crash before the renames — stores
// nothing twice.
func TestStoreLoadToleratesTornTrailingLine(t *testing.T) {
	root := t.TempDir()
	keyed := func(app, user, id string) *trace.TraceBundle {
		b := bundle(app, user, id)
		b.Key = trace.ContentKey(b)
		return b
	}
	shard0 := map[string][]*trace.TraceBundle{
		"app":   {keyed("app", "u3", "t1"), keyed("app", "u1", "t2"), keyed("app", "u2", "t3")},
		"other": {keyed("other", "u1", "t1")},
	}
	shard1 := map[string][]*trace.TraceBundle{
		"third": {keyed("third", "u2", "t1"), keyed("third", "u1", "t2")},
	}
	rejected := []QuarantineEntry{
		{Reason: "decode: bad", Line: []byte("junk 1")},
		{Key: "k", Reason: "integrity: bad", Line: []byte("junk 2")},
	}
	dir0, dir1 := filepath.Join(root, "shard-0"), filepath.Join(root, "shard-1")
	writeLegacyStore(t, dir0, shard0, `{"event":{"appId":"app","rec`, rejected)
	writeLegacyStore(t, dir1, shard1, "", nil)

	importDir := func(dir string) (*SegStore, int, int) {
		t.Helper()
		store, err := NewSegStore(dir, seglog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		imported, torn, err := ImportJSONL(store, dir)
		if err != nil {
			t.Fatalf("torn trailing line must not fail the import: %v", err)
		}
		return store, imported, torn
	}
	checkCorpus := func(store *SegStore, want map[string][]*trace.TraceBundle) {
		t.Helper()
		loaded, _, err := store.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(loaded) != len(want) {
			t.Fatalf("loaded apps %v, want %v", sortedApps(loaded), sortedApps(want))
		}
		for app, bs := range want {
			if len(loaded[app]) != len(bs) {
				t.Fatalf("app %s: loaded %d bundles, want the %d intact ones", app, len(loaded[app]), len(bs))
			}
			for i, b := range bs {
				if loaded[app][i].Key != b.Key {
					t.Errorf("app %s bundle %d: key %s, want %s (per-app order lost)", app, i, loaded[app][i].Key, b.Key)
				}
			}
		}
	}

	store0, imported, torn := importDir(dir0)
	if imported != 4 || torn != 1 {
		t.Errorf("shard-0 import: %d imported, %d torn; want 4 and 1", imported, torn)
	}
	checkCorpus(store0, shard0)
	entries, err := store0.LoadQuarantine()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || string(entries[0].Line) != "junk 1" || entries[1].Key != "k" {
		t.Errorf("imported quarantine = %+v, want the 2 rejected lines in order", entries)
	}
	store1, imported, torn := importDir(dir1)
	if imported != 2 || torn != 0 {
		t.Errorf("shard-1 import: %d imported, %d torn; want 2 and 0", imported, torn)
	}
	checkCorpus(store1, shard1)
	store1.Close()
	for _, name := range []string{"app.jsonl", "other.jsonl", filepath.Join(quarantineDir, quarantineFile)} {
		if _, err := os.Stat(filepath.Join(dir0, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s still in place after import (stat err %v)", name, err)
		}
		if _, err := os.Stat(filepath.Join(dir0, name+".imported")); err != nil {
			t.Errorf("%s not renamed to .imported: %v", name, err)
		}
	}

	// A second run finds nothing left to import.
	if imported, torn, err := ImportJSONL(store0, dir0); err != nil || imported != 0 || torn != 0 {
		t.Errorf("re-run = %d imported, %d torn, %v; want nothing", imported, torn, err)
	}
	// A crash after the appends but before the renames leaves the
	// files in place; the re-run appends none of their bundles again.
	for _, app := range []string{"app", "other"} {
		path := filepath.Join(dir0, app+".jsonl")
		if err := os.Rename(path+".imported", path); err != nil {
			t.Fatal(err)
		}
	}
	if imported, _, err := ImportJSONL(store0, dir0); err != nil || imported != 0 {
		t.Errorf("re-run after a crash imported %d bundles (%v), want 0", imported, err)
	}
	if err := store0.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := NewSegStore(dir0, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	checkCorpus(reopened, shard0)
}
