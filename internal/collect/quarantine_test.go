package collect

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer("127.0.0.1:0", WithFileStore(store))
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

	store2, err := NewFileStore(dir)
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
	// Load returns only accepted bundles: the quarantine subdirectory
	// must never be picked up as a corpus file.
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

func TestStoreLoadToleratesTornTrailingLine(t *testing.T) {
	dir := t.TempDir()
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Append(bundle("app", "u1", "t1")); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, unterminated partial record.
	path := filepath.Join(dir, "app.jsonl")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"event":{"appId":"app","rec`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	store2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	loaded, skipped, err := store2.Load()
	if err != nil {
		t.Fatalf("torn trailing line must not fail the load: %v", err)
	}
	if skipped != 1 {
		t.Errorf("skipped = %d torn lines, want 1", skipped)
	}
	if len(loaded["app"]) != 1 {
		t.Errorf("loaded %d bundles, want the 1 intact one", len(loaded["app"]))
	}
}
