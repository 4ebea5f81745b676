package collect

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collect/seglog"
	"repro/internal/faults"
	"repro/internal/trace"
)

func charging() PhoneState { return PhoneState{Charging: true, OnWiFi: true} }

// TestBinaryUploadRoundTrip: a WithBinary client negotiates the codec
// and the server stores the same scrubbed bundles a text upload would.
func TestBinaryUploadRoundTrip(t *testing.T) {
	s := startServer(t)
	c := NewClient(s.Addr(), WithBinary())
	if err := c.Upload(charging(), []*trace.TraceBundle{
		bundle("k9mail", "alice@example.com", "t1"),
		bundle("k9mail", "bob@example.com", "t2"),
	}); err != nil {
		t.Fatal(err)
	}
	if c.textOnly.Load() {
		t.Fatal("client fell back to text against a binary-capable server")
	}
	got := s.Bundles("k9mail")
	if len(got) != 2 {
		t.Fatalf("stored %d bundles, want 2", len(got))
	}
	for _, b := range got {
		if strings.Contains(b.Event.UserID, "@") {
			t.Errorf("raw user ID stored: %q", b.Event.UserID)
		}
		if err := trace.VerifyContentKey(b); err != nil {
			t.Errorf("stored bundle fails integrity: %v", err)
		}
	}
	if st := s.Stats(); st.Accepted != 2 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestBinaryAndTextBundlesDeduplicate: the same bundle uploaded once
// per codec is stored exactly once — the content key is codec-blind.
func TestBinaryAndTextBundlesDeduplicate(t *testing.T) {
	s := startServer(t)
	b := bundle("k9mail", "u", "t1")
	if err := NewClient(s.Addr()).Upload(charging(), []*trace.TraceBundle{b}); err != nil {
		t.Fatal(err)
	}
	if err := NewClient(s.Addr(), WithBinary()).Upload(charging(), []*trace.TraceBundle{b}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Accepted != 1 || st.Duplicated != 1 {
		t.Fatalf("stats = %+v, want 1 accepted + 1 duplicated", st)
	}
}

// fakeTextOnlyServer speaks the pre-binary protocol: every line is
// either acked OK (valid JSON bundle) or rejected — including the
// binary hello, which it has never heard of.
func fakeTextOnlyServer(t *testing.T) (addr string, gotBundles *atomic.Int32, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var n atomic.Int32
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				sc := bufio.NewScanner(conn)
				sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
				for sc.Scan() {
					line := sc.Text()
					if !strings.HasPrefix(line, "{") {
						fmt.Fprintf(conn, "ERR ? decode: not json\n")
						continue
					}
					b, err := trace.DecodeBundle(strings.NewReader(line + "\n"))
					if err != nil {
						fmt.Fprintf(conn, "ERR ? decode: %v\n", err)
						continue
					}
					n.Add(1)
					fmt.Fprintf(conn, "OK %s\n", b.Key)
				}
			}()
		}
	}()
	return ln.Addr().String(), &n, func() { ln.Close(); wg.Wait() }
}

// TestBinaryClientFallsBackToText: against a pre-binary server the
// hello is rejected, the client finishes the upload in text on the same
// connection, and never offers the hello again.
func TestBinaryClientFallsBackToText(t *testing.T) {
	addr, got, stop := fakeTextOnlyServer(t)
	defer stop()
	c := NewClient(addr, WithBinary())
	if err := c.Upload(charging(), []*trace.TraceBundle{
		bundle("k9mail", "u1", "t1"),
		bundle("k9mail", "u2", "t2"),
	}); err != nil {
		t.Fatal(err)
	}
	if !c.textOnly.Load() {
		t.Fatal("client did not remember the server is text-only")
	}
	if got.Load() != 2 {
		t.Fatalf("old server ingested %d bundles, want 2", got.Load())
	}
	// Second upload must not send the hello again (it would cost one
	// quarantined line per connection forever).
	if err := c.Upload(charging(), []*trace.TraceBundle{bundle("k9mail", "u3", "t3")}); err != nil {
		t.Fatal(err)
	}
	if got.Load() != 3 {
		t.Fatalf("old server ingested %d bundles, want 3", got.Load())
	}
}

// TestTextClientAgainstBinaryServer pins the other fallback direction
// explicitly (the rest of the suite exercises it implicitly).
func TestTextClientAgainstBinaryServer(t *testing.T) {
	s := startServer(t)
	if err := NewClient(s.Addr()).Upload(charging(), []*trace.TraceBundle{bundle("k9mail", "u", "t1")}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Accepted != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestBinaryUploadWithSegStore: the full fleet path — binary wire codec
// into the group-committing segmented store — survives a server
// restart with dedup intact.
func TestBinaryUploadWithSegStore(t *testing.T) {
	dir := t.TempDir()
	store, err := NewSegStore(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer("127.0.0.1:0", WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	bundles := []*trace.TraceBundle{
		bundle("k9mail", "u1", "t1"),
		bundle("k9mail", "u2", "t2"),
		bundle("opengps", "u3", "t1"),
	}
	if err := NewClient(s.Addr(), WithBinary()).Upload(charging(), bundles); err != nil {
		t.Fatal(err)
	}
	if st := store.Log().Stats(); st.Appends != 3 {
		t.Fatalf("log appends = %d", st.Appends)
	}
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
	s2, err := NewServer("127.0.0.1:0", WithStore(store2))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s2.Close(); store2.Close() }()
	if got := s2.Count(); got != 3 {
		t.Fatalf("restarted server reloaded %d bundles, want 3", got)
	}
	// Re-upload is a pure duplicate against the reloaded store.
	if err := NewClient(s2.Addr(), WithBinary()).Upload(charging(), bundles); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Accepted != 0 || st.Duplicated != 3 {
		t.Fatalf("stats after re-upload = %+v", st)
	}
	if st := store2.Log().Stats(); st.LiveRecords != 3 {
		t.Fatalf("log live records = %d", st.LiveRecords)
	}
}

// TestBinaryUploadFaultInjected: corruption, duplication and drops on
// the binary wire still yield exactly-once ingest, same as text.
func TestBinaryUploadFaultInjected(t *testing.T) {
	dir := t.TempDir()
	store, err := NewSegStore(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer("127.0.0.1:0", WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close(); store.Close() }()
	inj, err := faults.New(faults.Config{
		CorruptProb:   0.15,
		DuplicateProb: 0.2,
		DropProb:      0.1,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	var bundles []*trace.TraceBundle
	for i := 0; i < 40; i++ {
		bundles = append(bundles, bundle("k9mail", fmt.Sprintf("u%d", i), fmt.Sprintf("t%d", i)))
	}
	c := NewClient(s.Addr(), WithBinary(), WithFaults(inj),
		WithRetry(60, time.Millisecond, 4*time.Millisecond), WithJitterSeed(1))
	if err := c.Upload(charging(), bundles); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Bundles("k9mail")); got != 40 {
		t.Fatalf("stored %d bundles, want exactly 40", got)
	}
	st := s.Stats()
	if st.Accepted != 40 {
		t.Fatalf("accepted = %d, want exactly 40 (duplicated=%d quarantined=%d)",
			st.Accepted, st.Duplicated, st.Quarantined)
	}
}

// TestQuarantinePersistsInSegStore: rejected lines survive a restart
// through the segment log's quarantine records.
func TestQuarantinePersistsInSegStore(t *testing.T) {
	dir := t.TempDir()
	store, err := NewSegStore(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := store.AppendQuarantine(QuarantineEntry{
			Reason: fmt.Sprintf("reason-%d", i),
			Line:   []byte(fmt.Sprintf("line-%d", i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	store.Close()
	store2, err := NewSegStore(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	got, err := store2.LoadQuarantine()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("quarantine entries = %d, want 3", len(got))
	}
	for i, e := range got {
		if e.Reason != fmt.Sprintf("reason-%d", i) {
			t.Fatalf("entry %d out of order: %+v", i, e)
		}
	}
}

// TestSegStoreCollisionSeparatesApps: app IDs that a file-per-app
// layout would have had to sanitize onto one name ("a/b" and "a_b")
// stay two apps through a SegStore round trip.
func TestSegStoreCollisionSeparatesApps(t *testing.T) {
	dir := t.TempDir()
	store, err := NewSegStore(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"a/b", "a_b"} {
		b := bundle(app, "u", "t1")
		b.Key = trace.ContentKey(b)
		if err := store.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	store.Close()
	store2, err := NewSegStore(dir, seglog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	loaded, _, err := store2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded["a/b"]) != 1 || len(loaded["a_b"]) != 1 {
		t.Fatalf("loaded = %d/%d bundles for a/b / a_b, want 1/1", len(loaded["a/b"]), len(loaded["a_b"]))
	}
}
