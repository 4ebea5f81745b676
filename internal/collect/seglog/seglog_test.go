package seglog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"
)

func open(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func mustAppend(t *testing.T, l *Log, key, body string) {
	t.Helper()
	if err := l.AppendBundle(key, []byte(body)); err != nil {
		t.Fatalf("AppendBundle(%s): %v", key, err)
	}
}

// collect scans the log into a map plus the in-order quarantine bodies.
func collect(t *testing.T, l *Log) (map[string]string, []string) {
	t.Helper()
	bundles := map[string]string{}
	var quarantine []string
	err := l.Scan(func(typ byte, key string, body []byte) error {
		switch typ {
		case TypeBundle:
			bundles[key] = string(body)
		case TypeQuarantine:
			quarantine = append(quarantine, string(body))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return bundles, quarantine
}

func TestAppendScanReopen(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{})
	for i := 0; i < 20; i++ {
		mustAppend(t, l, fmt.Sprintf("k%02d", i), fmt.Sprintf("payload-%d", i))
	}
	if err := l.AppendQuarantine([]byte(`{"bad":1}`)); err != nil {
		t.Fatalf("AppendQuarantine: %v", err)
	}
	if err := l.AppendQuarantine([]byte(`{"bad":2}`)); err != nil {
		t.Fatalf("AppendQuarantine: %v", err)
	}
	if err := l.Tombstone("k03"); err != nil {
		t.Fatalf("Tombstone: %v", err)
	}
	check := func(l *Log) {
		t.Helper()
		bundles, quarantine := collect(t, l)
		if len(bundles) != 19 {
			t.Fatalf("want 19 live bundles, got %d", len(bundles))
		}
		if _, ok := bundles["k03"]; ok {
			t.Fatal("tombstoned key still live")
		}
		if bundles["k07"] != "payload-7" {
			t.Fatalf("k07 = %q", bundles["k07"])
		}
		if len(quarantine) != 2 || quarantine[0] != `{"bad":1}` || quarantine[1] != `{"bad":2}` {
			t.Fatalf("quarantine replay = %q", quarantine)
		}
		if !l.Has("k00") || l.Has("k03") {
			t.Fatal("Has disagrees with Scan")
		}
		body, typ, err := l.Get("k11")
		if err != nil || typ != TypeBundle || string(body) != "payload-11" {
			t.Fatalf("Get(k11) = %q %d %v", body, typ, err)
		}
	}
	check(l)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2 := open(t, dir, Options{})
	defer l2.Close()
	check(l2)
	// And the log keeps accepting after reopen.
	mustAppend(t, l2, "post-reopen", "x")
	if !l2.Has("post-reopen") {
		t.Fatal("append after reopen lost")
	}
}

func TestDuplicateKeyIdempotent(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{})
	mustAppend(t, l, "dup", "same-bytes")
	mustAppend(t, l, "dup", "same-bytes")
	bundles, _ := collect(t, l)
	if len(bundles) != 1 || bundles["dup"] != "same-bytes" {
		t.Fatalf("bundles = %v", bundles)
	}
	st := l.Stats()
	if st.Appends != 2 || st.LiveRecords != 1 {
		t.Fatalf("stats = %+v", st)
	}
	l.Close()
	l2 := open(t, dir, Options{})
	defer l2.Close()
	bundles, _ = collect(t, l2)
	if len(bundles) != 1 {
		t.Fatalf("after reopen: %v", bundles)
	}
}

// TestGroupCommitBatching: 64 concurrent appenders must share fsyncs.
func TestGroupCommitBatching(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{})
	defer l.Close()
	const workers, per = 64, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.AppendBundle(fmt.Sprintf("w%02d-%04d", w, i), []byte("body")); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Appends != workers*per {
		t.Fatalf("appends = %d", st.Appends)
	}
	if st.Commits >= st.Appends {
		t.Fatalf("no batching: %d commits for %d appends", st.Commits, st.Appends)
	}
	t.Logf("fsyncs-per-append = %.3f (%d commits / %d appends)",
		float64(st.Commits)/float64(st.Appends), st.Commits, st.Appends)
	bundles, _ := collect(t, l)
	if len(bundles) != workers*per {
		t.Fatalf("live = %d", len(bundles))
	}
}

// activeSegment returns the path of the lexicographically-last segment.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatal("no segments")
	}
	return filepath.Join(dir, names[len(names)-1])
}

// TestCrashTruncatedTail simulates a kill mid-append: a partial frame
// at the end of the active segment. Replay must recover every acked
// record and drop the torn bytes.
func TestCrashTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{})
	for i := 0; i < 10; i++ {
		mustAppend(t, l, fmt.Sprintf("acked-%d", i), "v")
	}
	l.Close()

	seg := activeSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A torn record: plausible length prefix, then the crash.
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := open(t, dir, Options{})
	defer l2.Close()
	if st := l2.Stats(); st.Truncated == 0 {
		t.Fatal("no tail truncation recorded")
	}
	bundles, _ := collect(t, l2)
	if len(bundles) != 10 {
		t.Fatalf("acked bundles lost: %d/10 live", len(bundles))
	}
	// The truncated log must accept and persist new records.
	mustAppend(t, l2, "after-crash", "v")
	l2.Close()
	l3 := open(t, dir, Options{})
	defer l3.Close()
	if !l3.Has("after-crash") || !l3.Has("acked-9") {
		t.Fatal("records lost after post-crash append")
	}
}

// TestCrashBadCRC flips a byte inside the final record: the torn record
// is dropped, everything before it survives.
func TestCrashBadCRC(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{})
	for i := 0; i < 5; i++ {
		mustAppend(t, l, fmt.Sprintf("k%d", i), "v")
	}
	// Note where the last record begins, then corrupt one byte past it.
	sizeBefore := fileSizeAt(t, activeSegment(t, dir))
	mustAppend(t, l, "torn", "this one dies")
	l.Close()

	seg := activeSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[sizeBefore+12] ^= 0xff // inside the torn record's payload
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := open(t, dir, Options{})
	defer l2.Close()
	bundles, _ := collect(t, l2)
	if len(bundles) != 5 {
		t.Fatalf("want 5 survivors, got %d", len(bundles))
	}
	if l2.Has("torn") {
		t.Fatal("corrupt record replayed")
	}
	if st := l2.Stats(); st.Truncated == 0 {
		t.Fatal("no truncation recorded")
	}
}

func fileSizeAt(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestSealedCorruptionFails: damage in a non-last segment is data loss,
// not a torn tail — Open must refuse rather than silently truncate.
func TestSealedCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{SegmentBytes: 256})
	for i := 0; i < 40; i++ {
		mustAppend(t, l, fmt.Sprintf("k%02d", i), "some payload to fill segments")
	}
	l.Close()
	ents, _ := os.ReadDir(dir)
	if len(ents) < 3 {
		t.Fatalf("want several segments, got %d", len(ents))
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	sealed := filepath.Join(dir, names[0])
	data, _ := os.ReadFile(sealed)
	data[len(data)/2] ^= 0xff
	os.WriteFile(sealed, data, 0o644)
	if _, err := Open(dir, Options{SegmentBytes: 256}); !errors.Is(err, ErrSealedTorn) {
		t.Fatalf("want ErrSealedTorn, got %v", err)
	}
}

func TestRotationReplay(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{SegmentBytes: 512})
	const n = 100
	for i := 0; i < n; i++ {
		mustAppend(t, l, fmt.Sprintf("k%03d", i), "padding padding padding")
	}
	st := l.Stats()
	if st.Rotations == 0 || st.Segments < 2 {
		t.Fatalf("no rotation: %+v", st)
	}
	l.Close()
	l2 := open(t, dir, Options{SegmentBytes: 512})
	defer l2.Close()
	bundles, _ := collect(t, l2)
	if len(bundles) != n {
		t.Fatalf("lost records across rotation: %d/%d", len(bundles), n)
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{SegmentBytes: 400})
	for i := 0; i < 60; i++ {
		mustAppend(t, l, fmt.Sprintf("k%02d", i%10), fmt.Sprintf("generation-%d", i/10))
	}
	for _, dead := range []string{"k00", "k01"} {
		if err := l.Tombstone(dead); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Stats()
	if before.DeadBytes == 0 {
		t.Fatalf("expected dead bytes before compaction: %+v", before)
	}
	if err := l.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := l.Stats()
	if after.Compactions != 1 {
		t.Fatalf("compactions = %d", after.Compactions)
	}
	if after.DeadBytes != 0 {
		t.Fatalf("dead bytes survived compaction: %+v", after)
	}
	if after.Segments >= before.Segments {
		t.Fatalf("segments %d -> %d", before.Segments, after.Segments)
	}
	verify := func(l *Log) {
		t.Helper()
		bundles, _ := collect(t, l)
		if len(bundles) != 8 {
			t.Fatalf("live = %d, want 8", len(bundles))
		}
		for i := 2; i < 10; i++ {
			if bundles[fmt.Sprintf("k%02d", i)] != "generation-5" {
				t.Fatalf("k%02d = %q, want last generation", i, bundles[fmt.Sprintf("k%02d", i)])
			}
		}
	}
	verify(l)
	l.Close()
	l2 := open(t, dir, Options{SegmentBytes: 400})
	defer l2.Close()
	verify(l2)
	// Compacted log keeps compacting (generation numbers advance).
	for i := 0; i < 30; i++ {
		mustAppend(t, l2, fmt.Sprintf("k%02d", i%10), "newer")
	}
	if err := l2.Compact(); err != nil {
		t.Fatalf("second Compact: %v", err)
	}
	bundles, _ := collect(t, l2)
	for i := 0; i < 10; i++ {
		if bundles[fmt.Sprintf("k%02d", i)] != "newer" {
			t.Fatalf("k%02d stale after second compaction", i)
		}
	}
}

func TestQuarantineKeepCap(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{SegmentBytes: 256, QuarantineKeep: 3})
	for i := 0; i < 10; i++ {
		if err := l.AppendQuarantine([]byte(fmt.Sprintf("bad-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	mustAppend(t, l, "pad", "force a rotation boundary")
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	_, quarantine := collect(t, l)
	if len(quarantine) > 7 { // records still in the active segment survive the cap
		t.Fatalf("quarantine cap ineffective: %d live", len(quarantine))
	}
	// Replay order of survivors is preserved.
	for i := 1; i < len(quarantine); i++ {
		if quarantine[i-1] >= quarantine[i] {
			t.Fatalf("quarantine order broken: %q", quarantine)
		}
	}
	l.Close()
}

// TestConcurrentAppendScanCompact races the three public paths; run
// with -race in the soak job.
func TestConcurrentAppendScanCompact(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{SegmentBytes: 2048, AutoCompact: true, CompactRatio: 0.3})
	defer l.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				key := fmt.Sprintf("k%02d", (w*150+i)%25) // heavy supersession
				if err := l.AppendBundle(key, []byte("concurrent body, re-appended")); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			_ = l.Scan(func(byte, string, []byte) error { return nil })
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if err := l.Compact(); err != nil && !errors.Is(err, errCompacting) {
				t.Errorf("compact: %v", err)
			}
		}
	}()
	wg.Wait()
	bundles, _ := collect(t, l)
	if len(bundles) != 25 {
		t.Fatalf("live keys = %d, want 25", len(bundles))
	}
}

// TestCloseAckInvariant: an Append that returned nil is durable even if
// Close raced it; an ErrClosed append left no trace.
func TestCloseAckInvariant(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{})
	var mu sync.Mutex
	acked := map[string]bool{}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				key := fmt.Sprintf("w%02d-%04d", w, i)
				err := l.AppendBundle(key, []byte("v"))
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				mu.Lock()
				acked[key] = true
				mu.Unlock()
			}
		}(w)
	}
	// Let the appenders get going, then slam the door.
	for l.Stats().Appends < 200 {
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()

	l2 := open(t, dir, Options{})
	defer l2.Close()
	bundles, _ := collect(t, l2)
	for key := range acked {
		if _, ok := bundles[key]; !ok {
			t.Fatalf("acked record %s lost by Close race", key)
		}
	}
}

func TestEmptyAndMissingKeys(t *testing.T) {
	l := open(t, t.TempDir(), Options{})
	defer l.Close()
	if err := l.AppendBundle("", []byte("x")); !errors.Is(err, ErrEmptyKey) {
		t.Fatalf("want ErrEmptyKey, got %v", err)
	}
	if _, _, err := l.Get("nope"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
	if err := l.Append(42, "k", nil); !errors.Is(err, ErrBadType) {
		t.Fatalf("want ErrBadType, got %v", err)
	}
}

// TestCloseJoinsAutoCompaction parks a background compaction mid-run
// and checks that Close waits for it: nothing may write to the log
// directory once Close has returned.
func TestCloseJoinsAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{SegmentBytes: 256, AutoCompact: true, CompactRatio: 0.3})
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	l.compactHook = func() {
		once.Do(func() { close(parked) })
		<-release
	}
	for i := 0; ; i++ {
		select {
		case <-parked:
		default:
			if i == 1000 {
				t.Fatal("no auto-compaction started")
			}
			mustAppend(t, l, fmt.Sprintf("k%d", i%3), "superseded over and over")
			continue
		}
		break
	}
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	select {
	case err := <-closed:
		close(release)
		t.Fatalf("Close returned (err %v) while a compaction was still running", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := l.Stats(); st.Compactions != 1 {
		t.Fatalf("compactions = %d when Close returned, want the parked one finished", st.Compactions)
	}
	l2 := open(t, dir, Options{SegmentBytes: 256})
	defer l2.Close()
	if bundles, _ := collect(t, l2); len(bundles) != 3 {
		t.Fatalf("live keys after reopen = %d, want 3", len(bundles))
	}
}

// sealedLog returns a log holding keys k00..k19 at their third
// generation, spread over several sealed segments.
func sealedLog(t *testing.T) *Log {
	t.Helper()
	l := open(t, t.TempDir(), Options{SegmentBytes: 256})
	t.Cleanup(func() { l.Close() })
	for i := 0; i < 60; i++ {
		mustAppend(t, l, fmt.Sprintf("k%02d", i%20), fmt.Sprintf("gen-%d", i/20))
	}
	if st := l.Stats(); st.Segments < 3 {
		t.Fatalf("want several sealed segments, have %d segments", st.Segments)
	}
	return l
}

// TestScanPinsSegmentsAgainstCompaction runs a compaction between a
// Scan's snapshot and its reads. The compaction may not delete the
// segments the scan is about to read, so every live record arrives.
func TestScanPinsSegmentsAgainstCompaction(t *testing.T) {
	l := sealedLog(t)
	done := make(chan error, 1)
	var once sync.Once
	l.scanHook = func() {
		once.Do(func() {
			go func() { done <- l.Compact() }()
			// Let the compaction run to its end if nothing holds it.
			select {
			case err := <-done:
				done <- err
			case <-time.After(200 * time.Millisecond):
			}
		})
	}
	check := func() {
		t.Helper()
		bundles, _ := collect(t, l)
		if len(bundles) != 20 {
			t.Fatalf("live keys = %d, want 20", len(bundles))
		}
		for k, v := range bundles {
			if v != "gen-2" {
				t.Fatalf("%s = %q, want gen-2", k, v)
			}
		}
	}
	check()
	if err := <-done; err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st := l.Stats(); st.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", st.Compactions)
	}
	check()
}

// TestScanFailsOnMissingSegment deletes the newest sealed segment,
// which holds live records, between a Scan's snapshot and its reads:
// the scan must fail, not return the surviving records as if they were
// all.
func TestScanFailsOnMissingSegment(t *testing.T) {
	l := sealedLog(t)
	newest := l.segs[len(l.segs)-2].name
	l.scanHook = func() {
		if err := os.Remove(l.segPath(newest)); err != nil {
			t.Errorf("remove: %v", err)
		}
	}
	n := 0
	err := l.Scan(func(byte, string, []byte) error { n++; return nil })
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Scan over a deleted segment = %v after %d records, want ErrNotExist", err, n)
	}
}

// TestScanFailsOnSealedCorruption: a sealed segment damaged after Open
// fails the scan instead of ending it early.
func TestScanFailsOnSealedCorruption(t *testing.T) {
	l := sealedLog(t)
	path := l.segPath(segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = l.Scan(func(byte, string, []byte) error { return nil })
	if !errors.Is(err, ErrSealedTorn) {
		t.Fatalf("Scan over a corrupt sealed segment = %v, want ErrSealedTorn", err)
	}
}
