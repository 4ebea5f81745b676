package collect

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collect/seglog"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/trace/binenc"
)

func TestShardOf(t *testing.T) {
	apps := []string{"k9mail", "opengps", "wallabag", "tinfoil", "a/b", "a_b", ""}
	for _, app := range apps {
		if got := ShardOf(app, 1); got != 0 {
			t.Fatalf("ShardOf(%q, 1) = %d", app, got)
		}
		for _, n := range []int{2, 3, 7} {
			got := ShardOf(app, n)
			if got < 0 || got >= n {
				t.Fatalf("ShardOf(%q, %d) = %d out of range", app, n, got)
			}
			if again := ShardOf(app, n); again != got {
				t.Fatalf("ShardOf(%q, %d) unstable: %d then %d", app, n, got, again)
			}
		}
	}
	// The test apps must not all hash to one shard of 3, or the routing
	// tests below would not exercise cross-shard traffic.
	seen := map[int]bool{}
	for _, app := range []string{"k9mail", "opengps", "wallabag", "tinfoil"} {
		seen[ShardOf(app, 3)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("test apps all landed on one of 3 shards: %v", seen)
	}
}

// startSharded runs a server with n shards, each with its own
// SegStore in a subdirectory of dir. The returned shutdown closes the
// fleet and its stores; it is idempotent and also runs at cleanup.
func startSharded(t *testing.T, dir string, n int, extra func(shard int) []ServerOption) (*ShardedServer, func()) {
	t.Helper()
	stores := make([]*SegStore, n)
	ss, err := NewShardedServer("127.0.0.1:0", n, func(i int) []ServerOption {
		store, err := NewSegStore(fmt.Sprintf("%s/shard-%d", dir, i), seglog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = store
		opts := []ServerOption{WithStore(store)}
		if extra != nil {
			opts = append(opts, extra(i)...)
		}
		return opts
	})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	shutdown := func() {
		once.Do(func() {
			ss.Close()
			for _, st := range stores {
				if st != nil {
					st.Close()
				}
			}
		})
	}
	t.Cleanup(shutdown)
	return ss, shutdown
}

// TestShardedRoutesByApp: every app's bundles land on exactly the shard
// ShardOf names, in both codecs, and the aggregate views line up.
func TestShardedRoutesByApp(t *testing.T) {
	ss, _ := startSharded(t, t.TempDir(), 3, nil)
	apps := []string{"k9mail", "opengps", "wallabag", "tinfoil"}
	var textBundles, binBundles []*trace.TraceBundle
	for i, app := range apps {
		textBundles = append(textBundles, bundle(app, fmt.Sprintf("ut%d", i), "t1"))
		binBundles = append(binBundles, bundle(app, fmt.Sprintf("ub%d", i), "t2"))
	}
	if err := NewClient(ss.Addr()).Upload(charging(), textBundles); err != nil {
		t.Fatal(err)
	}
	if err := NewClient(ss.Addr(), WithBinary()).Upload(charging(), binBundles); err != nil {
		t.Fatal(err)
	}
	for _, app := range apps {
		owner := ShardOf(app, 3)
		for i, shard := range ss.Shards() {
			got := len(shard.Bundles(app))
			want := 0
			if i == owner {
				want = 2
			}
			if got != want {
				t.Errorf("app %s on shard %d: %d bundles, want %d", app, i, got, want)
			}
		}
		if got := len(ss.Bundles(app)); got != 2 {
			t.Errorf("aggregate Bundles(%s) = %d, want 2", app, got)
		}
	}
	if got := ss.Count(); got != 8 {
		t.Errorf("Count() = %d, want 8", got)
	}
	if got := ss.Apps(); len(got) != 4 {
		t.Errorf("Apps() = %v, want the 4 uploaded", got)
	}
	if st := ss.Stats(); st.Accepted != 8 || st.Quarantined != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestShardedGarbageQuarantined: an invalid bundle quarantines on the
// shard that owns its app; a line with no readable app ID routes
// deterministically to shard 0 and quarantines there. Either way the
// fleet-wide reconciliation invariant holds.
func TestShardedGarbageQuarantined(t *testing.T) {
	ss, _ := startSharded(t, t.TempDir(), 3, nil)
	// One attempt: a rejection must not be retried into N quarantine
	// entries for this count-exact test.
	c := NewClient(ss.Addr(), WithRetry(1, time.Millisecond, time.Millisecond))
	if err := c.Upload(charging(), []*trace.TraceBundle{bundle("k9mail", "u", "t1")}); err != nil {
		t.Fatal(err)
	}
	// Structurally broken event trace: routes by its appId, rejects on
	// the owning shard's validator.
	broken := bundle("opengps", "u", "t2")
	broken.Event.Records = broken.Event.Records[:1] // unbalanced
	var rej *RejectedError
	if err := c.Upload(charging(), []*trace.TraceBundle{broken}); !errors.As(err, &rej) {
		t.Fatalf("broken bundle: err = %v, want *RejectedError", err)
	}
	if qc := ss.Shards()[ShardOf("opengps", 3)].QuarantineCount(); qc != 1 {
		t.Fatalf("owning shard quarantined %d, want 1", qc)
	}
	// Raw garbage with no app ID at all: it is dispatched to shard 0.
	before := ss.Shards()[0].QuarantineCount()
	conn, err := net.Dial("tcp", ss.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "not json at all\n"); err != nil {
		t.Fatal(err)
	}
	ack, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(ack, ackErrPrefix) {
		t.Fatalf("garbage line acked %q, want ERR", ack)
	}
	if qc := ss.Shards()[0].QuarantineCount(); qc != before+1 {
		t.Fatalf("shard 0 quarantined %d, want %d (the unrouted line)", qc, before+1)
	}
	st := ss.Stats()
	if st.Accepted != 1 || st.Quarantined != 2 {
		t.Fatalf("stats = %+v, want 1 accepted + 2 quarantined", st)
	}
}

// TestShardedExactlyOnceUnderFaults is the acceptance test: a faulty
// binary upload to a sharded server ingests exactly once per bundle,
// and the per-app reports from the sharded deployment are
// byte-identical to a single-shard run over the same upload set.
func TestShardedExactlyOnceUnderFaults(t *testing.T) {
	apps := []string{"k9mail", "opengps", "wallabag", "tinfoil"}
	var bundles []*trace.TraceBundle
	for i := 0; i < 40; i++ {
		bundles = append(bundles, bundle(apps[i%len(apps)], fmt.Sprintf("u%d", i), fmt.Sprintf("t%d", i)))
	}

	newSvc := func() *serve.Service {
		svc, err := serve.New(serve.Config{Analysis: core.DefaultConfig(), Debounce: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		return svc
	}

	// Sharded run: 3 shards, per-shard serving layer,
	// faults on the wire.
	shardSvcs := make([]*serve.Service, 3)
	for i := range shardSvcs {
		shardSvcs[i] = newSvc()
	}
	ss, _ := startSharded(t, t.TempDir(), 3, func(i int) []ServerOption {
		return []ServerOption{WithIngestHook(shardSvcs[i].Notify)}
	})
	inj, err := faults.New(faults.Config{CorruptProb: 0.15, DuplicateProb: 0.2, DropProb: 0.1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(ss.Addr(), WithBinary(), WithFaults(inj),
		WithRetry(60, time.Millisecond, 4*time.Millisecond), WithJitterSeed(2))
	if err := c.Upload(charging(), bundles); err != nil {
		t.Fatal(err)
	}
	if st := ss.Stats(); st.Accepted != 40 {
		t.Fatalf("sharded accepted = %d, want exactly 40 (%+v)", st.Accepted, st)
	}
	for _, app := range apps {
		if got := len(ss.Bundles(app)); got != 10 {
			t.Fatalf("app %s stored %d bundles, want 10", app, got)
		}
	}

	// Baseline: one unsharded server, clean wire, same upload set.
	baseSvc := newSvc()
	base := startServer(t, WithIngestHook(baseSvc.Notify))
	if err := NewClient(base.Addr(), WithBinary()).Upload(charging(), bundles); err != nil {
		t.Fatal(err)
	}

	fan, err := serve.NewFanout(shardSvcs...)
	if err != nil {
		t.Fatal(err)
	}
	fan.Flush()
	baseSvc.Flush()
	for _, app := range apps {
		shardReport, _, ok := shardSvcs[ShardOf(app, 3)].AppReport(app)
		if !ok || shardReport == nil {
			t.Fatalf("no sharded report for %s", app)
		}
		baseReport, _, ok := baseSvc.AppReport(app)
		if !ok || baseReport == nil {
			t.Fatalf("no baseline report for %s", app)
		}
		got, err := json.Marshal(shardReport)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(baseReport)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("report for %s diverged between sharded and single-shard runs", app)
		}
	}
}

// TestShardedRestartResumesDedup: each shard deduplicates against its
// own store, so a full re-upload to a restarted server is all
// duplicates.
func TestShardedRestartResumesDedup(t *testing.T) {
	dir := t.TempDir()
	var bundles []*trace.TraceBundle
	apps := []string{"k9mail", "opengps", "wallabag"}
	for i := 0; i < 9; i++ {
		bundles = append(bundles, bundle(apps[i%3], fmt.Sprintf("u%d", i), "t1"))
	}

	ss, shutdown := startSharded(t, dir, 3, nil)
	if err := NewClient(ss.Addr(), WithBinary()).Upload(charging(), bundles); err != nil {
		t.Fatal(err)
	}
	shutdown()

	ss2, _ := startSharded(t, dir, 3, nil)
	if got := ss2.Count(); got != 9 {
		t.Fatalf("restarted fleet reloaded %d bundles, want 9", got)
	}
	if err := NewClient(ss2.Addr(), WithBinary()).Upload(charging(), bundles); err != nil {
		t.Fatal(err)
	}
	if st := ss2.Stats(); st.Accepted != 0 || st.Duplicated != 9 {
		t.Fatalf("stats after re-upload = %+v, want 9 duplicated", st)
	}
}

// appOnShard returns an app ID that ShardOf maps to shard i of n.
func appOnShard(t *testing.T, i, n int) string {
	t.Helper()
	for k := 0; k < 1000; k++ {
		if app := fmt.Sprintf("app-%d", k); ShardOf(app, n) == i {
			return app
		}
	}
	t.Fatalf("no app ID found for shard %d of %d", i, n)
	return ""
}

// TestShardedConnBundleBudget: MaxBundlesPerConn bounds one client
// connection no matter how many shards its bundles spread over.
func TestShardedConnBundleBudget(t *testing.T) {
	const n, limit = 3, 5
	ss, _ := startSharded(t, t.TempDir(), n, func(int) []ServerOption {
		return []ServerOption{WithLimits(Limits{MaxBundlesPerConn: limit})}
	})
	conn, err := net.DialTimeout("tcp", ss.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	if _, err := conn.Write([]byte(helloLine)); err != nil {
		t.Fatal(err)
	}
	if echo, err := br.ReadString('\n'); err != nil || echo != helloLine {
		t.Fatalf("hello echo = %q, %v", echo, err)
	}
	oks := 0
	for i := 0; i < n*limit; i++ {
		b := bundle(appOnShard(t, i%n, n), fmt.Sprintf("u%d", i), "t1")
		payload, err := binenc.EncodeBundle(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(binenc.AppendFrame(nil, payload)); err != nil {
			break // the server already cut the connection
		}
		ack, err := br.ReadString('\n')
		if err != nil {
			break
		}
		if !strings.HasPrefix(ack, ackOK+" ") {
			if !strings.Contains(ack, "connection bundle limit") {
				t.Fatalf("bundle %d acked %q, want OK or the bundle-limit rejection", i, ack)
			}
			break
		}
		oks++
	}
	if oks != limit {
		t.Fatalf("connection got %d bundles acked, want exactly the limit %d", oks, limit)
	}
	if _, err := br.ReadString('\n'); err == nil {
		t.Fatal("connection still open after the bundle limit")
	}
	st := ss.Stats()
	if st.Accepted != limit || st.Duplicated != 0 || st.Quarantined != 0 {
		t.Fatalf("stats = %+v, want exactly %d accepted", st, limit)
	}
	var sum int64
	for i, shard := range ss.Shards() {
		got := shard.Stats().Accepted
		if got == 0 {
			t.Errorf("shard %d accepted nothing; the budget test must span every shard", i)
		}
		sum += got
	}
	if sum != st.Accepted {
		t.Fatalf("shards accepted %d in all, server reports %d", sum, st.Accepted)
	}
}

// TestShardedQuarantineGauges: the process-wide quarantine gauges of a
// sharded server report the sum over its shards, not one shard's ring.
func TestShardedQuarantineGauges(t *testing.T) {
	const n = 3
	ss, _ := startSharded(t, t.TempDir(), n, nil)
	c := NewClient(ss.Addr(), WithRetry(1, time.Millisecond, time.Millisecond))
	for _, shard := range []int{0, 1} {
		broken := bundle(appOnShard(t, shard, n), "u", "t1")
		broken.Event.Records = broken.Event.Records[:1] // unbalanced
		var rej *RejectedError
		if err := c.Upload(charging(), []*trace.TraceBundle{broken}); !errors.As(err, &rej) {
			t.Fatalf("broken bundle for shard %d: err = %v, want *RejectedError", shard, err)
		}
	}
	kept, count := 0, 0
	for i, shard := range ss.Shards() {
		if i < 2 && shard.QuarantineCount() != 1 {
			t.Fatalf("shard %d quarantined %d lines, want 1", i, shard.QuarantineCount())
		}
		kept += len(shard.Quarantine())
		count += shard.QuarantineCount()
	}
	for name, want := range map[string]int{"collect_quarantine_kept": kept, "collect_quarantine_count": count} {
		got, ok := obs.Default.Value(name)
		if !ok {
			t.Fatalf("gauge %s not registered", name)
		}
		if int(got) != want {
			t.Errorf("gauge %s = %v, want %d (the sum over shards)", name, got, want)
		}
	}
}

// gatedStore is an in-memory Store whose Append reports each call on
// entered, then blocks until the test sends its verdict on release, so
// a test holds a key's persist window open as long as it needs. Has
// reports each call on has. Closing stop fails any Append still
// blocked, so a broken server cannot hang the test's cleanup.
type gatedStore struct {
	*memStore
	appends atomic.Int32
	entered chan struct{}
	release chan error
	has     chan struct{}
	stop    chan struct{}
}

func newGatedStore() *gatedStore {
	return &gatedStore{
		memStore: newMemStore(),
		entered:  make(chan struct{}),
		release:  make(chan error),
		has:      make(chan struct{}, 16),
		stop:     make(chan struct{}),
	}
}

func (g *gatedStore) Has(key string) bool {
	ok := g.memStore.Has(key)
	g.has <- struct{}{}
	return ok
}

func (g *gatedStore) Append(b *trace.TraceBundle) error {
	g.appends.Add(1)
	select {
	case g.entered <- struct{}{}:
	case <-g.stop:
		return errors.New("test over")
	}
	select {
	case err := <-g.release:
		if err != nil {
			return err
		}
	case <-g.stop:
		return errors.New("test over")
	}
	return g.memStore.Append(b)
}

// TestInflightDedupWindow: two connections upload the same key while
// the first one's Append is still running. The follower waits for the
// leader's verdict: it is acked as a duplicate only after the leader's
// Append returns, with exactly one Append made; if the leader's Append
// fails, the follower takes over as leader and persists the bundle.
func TestInflightDedupWindow(t *testing.T) {
	line := wireLine(t, bundle("k9mail", "u1", "t1"))

	// start opens the leader's persist window: the leader's Append is
	// entered and the follower has asked Has and found nothing stored.
	start := func(t *testing.T) (*Server, *gatedStore, *bufio.Reader, *bufio.Reader, net.Conn) {
		g := newGatedStore()
		s := startServer(t, WithStore(g))
		t.Cleanup(func() { close(g.stop) }) // runs before the server's Close
		leader, follower := dialRaw(t, s), dialRaw(t, s)
		if _, err := leader.Write(line); err != nil {
			t.Fatal(err)
		}
		<-g.has
		<-g.entered
		if _, err := follower.Write(line); err != nil {
			t.Fatal(err)
		}
		<-g.has
		return s, g, bufio.NewReader(leader), bufio.NewReader(follower), follower
	}
	// noAckYet checks that the follower is still waiting.
	noAckYet := func(t *testing.T, r *bufio.Reader, conn net.Conn) {
		t.Helper()
		conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		if ack, err := r.ReadString('\n'); err == nil {
			t.Fatalf("follower acked %q while the leader's Append was still running", ack)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	}
	readAck := func(t *testing.T, r *bufio.Reader) string {
		t.Helper()
		ack, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimSpace(ack)
	}

	t.Run("leader succeeds", func(t *testing.T) {
		s, g, leader, follower, fconn := start(t)
		noAckYet(t, follower, fconn)
		g.release <- nil
		if ack := readAck(t, leader); !strings.HasPrefix(ack, ackOK) {
			t.Fatalf("leader ack = %q", ack)
		}
		if ack := readAck(t, follower); !strings.HasPrefix(ack, ackOK) {
			t.Fatalf("follower ack = %q", ack)
		}
		if n := g.appends.Load(); n != 1 {
			t.Errorf("Append called %d times, want exactly 1", n)
		}
		if st := s.Stats(); st.Accepted != 1 || st.Duplicated != 1 {
			t.Errorf("stats = %+v, want 1 accepted and 1 duplicated", st)
		}
	})

	t.Run("leader fails", func(t *testing.T) {
		s, g, leader, follower, fconn := start(t)
		noAckYet(t, follower, fconn)
		g.release <- errors.New("disk full")
		if ack := readAck(t, leader); !strings.HasPrefix(ack, ackErr) {
			t.Fatalf("leader ack = %q, want a rejection", ack)
		}
		<-g.entered // the follower is the new leader
		g.release <- nil
		if ack := readAck(t, follower); !strings.HasPrefix(ack, ackOK) {
			t.Fatalf("follower ack = %q", ack)
		}
		if n := g.appends.Load(); n != 2 {
			t.Errorf("Append called %d times, want 2 (failed leader, then follower)", n)
		}
		if st := s.Stats(); st.Accepted != 1 || st.Duplicated != 0 {
			t.Errorf("stats = %+v, want the follower's bundle accepted", st)
		}
		if got := s.Count(); got != 1 {
			t.Errorf("store holds %d bundles, want the follower's 1", got)
		}
	})
}
