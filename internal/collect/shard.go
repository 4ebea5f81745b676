package collect

import (
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/trace"
)

// ShardOf maps an app ID onto one of n shards (FNV-1a 32). It is the
// single partitioning function of the sharded deployment: the ingest
// dispatch, the per-shard stores and the serve-layer read fan-out must
// all agree on it, so an app's whole corpus — and its incremental
// analyzer — lives on exactly one shard.
func ShardOf(appID string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(appID))
	return int(h.Sum32() % uint32(n))
}

// ShardedServer is a Server with more than one shard. The name is kept
// for the constructor's callers; there is one ingest path for any
// shard count.
type ShardedServer = Server

// NewShardedServer starts a server on addr whose corpus is partitioned
// into n in-process shards by ShardOf. Each client connection's
// handler decodes a bundle once and hands it straight to the owning
// shard. shardOpts, when non-nil, supplies each shard's options by
// shard index: its store and ingest hook, plus the server-wide limits,
// faults and tracer, which every shard's list should carry alike (the
// last one applied wins).
//
// Exactly-once holds per shard: a bundle's content key decides its
// owner, so a retry lands on the same store as the original upload. A
// shard whose options carry no store keeps its corpus in memory.
func NewShardedServer(addr string, n int, shardOpts func(shard int) []ServerOption) (*ShardedServer, error) {
	if n < 1 {
		return nil, fmt.Errorf("collect: shard count %d < 1", n)
	}
	s := &Server{limits: DefaultLimits()}
	for i := 0; i < n; i++ {
		sh := newShard()
		if shardOpts != nil {
			for _, o := range shardOpts(i) {
				o(s, sh)
			}
		}
		if sh.store == nil {
			sh.store = newMemStore()
		}
		s.shards = append(s.shards, sh)
	}
	s.limits = s.limits.withDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("collect: listen: %w", err)
	}
	s.ln = ln
	// Live quarantine visibility, summed over this server's shards. The
	// registry keeps one func per name, so the newest server in the
	// process is the one scraped (one server per process in production).
	obs.Default.GaugeFunc("collect_quarantine_kept",
		"quarantined lines currently held in the in-memory rings",
		func() float64 { return float64(len(s.Quarantine())) })
	obs.Default.GaugeFunc("collect_quarantine_count",
		"total lines rejected into quarantine, including rotated-out ones",
		func() float64 { return float64(s.QuarantineCount()) })
	s.handler.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Shards returns the server's shards, indexed by ShardOf.
func (s *Server) Shards() []*Shard { return s.shards }

// owner returns the shard owning an app's corpus.
func (s *Server) owner(appID string) *Shard {
	return s.shards[ShardOf(appID, len(s.shards))]
}

// Bundles returns the stored bundles for one app in append order, read
// from its shard's store.
func (s *Server) Bundles(appID string) []*trace.TraceBundle {
	return s.owner(appID).Bundles(appID)
}

// Count returns the total stored bundles across all shards.
func (s *Server) Count() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Count()
	}
	return n
}

// Apps returns the app IDs with stored traces across all shards,
// sorted.
func (s *Server) Apps() []string {
	var out []string
	for _, sh := range s.shards {
		out = append(out, sh.Apps()...)
	}
	sort.Strings(out)
	return out
}

// Quarantine returns the most recent quarantined lines of every shard,
// shard by shard (a copy).
func (s *Server) Quarantine() []QuarantineEntry {
	var out []QuarantineEntry
	for _, sh := range s.shards {
		out = append(out, sh.Quarantine()...)
	}
	return out
}

// QuarantineCount sums the shards' rejected-line totals.
func (s *Server) QuarantineCount() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.QuarantineCount()
	}
	return n
}

// Shard is one partition of a Server's corpus: the apps ShardOf maps to
// it, with their store, ingest hook, in-flight appends, quarantine ring
// and verdict counters. The store is the shard's corpus and its dedup
// authority; the shard keeps no copy of either.
type Shard struct {
	store Store                    // the shard's corpus
	hook  func(*trace.TraceBundle) // optional accepted-bundle hook

	// Lock-free verdict counters (see ServerStats).
	accepted, duplicated, quarantined atomic.Int64

	mu         sync.Mutex
	inflight   map[string]*inflight // keys being persisted right now
	quarantine []QuarantineEntry    // most recent maxQuarantineKept rejects
	quarCount  int                  // total rejects, including rotated-out ones
}

// inflight tracks one dedup key whose store append is in progress on
// some handler goroutine. Concurrent uploads of the same key wait for
// the leader's verdict instead of double-appending — store.Has alone
// cannot cover the window because the append happens outside the state
// lock (it must: group commit wants many handlers inside store.Append
// at once).
type inflight struct {
	done chan struct{}
}

func newShard() *Shard {
	return &Shard{inflight: make(map[string]*inflight)}
}

// dedupKey identifies a bundle across re-uploads and restarts: the
// stamped content key when present, else the app/user/trace triple
// (legacy uploaders without integrity keys).
func dedupKey(b *trace.TraceBundle) string {
	if b.Key != "" {
		return b.Key
	}
	return b.Event.AppID + "/" + b.Event.UserID + "/" + b.Event.TraceID
}

// ingest stores one validated, scrubbed bundle, returning it on
// acceptance and whether it was a content-key duplicate of an already
// stored one. The store append runs OUTSIDE the state lock: with a
// group-committing store many handler goroutines must be inside Append
// at once for batching to exist at all. Exactly-once across that
// window is kept by the inflight map — the first uploader of a key
// becomes its persist leader, concurrent uploads of the same key wait
// for the leader's verdict, and the ack is only ever sent after
// durability.
func (sh *Shard) ingest(b *trace.TraceBundle) (stored *trace.TraceBundle, dup bool, err error) {
	dk := dedupKey(b)
	sh.mu.Lock()
	for {
		if sh.store.Has(dk) {
			sh.mu.Unlock()
			return nil, true, nil // idempotent: re-uploads after a lost ack are fine
		}
		leader, busy := sh.inflight[dk]
		if !busy {
			break
		}
		// Another connection is persisting this exact key right now.
		// Wait for its verdict: if it succeeds we are a duplicate; if
		// it fails we take over as the new leader.
		sh.mu.Unlock()
		<-leader.done
		sh.mu.Lock()
	}
	fl := &inflight{done: make(chan struct{})}
	sh.inflight[dk] = fl
	sh.mu.Unlock()

	// Persist before acknowledging: an acked bundle survives a crash; a
	// failed write is reported so the phone retries. Off-lock, so
	// concurrent handlers share the store's group commit.
	aerr := sh.store.Append(b)

	sh.mu.Lock()
	delete(sh.inflight, dk)
	close(fl.done)
	sh.mu.Unlock()
	if aerr != nil {
		return nil, false, aerr
	}
	return b, false, nil
}

// record counts one successful verdict and fires the ingest hook for a
// newly stored bundle.
func (sh *Shard) record(stored *trace.TraceBundle, dup bool) {
	if dup {
		sh.duplicated.Add(1)
		mSrvDuplicated.Inc()
		return
	}
	sh.accepted.Add(1)
	mSrvAccepted.Inc()
	if sh.hook != nil {
		sh.hook(stored)
	}
}

// quarantineLine records a rejected wire line: bounded in memory,
// complete in a durable store. parent, when non-nil, is the ingest
// span the rejection belongs under.
func (sh *Shard) quarantineLine(line []byte, key string, cause error, parent *obs.Span) {
	sh.quarantined.Add(1)
	mSrvQuarantined.Inc()
	if parent != nil {
		defer parent.Child("server.quarantine").End()
	}
	entry := QuarantineEntry{
		Key:    key,
		Reason: cause.Error(),
		Line:   append([]byte(nil), line...),
	}
	sh.mu.Lock()
	sh.quarCount++
	sh.quarantine = append(sh.quarantine, entry)
	if len(sh.quarantine) > maxQuarantineKept {
		sh.quarantine = sh.quarantine[len(sh.quarantine)-maxQuarantineKept:]
	}
	sh.mu.Unlock()
	// Best-effort: quarantine persistence failing must not take the
	// handler down with it.
	_ = sh.store.AppendQuarantine(entry)
}

// Stats returns the shard's verdict counters. Bytes and connections are
// counted by the Server, so they are zero here.
func (sh *Shard) Stats() ServerStats {
	return ServerStats{
		Accepted:    sh.accepted.Load(),
		Duplicated:  sh.duplicated.Load(),
		Quarantined: sh.quarantined.Load(),
	}
}

// Quarantine returns the shard's most recent quarantined lines (a copy).
func (sh *Shard) Quarantine() []QuarantineEntry {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]QuarantineEntry, len(sh.quarantine))
	copy(out, sh.quarantine)
	return out
}

// QuarantineCount returns how many lines the shard has rejected in
// total.
func (sh *Shard) QuarantineCount() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.quarCount
}

// Scan streams the shard's stored bundles in append order.
func (sh *Shard) Scan(fn func(*trace.TraceBundle) error) error {
	return sh.store.Scan(fn)
}

// read scans the shard's store for Bundles, Count and Apps. They have
// no error result, so a store that cannot be read panics rather than
// pass for an empty one; code that can handle the error calls Scan.
func (sh *Shard) read(fn func(*trace.TraceBundle)) {
	err := sh.store.Scan(func(b *trace.TraceBundle) error {
		fn(b)
		return nil
	})
	if err != nil {
		panic(err)
	}
}

// Bundles returns the stored bundles for one app in append order.
func (sh *Shard) Bundles(appID string) []*trace.TraceBundle {
	var out []*trace.TraceBundle
	sh.read(func(b *trace.TraceBundle) {
		if b.Event.AppID == appID {
			out = append(out, b)
		}
	})
	return out
}

// Count returns the number of bundles the shard stores.
func (sh *Shard) Count() int {
	n := 0
	sh.read(func(*trace.TraceBundle) { n++ })
	return n
}

// Apps returns the app IDs with stored traces on this shard.
func (sh *Shard) Apps() []string {
	seen := make(map[string]bool)
	var apps []string
	sh.read(func(b *trace.TraceBundle) {
		if !seen[b.Event.AppID] {
			seen[b.Event.AppID] = true
			apps = append(apps, b.Event.AppID)
		}
	})
	return apps
}
