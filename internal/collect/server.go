// Package collect implements EnergyDx's trace-collection tier: phones
// upload their event and utilization traces to a backend server "when
// the smartphone is in charge with WiFi, which is a common practice to
// upload traces without impacting the normal usage of smartphone"
// (paper §II-B). Uploads are newline-delimited JSON bundles over TCP,
// acknowledged per bundle (acks echo the bundle's content key) so a
// client can resume after a dropped connection without duplicating
// data.
//
// The ingestion path assumes nothing about upload quality: every line
// is strictly validated (decode, content-key integrity, structural
// trace invariants, size limits) and rejected lines are kept in a
// quarantine — excluded from analysis but available for diagnosis —
// so one corrupt upload never poisons a corpus or takes down a
// connection handler.
//
// Privacy: the client scrubs bundles before they leave the phone, and
// the server scrubs again on receipt (defense in depth) — the backend
// never stores raw user identifiers.
package collect

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/trace/binenc"
)

// Ingestion-path metrics on the process registry, aggregated across
// every Server in the process. Per-instance numbers (the ones the
// reconciliation invariant accepted+duplicated+quarantined == received
// is checked against) come from Server.Stats. The quarantine ring size
// and skipped-trace gauges make state that used to be visible only
// post-hoc in files observable live.
var (
	mSrvAccepted    = obs.Default.Counter("collect_bundles_accepted_total", "bundles validated and stored")
	mSrvDuplicated  = obs.Default.Counter("collect_bundles_duplicated_total", "re-uploads deduplicated by content key")
	mSrvQuarantined = obs.Default.Counter("collect_bundles_quarantined_total", "wire lines rejected into quarantine")
	mSrvBytes       = obs.Default.Counter("collect_bytes_ingested_total", "wire bytes received on the ingest path")
	mSrvConns       = obs.Default.Counter("collect_connections_total", "client connections accepted")
	gSrvConnsOpen   = obs.Default.Gauge("collect_connections_open", "client connections currently open")
	hSrvIngest      = obs.Default.Histogram("collect_ingest_seconds", "per-line validate+store latency", nil)
)

const (
	// ackOK acknowledges a validated-and-stored (or deduplicated) bundle.
	ackOK = "OK"
	// ackErr precedes a rejection; the line is "ERR <key> <reason>".
	ackErr = "ERR"
	// ackUnknownKey stands in for the key when a line cannot be decoded.
	ackUnknownKey = "?"
)

// ackErrPrefix is the textual prefix of a rejection ack.
const ackErrPrefix = ackErr + " "

// helloBinary is the protocol hello a client sends (and a server
// echoes) to negotiate the binary columnar codec on a connection. Text
// clients never send it — a JSON bundle line starts with '{' — and an
// old server treats it as one undecodable line and rejects it, which
// the client reads as "speak text", so both fallback directions work
// with no version handshake beyond this single line. Acks stay
// newline-delimited text in both modes.
const helloBinary = "EDX1 bin"

// helloLine is the hello as it appears on the wire.
const helloLine = helloBinary + "\n"

// Limits bounds what one client may ingest. The zero value of any
// field means its default.
type Limits struct {
	// MaxLineBytes bounds one serialized bundle (default 16 MiB).
	MaxLineBytes int
	// MaxRecords bounds the event records in one bundle (default 1M).
	MaxRecords int
	// MaxSamples bounds the utilization samples in one bundle (default 1M).
	MaxSamples int
	// MaxBundlesPerConn bounds the bundles one connection may send
	// (default 10000); beyond it, the connection is closed.
	MaxBundlesPerConn int
	// MaxBadLinesPerConn bounds the rejected lines one connection may
	// produce before it is closed (default 100) — a client that only
	// sends garbage does not get to keep the handler busy forever.
	MaxBadLinesPerConn int
}

// DefaultLimits returns the production defaults.
func DefaultLimits() Limits {
	return Limits{
		MaxLineBytes:       16 << 20,
		MaxRecords:         1 << 20,
		MaxSamples:         1 << 20,
		MaxBundlesPerConn:  10000,
		MaxBadLinesPerConn: 100,
	}
}

// withDefaults replaces zero fields with their defaults.
func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	if l.MaxLineBytes <= 0 {
		l.MaxLineBytes = d.MaxLineBytes
	}
	if l.MaxRecords <= 0 {
		l.MaxRecords = d.MaxRecords
	}
	if l.MaxSamples <= 0 {
		l.MaxSamples = d.MaxSamples
	}
	if l.MaxBundlesPerConn <= 0 {
		l.MaxBundlesPerConn = d.MaxBundlesPerConn
	}
	if l.MaxBadLinesPerConn <= 0 {
		l.MaxBadLinesPerConn = d.MaxBadLinesPerConn
	}
	return l
}

// maxQuarantineKept bounds the quarantine entries kept in memory; the
// durable store keeps all of them.
const maxQuarantineKept = 256

// QuarantineEntry is one rejected wire line, kept for diagnosis and
// excluded from analysis.
type QuarantineEntry struct {
	// Key is the bundle's stamped content key when the line decoded far
	// enough to read one, else empty.
	Key string `json:"key,omitempty"`
	// Reason is the rejection reason.
	Reason string `json:"reason"`
	// Line is the offending wire line as received.
	Line []byte `json:"line"`
}

// ServerStats is a snapshot of a server's ingestion counters. Every
// wire line the server reads lands in exactly one of Accepted,
// Duplicated or Quarantined, so
//
//	Accepted + Duplicated + Quarantined == lines received
//
// holds at any quiescent point — the reconciliation invariant the
// fault-injection integration tests pin.
type ServerStats struct {
	// Accepted is the count of bundles validated and stored.
	Accepted int64
	// Duplicated is the count of re-uploads recognized by content key
	// and acknowledged without storing again.
	Duplicated int64
	// Quarantined is the count of rejected wire lines; QuarantineCount
	// reports the same total.
	Quarantined int64
	// BytesIngested is the wire bytes offered to ingestion, hello lines
	// included. Bytes are counted where they are read, so a Shard's
	// view reports zero.
	BytesIngested int64
	// ConnsTotal is the count of accepted client connections. Like
	// ConnsOpen it is a property of the listener, zero on a Shard.
	ConnsTotal int64
	// ConnsOpen is the number of client connections currently being
	// handled.
	ConnsOpen int64
}

// Server receives and stores trace bundles. One listener and one
// handler per client connection decode each line or frame once and
// hand the bundle to the Shard that owns its app (ShardOf); an
// unsharded server is simply a server with one shard. Limits, fault
// injection, the tracer and the per-connection budgets belong to the
// server; stores (each shard's corpus and dedup authority), ingest
// hooks, quarantine rings and verdict counters belong to each shard.
type Server struct {
	ln       net.Listener
	shards   []*Shard
	limits   Limits
	injector *faults.Injector // optional chaos injector on received lines
	tracer   *obs.Tracer      // optional span sink for the ingest path

	// Lock-free connection-level counters (see ServerStats).
	bytesIngested         atomic.Int64
	connsTotal, connsOpen atomic.Int64

	closed  atomic.Bool
	handler sync.WaitGroup
}

// ServerOption configures a server. WithStore and WithIngestHook
// configure the shard whose option list carries them; the other
// options configure the connection-handling front that every shard
// shares.
type ServerOption func(*Server, *Shard)

// WithStore makes store the shard's corpus: accepted bundles are
// appended to it, dedup asks it, and every read of the corpus scans
// it. With a durable store (SegStore) a restarted server continues
// where it stopped. Without this option the shard keeps its corpus in
// memory.
func WithStore(store Store) ServerOption {
	return func(_ *Server, sh *Shard) { sh.store = store }
}

// WithLimits overrides the ingestion limits; zero fields keep their
// defaults.
func WithLimits(l Limits) ServerOption {
	return func(s *Server, _ *Shard) { s.limits = l }
}

// WithServerFaults injects faults into received lines before ingestion
// (chaos testing via collectd's -faults flag): lines may be corrupted,
// truncated or duplicated, connections dropped, and ingestion delayed.
func WithServerFaults(in *faults.Injector) ServerOption {
	return func(s *Server, _ *Shard) { s.injector = in }
}

// WithIngestHook calls fn for every bundle accepted into the corpus —
// after validation, scrubbing, dedup and durable persistence, so fn
// only ever sees bundles that analysis would. Re-uploads recognized by
// content key do not fire it. fn runs on the connection handler
// goroutine outside the shard's state lock; it must be
// concurrency-safe and should return quickly (hand heavy work, like
// triggering re-analysis, to a debounced consumer such as
// serve.Service). The bundle is the stored instance: treat it as
// read-only.
func WithIngestHook(fn func(*trace.TraceBundle)) ServerOption {
	return func(_ *Server, sh *Shard) { sh.hook = fn }
}

// WithServerTracer records one span per ingested line ("server.ingest",
// with "server.quarantine" children for rejects) on tr, exportable as a
// JSONL trace. Production servers may leave it nil; the ingest-latency
// histogram on the metrics registry is always populated.
func WithServerTracer(tr *obs.Tracer) ServerOption {
	return func(s *Server, _ *Shard) { s.tracer = tr }
}

// NewServer starts a single-shard collection server on addr (e.g.
// "127.0.0.1:0").
func NewServer(addr string, opts ...ServerOption) (*Server, error) {
	return NewShardedServer(addr, 1, func(int) []ServerOption { return opts })
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting connections and waits for in-flight handlers.
// The shards' stores stay open; their owner closes them.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := s.ln.Close()
	s.handler.Wait()
	return err
}

// acceptLoop owns the listener; one goroutine per connection, all joined
// through the WaitGroup so Close is clean.
func (s *Server) acceptLoop() {
	defer s.handler.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.handler.Add(1)
		go func() {
			defer s.handler.Done()
			s.handleConn(conn)
		}()
	}
}

// Stats returns a snapshot of the server's ingestion counters: the
// shards' verdict counters summed, plus the connection-level ones. The
// reconciliation invariant holds server-wide because it holds per
// shard.
func (s *Server) Stats() ServerStats {
	out := ServerStats{
		BytesIngested: s.bytesIngested.Load(),
		ConnsTotal:    s.connsTotal.Load(),
		ConnsOpen:     s.connsOpen.Load(),
	}
	for _, sh := range s.shards {
		st := sh.Stats()
		out.Accepted += st.Accepted
		out.Duplicated += st.Duplicated
		out.Quarantined += st.Quarantined
	}
	return out
}

func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	s.connsTotal.Add(1)
	mSrvConns.Inc()
	s.connsOpen.Add(1)
	gSrvConnsOpen.Inc()
	defer func() {
		s.connsOpen.Add(-1)
		gSrvConnsOpen.Dec()
	}()
	br := bufio.NewReaderSize(conn, 64*1024)
	w := bufio.NewWriter(conn)
	// Codec negotiation: a binary client leads with the hello line; a
	// text client's first bytes are a JSON bundle ('{'), which cannot
	// collide with it. Real bundle lines are far longer than the hello,
	// so peeking this much never stalls a live upload.
	if peek, err := br.Peek(len(helloLine)); err == nil && string(peek) == helloLine {
		br.Discard(len(helloLine))
		s.bytesIngested.Add(int64(len(helloLine)))
		mSrvBytes.Add(int64(len(helloLine)))
		if _, err := w.WriteString(helloLine); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
		s.handleBinary(br, w)
		return
	}
	s.handleText(br, w)
}

// connState is one client connection's ingest state: its ack writer,
// its wire codec, and how much of its Limits budgets it has used.
type connState struct {
	w        *bufio.Writer
	decode   func([]byte) (*trace.TraceBundle, error)
	overhead int64 // framing bytes per unit not included in its payload
	bundles  int
	bad      int
}

// handleBinary is the frame loop of a negotiated binary connection:
// length-prefixed CRC-checked binenc frames in, text acks out.
func (s *Server) handleBinary(br *bufio.Reader, w *bufio.Writer) {
	c := &connState{w: w, decode: decodeBinary, overhead: binenc.FrameOverhead}
	for {
		payload, err := binenc.ReadFrame(br, s.limits.MaxLineBytes)
		if err != nil {
			if err == io.EOF {
				return // clean end of upload
			}
			// A torn or corrupt frame cannot be resynced past (the next
			// length prefix is untrustworthy), so like an over-long text
			// line this closes the connection; the client retries.
			s.shards[0].quarantineLine(nil, "", fmt.Errorf("binary framing: %v", err), nil)
			fmt.Fprintf(w, "%s %s binary framing: %v\n", ackErr, ackUnknownKey, err)
			w.Flush()
			return
		}
		if !s.receive(c, payload) {
			return
		}
	}
}

// handleText is the newline-delimited JSON loop (the Fig-5 wire format).
func (s *Server) handleText(br *bufio.Reader, w *bufio.Writer) {
	sc := bufio.NewScanner(br)
	// The scanner's max token size is the larger of the cap argument and
	// the initial buffer, so the initial buffer must not exceed the
	// configured line limit.
	sc.Buffer(make([]byte, 0, min(64*1024, s.limits.MaxLineBytes)), s.limits.MaxLineBytes)
	c := &connState{w: w, decode: decodeText}
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if !s.receive(c, line) {
			return
		}
	}
	// A line over MaxLineBytes surfaces here as bufio.ErrTooLong. The
	// scanner cannot resync mid-line, so the connection is closed; the
	// oversize upload is quarantined by size class (the line itself is
	// too big to keep).
	if err := sc.Err(); err != nil {
		s.shards[0].quarantineLine(nil, "", fmt.Errorf("line exceeds %d bytes: %w", s.limits.MaxLineBytes, err), nil)
		fmt.Fprintf(w, "%s %s line exceeds %d byte limit\n", ackErr, ackUnknownKey, s.limits.MaxLineBytes)
		w.Flush()
	}
}

// receive ingests one unit read off a connection — a text line or a
// binary frame payload — and flushes its acks. It enforces the
// connection's bundle budget before anything else and applies the
// fault injector. It returns false when the connection must close.
func (s *Server) receive(c *connState, unit []byte) bool {
	c.bundles++
	if c.bundles > s.limits.MaxBundlesPerConn {
		fmt.Fprintf(c.w, "%s %s connection bundle limit (%d) exceeded\n",
			ackErr, ackUnknownKey, s.limits.MaxBundlesPerConn)
		c.w.Flush()
		return false
	}
	units := [][]byte{unit}
	if s.injector != nil {
		if d := s.injector.Delay(); d > 0 {
			time.Sleep(d)
		}
		var drop bool
		units, drop = s.injector.Apply(unit)
		if drop {
			return false // injected connection cut; the client retries
		}
	}
	for _, u := range units {
		s.bytesIngested.Add(int64(len(u)) + c.overhead)
		mSrvBytes.Add(int64(len(u)) + c.overhead)
		if !s.ingest(c, u) {
			return false
		}
	}
	return c.w.Flush() == nil
}

// ingest decodes and validates one unit, hands it to the shard that
// owns its app, and buffers the ack. A unit that cannot be decoded, or
// names no app, belongs to shard 0, whose quarantine records it. It
// returns false when the connection has exhausted its bad-line budget.
func (s *Server) ingest(c *connState, raw []byte) bool {
	var sp *obs.Span
	if s.tracer != nil {
		sp = s.tracer.Start("server.ingest")
		defer sp.End()
	}
	start := time.Now()
	b, err := c.decode(raw)
	sh := s.shards[0]
	key := ""
	if b != nil {
		key = b.Key
		if b.Event.AppID != "" {
			sh = s.owner(b.Event.AppID)
		}
	}
	var stored *trace.TraceBundle
	var dup bool
	if err == nil {
		err = s.validate(b)
	}
	if err == nil && s.closed.Load() {
		err = errors.New("server shutting down")
	}
	if err == nil {
		stored, dup, err = sh.ingest(trace.ScrubBundle(b))
	}
	hSrvIngest.Observe(time.Since(start).Seconds())

	if err != nil {
		c.bad++
		sh.quarantineLine(raw, key, err, sp)
		fmt.Fprintf(c.w, "%s %s %v\n", ackErr, keyOrUnknown(key), err)
		if c.bad > s.limits.MaxBadLinesPerConn {
			c.w.Flush()
			return false
		}
		return true
	}
	sh.record(stored, dup)
	fmt.Fprintf(c.w, "%s %s\n", ackOK, keyOrUnknown(key))
	return true
}

func keyOrUnknown(key string) string {
	if key == "" {
		return ackUnknownKey
	}
	return key
}

// decodeText decodes one newline-delimited JSON bundle.
func decodeText(line []byte) (*trace.TraceBundle, error) {
	b, err := trace.DecodeBundle(bytes.NewReader(line))
	if err != nil {
		return nil, fmt.Errorf("decode: %v", err)
	}
	return b, nil
}

// decodeBinary decodes one binary frame payload. The binary codec is a
// pure serialization layer and will carry NaN/Inf utilization bit
// patterns (JSON structurally cannot), but the content-key hash goes
// through JSON — reject non-finite floats here so a hostile frame
// cannot reach it. The bundle is returned with that error so its key
// can be acked.
func decodeBinary(payload []byte) (*trace.TraceBundle, error) {
	b, err := binenc.DecodeBundle(payload)
	if err != nil {
		return nil, fmt.Errorf("decode: %v", err)
	}
	for i := range b.Util.Samples {
		for _, v := range b.Util.Samples[i].Util {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return b, errors.New("utilization not finite")
			}
		}
	}
	return b, nil
}

// validate checks one decoded bundle against integrity, the limits and
// the structural trace invariants. Integrity comes before anything
// else: a line altered in flight must not reach a store even if it
// still parses.
func (s *Server) validate(b *trace.TraceBundle) error {
	if err := trace.VerifyContentKey(b); err != nil {
		return fmt.Errorf("integrity: %v", err)
	}
	if b.Event.AppID == "" {
		return errors.New("bundle has no app id")
	}
	if n := len(b.Event.Records); n > s.limits.MaxRecords {
		return fmt.Errorf("event trace has %d records, limit %d", n, s.limits.MaxRecords)
	}
	if n := len(b.Util.Samples); n > s.limits.MaxSamples {
		return fmt.Errorf("utilization trace has %d samples, limit %d", n, s.limits.MaxSamples)
	}
	if err := b.Event.Validate(); err != nil {
		return fmt.Errorf("event trace: %v", err)
	}
	if err := b.Util.Validate(); err != nil {
		return fmt.Errorf("utilization trace: %v", err)
	}
	return nil
}
