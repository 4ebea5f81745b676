package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"
)

// Fanout is the read side of a sharded deployment: one serving layer
// per ingest shard (each owning its shard's apps and incremental
// analyzers), with the HTTP surface re-unified here. App-scoped
// endpoints delegate to the owning service; fleet-scoped endpoints
// merge across every service. Ownership needs no routing table: each
// app is tracked by exactly one service (ingest dispatch partitions by
// app ID), so the owner is the service that knows the app.
type Fanout struct {
	svcs     []*Service
	handlers []http.Handler
}

// NewFanout builds the read fan-out over per-shard services.
func NewFanout(svcs ...*Service) (*Fanout, error) {
	if len(svcs) == 0 {
		return nil, fmt.Errorf("serve: fanout needs at least one service")
	}
	f := &Fanout{svcs: svcs}
	for _, s := range svcs {
		f.handlers = append(f.handlers, s.Handler())
	}
	return f, nil
}

// Services returns the per-shard services, in shard order.
func (f *Fanout) Services() []*Service { return f.svcs }

// ownerOf finds the service tracking an app (-1 when none does).
func (f *Fanout) ownerOf(app string) int {
	for i, s := range f.svcs {
		if _, _, ok := s.AppReport(app); ok {
			return i
		}
	}
	return -1
}

// Statuses merges every shard's app statuses, sorted by app ID.
func (f *Fanout) Statuses() []AppStatus {
	var out []AppStatus
	for _, s := range f.svcs {
		out = append(out, s.Statuses()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].App < out[j].App })
	return out
}

// Flush synchronously re-analyzes dirty apps on every shard.
func (f *Fanout) Flush() {
	for _, s := range f.svcs {
		s.Flush()
	}
}

// OldestDirtyAge returns the worst report staleness across shards.
func (f *Fanout) OldestDirtyAge() time.Duration {
	var worst time.Duration
	for _, s := range f.svcs {
		if age := s.OldestDirtyAge(); age > worst {
			worst = age
		}
	}
	return worst
}

// Close closes every shard's service.
func (f *Fanout) Close() {
	for _, s := range f.svcs {
		s.Close()
	}
}

// Handler returns the unified /analysis/ surface. App-scoped requests
// (?app=X) are delegated verbatim to the owning shard's handler, so
// their semantics — ETag validation, long-poll, what-if, diff,
// retraction — are exactly the single-service ones. /analysis/events
// is the one endpoint without a sharded equivalent (one SSE stream
// cannot interleave N independent version sequences losslessly) and
// answers 501; per-shard streams remain available on the shards.
func (f *Fanout) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/analysis/apps", func(w http.ResponseWriter, req *http.Request) {
		if !requireGET(w, req) {
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(f.Statuses())
	})
	mux.HandleFunc("/analysis/flush", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		f.Flush()
		fmt.Fprintln(w, "flushed")
	})
	mux.HandleFunc("/analysis/events", func(w http.ResponseWriter, req *http.Request) {
		http.Error(w, "event stream is per-shard in a sharded deployment", http.StatusNotImplemented)
	})
	delegate := func(w http.ResponseWriter, req *http.Request) {
		app := req.URL.Query().Get("app")
		if app == "" {
			http.Error(w, "missing ?app= parameter", http.StatusBadRequest)
			return
		}
		i := f.ownerOf(app)
		if i < 0 {
			http.Error(w, "unknown app "+app, http.StatusNotFound)
			return
		}
		f.handlers[i].ServeHTTP(w, req)
	}
	mux.HandleFunc("/analysis/report", delegate)
	mux.HandleFunc("/analysis/report/history", delegate)
	mux.HandleFunc("/analysis/whatif", delegate)
	mux.HandleFunc("/analysis/diff", delegate)
	mux.HandleFunc("/analysis/remove", delegate)
	return mux
}
