package main

import (
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/collect"
	"repro/internal/collect/seglog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

// shards is the ingest tier's shard count, as in
// `collectd -store-format seg -shards 2 -serve-analysis`.
const shards = 2

// tap is the harness side of the traced run: wrappers around the
// program's public seams (the Store handed to collect.WithStore and the
// hook handed to collect.WithIngestHook) that time each call while the
// current phase is traced. Untraced runs build no tap at all.
type tap struct {
	ph       atomic.Pointer[phases]
	appendUS recorder // SegStore.Append wall, microseconds
	notifyUS recorder // Service.Notify wall, microseconds
}

func (t *tap) on() bool {
	p := t.ph.Load()
	return p != nil && p.Traced()
}

// timedStore is collect.Store around a SegStore that times Append.
type timedStore struct {
	*collect.SegStore
	t *tap
}

func (s timedStore) Append(b *trace.TraceBundle) error {
	if !s.t.on() {
		return s.SegStore.Append(b)
	}
	start := time.Now()
	err := s.SegStore.Append(b)
	s.t.appendUS.add(us(time.Since(start)))
	return err
}

// timedHook wraps Service.Notify for collect.WithIngestHook.
func (t *tap) timedHook(notify func(*trace.TraceBundle)) func(*trace.TraceBundle) {
	return func(b *trace.TraceBundle) {
		if !t.on() {
			notify(b)
			return
		}
		start := time.Now()
		notify(b)
		t.notifyUS.add(us(time.Since(start)))
	}
}

// system is the ingest and serving tier wired the way collectd wires it
// with -store-format seg -shards 2 -serve-analysis: one SegStore and one
// serving layer per shard behind the hash(appID) router, every knob at
// collectd's default.
type system struct {
	dir    string
	svcs   []*serve.Service
	stores []*collect.SegStore
	ss     *collect.ShardedServer
	fan    *serve.Fanout
	tap    *tap // nil when untraced
}

// quietLogger is collectd's default logger (info, text) with its output
// discarded: the serving layer still formats every record it logs.
func quietLogger() *slog.Logger {
	l, err := obs.NewLogger(io.Discard, "info", "text")
	if err != nil {
		panic(err) // constant arguments; cannot fail
	}
	return l
}

// newSystem starts the tier with stores under dir. traced wraps the
// seams with a tap.
func newSystem(dir string, traced bool) (*system, error) {
	s := &system{dir: dir}
	if traced {
		s.tap = &tap{}
	}
	logger := quietLogger()
	for i := 0; i < shards; i++ {
		svc, err := serve.New(serve.Config{Analysis: core.DefaultConfig(), Logger: logger})
		if err != nil {
			s.close()
			return nil, err
		}
		s.svcs = append(s.svcs, svc)
	}
	var buildErr error
	ss, err := collect.NewShardedServer("127.0.0.1:0", shards, func(i int) []collect.ServerOption {
		store, err := collect.NewSegStore(filepath.Join(dir, fmt.Sprintf("shard-%d", i)), seglog.Options{})
		if err != nil {
			if buildErr == nil {
				buildErr = err
			}
			return nil
		}
		s.stores = append(s.stores, store)
		var st collect.Store = store
		hook := s.svcs[i].Notify
		if s.tap != nil {
			st = timedStore{SegStore: store, t: s.tap}
			hook = s.tap.timedHook(hook)
		}
		return []collect.ServerOption{
			collect.WithLimits(collect.Limits{}),
			collect.WithStore(st),
			collect.WithIngestHook(hook),
		}
	})
	if buildErr == nil && err != nil {
		buildErr = err
	}
	if buildErr != nil {
		if ss != nil {
			ss.Close()
		}
		s.close()
		return nil, buildErr
	}
	s.ss = ss
	fan, err := serve.NewFanout(s.svcs...)
	if err != nil {
		s.close()
		return nil, err
	}
	s.fan = fan
	return s, nil
}

// close stops the router, the serving layers and the stores.
func (s *system) close() {
	if s.ss != nil {
		s.ss.Close()
		s.ss = nil
	}
	for _, svc := range s.svcs {
		svc.Close()
	}
	s.svcs = nil
	for _, st := range s.stores {
		st.Close()
	}
	s.stores = nil
}

// logStats sums the stores' log counters.
func (s *system) logStats() (appends, commits int64) {
	for _, st := range s.stores {
		ls := st.Log().Stats()
		appends += ls.Appends
		commits += ls.Commits
	}
	return appends, commits
}

// diskBytes is the size of every file under the store directory.
func (s *system) diskBytes() int64 {
	var n int64
	_ = filepath.WalkDir(s.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}

// svcFor is the serving layer that owns app.
func (s *system) svcFor(app string) *serve.Service {
	return s.svcs[collect.ShardOf(app, shards)]
}
