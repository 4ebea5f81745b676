package collect

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/trace"
)

// Store is a shard's corpus: the single owner of its accepted bundles
// and the authority on which ones it already holds. The server
// acknowledges an upload when Append returns, so a durable store must
// have fsynced the bundle by then. SegStore is the durable store; a
// shard given none keeps its corpus in memory for the life of the
// process.
type Store interface {
	// Append persists one accepted bundle.
	Append(b *trace.TraceBundle) error
	// Has reports whether a bundle with this dedup key is stored.
	Has(key string) bool
	// Scan streams every stored bundle in append order, stopping at the
	// first error, which it returns.
	Scan(fn func(*trace.TraceBundle) error) error
	// AppendQuarantine records one rejected wire line.
	AppendQuarantine(entry QuarantineEntry) error
	// Close releases the store's file handles.
	Close() error
}

// memStore is the Store of a shard started without one: bundles and
// their dedup keys in memory, in append order. Rejected lines are kept
// only in the shard's bounded quarantine ring.
type memStore struct {
	mu      sync.Mutex
	bundles []*trace.TraceBundle
	keys    map[string]struct{}
}

func newMemStore() *memStore { return &memStore{keys: make(map[string]struct{})} }

func (m *memStore) Append(b *trace.TraceBundle) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.keys[dedupKey(b)] = struct{}{}
	m.bundles = append(m.bundles, b)
	return nil
}

func (m *memStore) Has(key string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.keys[key]
	return ok
}

// Scan walks the bundles stored when it starts; appends only ever grow
// the slice, so the snapshot is safe to read unlocked.
func (m *memStore) Scan(fn func(*trace.TraceBundle) error) error {
	m.mu.Lock()
	snapshot := m.bundles
	m.mu.Unlock()
	for _, b := range snapshot {
		if err := fn(b); err != nil {
			return err
		}
	}
	return nil
}

func (m *memStore) AppendQuarantine(QuarantineEntry) error { return nil }

func (m *memStore) Close() error { return nil }

// The JSONL store layout that ImportJSONL migrates: one <app>.jsonl
// file per app, and the rejected lines in quarantine/rejected.jsonl.
const (
	quarantineDir  = "quarantine"
	quarantineFile = "rejected.jsonl"
)

// ImportJSONL migrates a directory in the JSONL store layout into
// store, renaming each file it has fully imported to <name>.imported,
// so a directory holding no such files is left as it is. A bundle
// already in store (by dedup key) is not appended again, which makes
// re-running an import that a crash interrupted safe. Torn or
// undecodable lines — a crash in the middle of an append left them,
// and they were never acknowledged — are dropped and counted in torn.
// A crash inside the quarantine file may repeat on the re-run the
// rejected lines already copied; they are diagnostics, never corpus.
func ImportJSONL(store Store, dir string) (imported, torn int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, fmt.Errorf("collect: import: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".jsonl") {
			continue
		}
		err := importFile(filepath.Join(dir, e.Name()), func(r io.Reader) error {
			return trace.ScanBundlesLenient(r,
				func(b *trace.TraceBundle) error {
					if store.Has(dedupKey(b)) {
						return nil
					}
					if err := store.Append(b); err != nil {
						return err
					}
					imported++
					return nil
				},
				func(trace.BadBundleLine) error {
					torn++
					return nil
				})
		})
		if err != nil {
			return imported, torn, err
		}
	}
	qpath := filepath.Join(dir, quarantineDir, quarantineFile)
	if _, err := os.Stat(qpath); errors.Is(err, os.ErrNotExist) {
		return imported, torn, nil
	}
	err = importFile(qpath, func(r io.Reader) error {
		br := bufio.NewReader(r)
		for {
			line, rerr := br.ReadBytes('\n')
			if len(bytes.TrimSpace(line)) > 0 {
				var e QuarantineEntry
				if json.Unmarshal(line, &e) != nil {
					torn++
				} else if err := store.AppendQuarantine(e); err != nil {
					return err
				}
			}
			if rerr == io.EOF {
				return nil
			}
			if rerr != nil {
				return rerr
			}
		}
	})
	return imported, torn, err
}

// importFile feeds one file to read and, once read succeeds, renames
// it out of the import's way.
func importFile(path string, read func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("collect: import: %w", err)
	}
	err = read(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("collect: import %s: %w", path, err)
	}
	if err := os.Rename(path, path+".imported"); err != nil {
		return fmt.Errorf("collect: import: %w", err)
	}
	return nil
}
