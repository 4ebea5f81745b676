package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// This file provides JSON-lines corpus streaming shared by the CLI
// tools and the collection server's file store: one bundle per line,
// blank lines ignored.

// maxBundleBytes bounds one serialized bundle when scanning (64 MiB).
const maxBundleBytes = 64 << 20

// ReadBundles decodes every JSON-line bundle from r.
func ReadBundles(r io.Reader) ([]*TraceBundle, error) {
	var bundles []*TraceBundle
	err := ScanBundles(r, func(b *TraceBundle) error {
		bundles = append(bundles, b)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return bundles, nil
}

// ScanBundles streams bundles from r to fn, stopping at the first
// error. Use this instead of ReadBundles when the corpus may not fit in
// memory at once.
func ScanBundles(r io.Reader, fn func(*TraceBundle) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxBundleBytes)
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		b, err := DecodeBundle(bytes.NewReader(text))
		if err != nil {
			return fmt.Errorf("trace: line %d: %w", line, err)
		}
		if err := fn(b); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("trace: scan bundles: %w", err)
	}
	return nil
}

// BadBundleLine describes one undecodable line met during a lenient
// corpus scan.
type BadBundleLine struct {
	// Line is the 1-based line number in the stream.
	Line int
	// Text is a prefix of the offending line (at most 120 bytes).
	Text string
	// Err is the decode error.
	Err error
}

// ScanBundlesLenient streams bundles from r to fn like ScanBundles, but
// survives undecodable lines: each one is reported to onBad (when
// non-nil) and skipped. A crash can leave a torn trailing line in an
// append-only corpus file, and a reader must keep every bundle before
// it rather than fail the whole file, so this is the loader the JSONL
// store import uses. fn or onBad returning an error stops the scan.
func ScanBundlesLenient(r io.Reader, fn func(*TraceBundle) error, onBad func(BadBundleLine) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxBundleBytes)
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		b, err := DecodeBundle(bytes.NewReader(text))
		if err != nil {
			if onBad != nil {
				prefix := text
				if len(prefix) > 120 {
					prefix = prefix[:120]
				}
				if err := onBad(BadBundleLine{Line: line, Text: string(prefix), Err: err}); err != nil {
					return err
				}
			}
			continue
		}
		if err := fn(b); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("trace: scan bundles: %w", err)
	}
	return nil
}

// WriteBundles encodes bundles to w as JSON lines.
func WriteBundles(w io.Writer, bundles []*TraceBundle) error {
	bw := bufio.NewWriter(w)
	for i, b := range bundles {
		if err := EncodeBundle(bw, b); err != nil {
			return fmt.Errorf("trace: bundle %d: %w", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: write bundles: %w", err)
	}
	return nil
}
