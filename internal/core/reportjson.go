package core

import (
	"encoding/json"

	"repro/internal/parallel"
	"repro/internal/trace"
)

// The serving encode path. A served report is dominated by the per-trace
// Step-1 fields (traceId, userId, device and the events vector), which
// never change once Step 1 has run, while every re-analysis re-ranks
// and so re-encodes the Steps-2–5 columns. encodeReport therefore splits
// each trace's JSON object at the boundary between the two: the Step-1
// prefix is encoded once per incremental corpus entry and reused, the
// derived suffix is encoded fresh. Both halves come from json.Marshal of
// structs that mirror AnalyzedTrace's field order and tags, and the
// report's own header and tail likewise, so the concatenation is
// byte-identical to json.Marshal of the whole report by construction.
// TestIncrementalMatchesBatch and FuzzReportJSON hold it to that.

// stepOneFields mirrors the leading Step-1 fields of AnalyzedTrace.
type stepOneFields struct {
	TraceID string       `json:"traceId"`
	UserID  string       `json:"userId"`
	Device  string       `json:"device"`
	Events  []EventPower `json:"events"`
}

// derivedFields mirrors the trailing Steps-2–5 fields of AnalyzedTrace.
type derivedFields struct {
	Rank           []float64        `json:"rank"`
	NormPower      []float64        `json:"normPower"`
	Amplitude      []float64        `json:"amplitude"`
	Fence          float64          `json:"fence"`
	Manifestations []int            `json:"manifestations"`
	WindowKeys     []trace.EventKey `json:"windowKeys"`
}

// reportHead and reportTail mirror the fields of Report before
// and after its traces array.
type reportHead struct {
	AppID       string `json:"appId"`
	TotalTraces int    `json:"totalTraces"`
}

type reportTail struct {
	Impacted       []Impact       `json:"impacted"`
	ImpactedTraces int            `json:"impactedTraces"`
	Skipped        []SkippedTrace `json:"skipped,omitempty"`
}

// encodeStepOne returns the trace's JSON object from its opening brace
// through the closing bracket of "events", without the object's closing
// brace.
func (at *AnalyzedTrace) encodeStepOne() ([]byte, error) {
	b, err := json.Marshal(stepOneFields{TraceID: at.TraceID, UserID: at.UserID, Device: at.Device, Events: at.Events})
	if err != nil {
		return nil, err
	}
	return b[:len(b)-1], nil
}

// encodeDerived returns the trace's Steps-2–5 members with the opening
// brace of their object replaced by the comma that joins them to the
// Step-1 prefix, through the trace object's closing brace.
func (at *AnalyzedTrace) encodeDerived() ([]byte, error) {
	b, err := json.Marshal(derivedFields{
		Rank:           at.Rank,
		NormPower:      at.NormPower,
		Amplitude:      at.Amplitude,
		Fence:          at.Fence,
		Manifestations: at.Manifestations,
		WindowKeys:     at.WindowKeys,
	})
	if err != nil {
		return nil, err
	}
	b[0] = ','
	return b, nil
}

// stepOnePrefixes returns the cached Step-1 prefix of each entry's trace,
// first encoding, in parallel, those not yet cached. An entry whose
// prefix does not encode stays uncached (nil), so the error surfaces
// where the report is encoded. Callers hold ia.mu.
func (ia *IncrementalAnalyzer) stepOnePrefixes(entries []*traceEntry) [][]byte {
	var missing []*traceEntry
	for _, e := range entries {
		if e.stepOneJSON == nil {
			missing = append(missing, e)
		}
	}
	_ = parallel.ForEach(ia.a.cfg.Parallelism, len(missing), func(i int) error {
		if b, err := missing[i].at.encodeStepOne(); err == nil {
			missing[i].stepOneJSON = b
		}
		return nil
	})
	prefixes := make([][]byte, len(entries))
	for i, e := range entries {
		prefixes[i] = e.stepOneJSON
	}
	return prefixes
}

// encodeReport returns the same bytes as json.Marshal(r), or the error
// it would return, for a report with at least one trace and no nil
// traces, as every analyzer's is. prefixes, when not nil, holds the
// cached Step-1 prefix of each trace (nil where none is cached). Traces
// are encoded in contiguous chunks on up to workers goroutines
// (0 = GOMAXPROCS) and assembled into one exact-size buffer.
func encodeReport(r *Report, prefixes [][]byte, workers int) ([]byte, error) {
	head, err := json.Marshal(reportHead{AppID: r.AppID, TotalTraces: r.TotalTraces})
	if err != nil {
		return nil, err
	}
	n := len(r.Traces)
	prefix := make([][]byte, n)
	if prefixes != nil {
		copy(prefix, prefixes)
	}
	suffix := make([][]byte, n)
	chunks := parallel.Workers(workers, n)
	err = parallel.ForEach(chunks, chunks, func(c int) error {
		for i := c * n / chunks; i < (c+1)*n/chunks; i++ {
			at := r.Traces[i]
			p := prefix[i]
			if p == nil {
				var err error
				if p, err = at.encodeStepOne(); err != nil {
					return err
				}
			}
			s, err := at.encodeDerived()
			if err != nil {
				return err
			}
			prefix[i], suffix[i] = p, s
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	tail, err := json.Marshal(reportTail{Impacted: r.Impacted, ImpactedTraces: r.ImpactedTraces, Skipped: r.Skipped})
	if err != nil {
		return nil, err
	}

	const tracesKey = `,"traces":`
	// head loses its closing brace and tail's opening brace becomes a
	// comma; the traces array adds its brackets and separating commas.
	size := len(head) - 1 + len(tracesKey) + len("[]") + n - 1 + len(tail)
	for i := range prefix {
		size += len(prefix[i]) + len(suffix[i])
	}
	out := make([]byte, 0, size)
	out = append(out, head[:len(head)-1]...)
	out = append(out, tracesKey+"["...)
	for i := range prefix {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, prefix[i]...)
		out = append(out, suffix[i]...)
	}
	out = append(out, ']')
	tail[0] = ','
	return append(out, tail...), nil
}
