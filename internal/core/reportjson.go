package core

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"

	"repro/internal/trace"
)

// The serving encode path. A served report is dominated by per-trace
// columns that change far less often than the report does: the Step-1
// fields (traceId, userId, device and the events vector) never change
// once Step 1 has run, and the Steps-3–4 fields (normPower through
// windowKeys) change only when a base power the trace normalizes
// against moves. The rank column, by contrast, changes on almost every
// re-analysis, since each added instance shifts the ranks of its key.
// encodeReport therefore splits each trace's JSON object into three
// parts: the Step-1 prefix and the detection suffix are encoded once
// per incremental corpus entry and reused until invalidated, and the
// rank member between them is encoded fresh. The parts come from
// json.Marshal of structs that mirror AnalyzedTrace's field order and
// tags, and from appendFloats for float columns, which follows
// encoding/json's float rules; the report's own header and tail come
// from mirror structs too. So the concatenation is byte-identical to
// json.Marshal of the whole report, and TestIncrementalMatchesBatch and
// FuzzReportJSON hold it to that.

// stepOneFields mirrors the leading Step-1 fields of AnalyzedTrace.
type stepOneFields struct {
	TraceID string       `json:"traceId"`
	UserID  string       `json:"userId"`
	Device  string       `json:"device"`
	Events  []EventPower `json:"events"`
}

// detectTail mirrors the fields of AnalyzedTrace after its amplitude
// column.
type detectTail struct {
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

// rankKey joins the rank member to the Step-1 prefix.
const rankKey = `,"rank":`

// traceJSON carries one trace's encoded parts through a ReportJSON
// call: its Step-1 prefix (see encodeStepOne) and its detection suffix
// (see encodeDetect), nil where its corpus entry had none cached, plus
// that entry and its detection generation when the report read it, so
// the parts the encoder has to encode can be cached back (cacheJSON).
type traceJSON struct {
	stepOne, detect []byte
	e               *traceEntry
	gen             uint64
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

// encodeDetect returns the trace's Steps-3–4 members, from the comma
// that joins them to the rank member through the trace object's closing
// brace. The two float columns go through appendFloats, the rest
// through json.Marshal of a mirror struct whose opening brace becomes
// the comma after the amplitude column.
func (at *AnalyzedTrace) encodeDetect() ([]byte, error) {
	// Room for ~20 bytes per float.
	b := make([]byte, 0, 64+20*(len(at.NormPower)+len(at.Amplitude)))
	b, err := appendFloats(append(b, `,"normPower":`...), at.NormPower)
	if err != nil {
		return nil, err
	}
	if b, err = appendFloats(append(b, `,"amplitude":`...), at.Amplitude); err != nil {
		return nil, err
	}
	tail, err := json.Marshal(detectTail{Fence: at.Fence, Manifestations: at.Manifestations, WindowKeys: at.WindowKeys})
	if err != nil {
		return nil, err
	}
	tail[0] = ','
	return append(b, tail...), nil
}

// appendFloats appends fs as encoding/json encodes a []float64: null
// for a nil slice, else each element in its shortest round-tripping
// form, in exponent form below 1e-6 or from 1e21 in magnitude (with a
// one-digit negative exponent unpadded). A NaN or infinity is
// json.Marshal's error.
func appendFloats(dst []byte, fs []float64) ([]byte, error) {
	if fs == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, f := range fs {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		format := byte('f')
		if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
			format = 'e'
		}
		dst = strconv.AppendFloat(dst, f, format, -1, 64)
		if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1] // e-07 -> e-7
			dst = dst[:n-1]
		}
	}
	return append(dst, ']'), nil
}

// cachedJSON returns each entry's cached parts, read under ia.mu.
func cachedJSON(entries []*traceEntry) []traceJSON {
	parts := make([]traceJSON, len(entries))
	for i, e := range entries {
		parts[i] = traceJSON{stepOne: e.stepOneJSON, detect: e.detectJSON, e: e, gen: e.detectGen}
	}
	return parts
}

// cacheJSON stores the parts encodeReport encoded on their corpus
// entries: a Step-1 prefix whenever the entry still lacks one (it
// cannot go stale), a detection suffix only when no report has
// re-normalized the trace since its columns were read. The bytes are
// read-only from here on. Callers hold ia.mu.
func cacheJSON(parts []traceJSON) {
	for _, p := range parts {
		if p.e.stepOneJSON == nil {
			p.e.stepOneJSON = p.stepOne
		}
		if p.e.detectJSON == nil && p.e.detectGen == p.gen {
			p.e.detectJSON = p.detect
		}
	}
}

// encodeReport returns the same bytes as json.Marshal(r), or the error
// it would return, for a report with at least one trace and no nil
// traces, as every analyzer's is. parts, when not nil, holds each
// trace's cached parts, and encodeReport fills in the ones that are
// nil. Traces are encoded in contiguous chunks on up to workers
// goroutines (0 = GOMAXPROCS): each chunk first encodes its rank
// members and any uncached parts, then, once the chunks' sizes fix
// their offsets, copies its traces into one exact-size buffer.
func encodeReport(r *Report, parts []traceJSON, workers int) ([]byte, error) {
	head, err := json.Marshal(reportHead{AppID: r.AppID, TotalTraces: r.TotalTraces})
	if err != nil {
		return nil, err
	}
	n := len(r.Traces)
	if parts == nil {
		parts = make([]traceJSON, n)
	}
	chunks := chunkCount(workers, n)
	ranks := make([][]byte, chunks) // each chunk's rank members, back to back
	rankEnd := make([]int, n)       // end of trace i's rank member in its chunk's ranks
	size := make([]int, chunks)     // each chunk's bytes, with separating commas
	err = forChunks(chunks, n, func(c, lo, hi int) error {
		var buf []byte
		for i := lo; i < hi; i++ {
			at, p := r.Traces[i], &parts[i]
			var err error
			if p.stepOne == nil {
				if p.stepOne, err = at.encodeStepOne(); err != nil {
					return err
				}
			}
			if buf, err = appendFloats(append(buf, rankKey...), at.Rank); err != nil {
				return err
			}
			rankEnd[i] = len(buf)
			if p.detect == nil {
				if p.detect, err = at.encodeDetect(); err != nil {
					return err
				}
			}
			size[c] += len(p.stepOne) + len(p.detect)
		}
		ranks[c] = buf
		size[c] += len(buf) + hi - lo
		return nil
	})
	if err != nil {
		return nil, err
	}
	tail, err := json.Marshal(reportTail{Impacted: r.Impacted, ImpactedTraces: r.ImpactedTraces, Skipped: r.Skipped})
	if err != nil {
		return nil, err
	}

	// head loses its closing brace and tail's opening brace becomes a
	// comma. Each trace was counted above with one byte before it: a
	// comma, or for the first trace the array's opening bracket, on
	// which the first chunk's offset therefore starts.
	const tracesKey = `,"traces":[`
	offset := make([]int, chunks)
	total := len(head) - 1 + len(tracesKey) - 1
	for c := range size {
		offset[c] = total
		total += size[c]
	}
	out := make([]byte, total+len("]")+len(tail))
	copy(out[copy(out, head[:len(head)-1]):], tracesKey)
	_ = forChunks(chunks, n, func(c, lo, hi int) error {
		w, rank := offset[c], 0
		for i := lo; i < hi; i++ {
			if i > 0 {
				out[w] = ','
			}
			w++
			w += copy(out[w:], parts[i].stepOne)
			w += copy(out[w:], ranks[c][rank:rankEnd[i]])
			rank = rankEnd[i]
			w += copy(out[w:], parts[i].detect)
		}
		return nil
	})
	out[total] = ']'
	tail[0] = ','
	copy(out[total+1:], tail)
	return out, nil
}
