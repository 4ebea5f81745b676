package core

// EncodeReport exposes the serving encoder, with no cached parts, to
// the external tests, which hold it to json.Marshal on batch reports.
func EncodeReport(r *Report, workers int) ([]byte, error) { return encodeReport(r, nil, workers) }

// SetChunkGrain sets the fewest traces per worker of the report's
// chunked loops and returns a func that restores the previous value,
// so the tests can drive small corpora through real chunks.
func SetChunkGrain(n int) (restore func()) {
	old := chunkGrain
	chunkGrain = n
	return func() { chunkGrain = old }
}

// AppendFloats exposes the rank-column encoder to the external tests,
// which hold it to json.Marshal.
var AppendFloats = appendFloats

// ReportJSONWith is ReportJSON with between called after the report is
// taken and before the parts encoded for it are cached back, so a test
// can interleave another mutation and report deterministically.
func (ia *IncrementalAnalyzer) ReportJSONWith(between func()) (*Report, []byte, error) {
	ia.mu.Lock()
	report, parts, err := ia.reportLocked(true)
	ia.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	between()
	data, err := encodeReport(report, parts, ia.a.cfg.Parallelism)
	if err != nil {
		return nil, nil, err
	}
	ia.mu.Lock()
	cacheJSON(parts)
	ia.mu.Unlock()
	return report, data, nil
}
