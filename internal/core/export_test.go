package core

// EncodeReport exposes the serving encoder, with no cached Step-1
// prefixes, to the external tests, which hold it to json.Marshal on
// batch reports.
func EncodeReport(r *Report, workers int) ([]byte, error) { return encodeReport(r, nil, workers) }
