package wldsl

import (
	"bytes"

	"ensembleio/internal/workloads"
)

// CanonicalBytes returns the spec's canonical encoding — the exact
// bytes Encode writes — as a slice. This is the content-addressed
// cache's identity for a workload (internal/cascache): two specs with
// the same canonical bytes are the same workload, whatever JSON field
// order or whitespace they were read from, because Encode∘Parse is a
// fixpoint. The spec must be valid (Parse and Generate only hand out
// valid specs).
func CanonicalBytes(s *workloads.Spec) ([]byte, error) {
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
