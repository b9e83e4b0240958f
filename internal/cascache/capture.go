package cascache

import (
	"bytes"
	"fmt"
	"sync"

	"ensembleio/internal/tracefmt"
	"ensembleio/internal/workloads"
)

// The capture contract: a cached run is executed once with full
// collection (Mode = TraceMode|ProfileMode, Telemetry on) and its
// complete artifact set is stored. Collection mode and telemetry
// select which artifacts a CLI *writes*, never what their bytes are —
// so one full capture serves every request shape, including later
// invocations that asked for less.
const (
	ArtTraceBin  = "trace.bin"
	ArtTraceJSON = "trace.jsonl"
	ArtProfile   = "profile.json"
	ArtTelemetry = "telemetry.json"
	ArtSpans     = "spans.jsonl"
	ArtChrome    = "chrome.json"
)

// Artifact returns the named artifact's bytes from a served entry.
func (e Entry) Artifact(name string) ([]byte, bool) {
	for _, a := range e.Artifacts {
		if a.Name == name {
			return a.Data, true
		}
	}
	return nil, false
}

// scratchBufs holds CaptureRun's encode buffers; only their capacity
// is reused.
var scratchBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// CaptureRun encodes one fully-collected run into the canonical
// artifact set (sorted by name) plus its Meta summary. The run must
// have been executed under the capture contract — trace and profile
// collection with telemetry on — or the capture fails rather than
// publish a partial entry.
func CaptureRun(run *workloads.Run, seed int64) ([]Artifact, Meta, error) {
	if run.Telemetry == nil {
		return nil, Meta{}, fmt.Errorf("cascache: capture of %q: run lacks telemetry (capture contract requires Telemetry: true)", run.Name)
	}
	prof, err := tracefmt.ProfileOf(run.Collector)
	if err != nil {
		return nil, Meta{}, fmt.Errorf("cascache: capture of %q: %w", run.Name, err)
	}

	// Encode into a pooled scratch buffer and keep an exactly sized
	// copy: the buffer's doubling growth is paid once, not per artifact.
	buf := scratchBufs.Get().(*bytes.Buffer)
	defer scratchBufs.Put(buf)
	var arts []Artifact
	add := func(name string, write func(*bytes.Buffer) error) error {
		buf.Reset()
		if err := write(buf); err != nil {
			return fmt.Errorf("cascache: capture of %q: %s: %w", run.Name, name, err)
		}
		arts = append(arts, Artifact{Name: name, Data: bytes.Clone(buf.Bytes())})
		return nil
	}
	// Alphabetical by artifact name, matching DiffArtifacts' positional
	// comparison and keeping manifests deterministic.
	steps := []struct {
		name  string
		write func(*bytes.Buffer) error
	}{
		{ArtChrome, func(b *bytes.Buffer) error { return tracefmt.WriteChromeTrace(b, run.Spans) }},
		{ArtProfile, func(b *bytes.Buffer) error { return tracefmt.WriteProfile(b, prof) }},
		{ArtSpans, func(b *bytes.Buffer) error { return tracefmt.WriteSpans(b, run.Spans) }},
		{ArtTelemetry, func(b *bytes.Buffer) error { return tracefmt.WriteMetrics(b, run.Telemetry) }},
		{ArtTraceBin, func(b *bytes.Buffer) error { return tracefmt.WriteBinary(b, run.Collector.Events, run.Collector.Marks) }},
		{ArtTraceJSON, func(b *bytes.Buffer) error { return tracefmt.WriteJSONL(b, run.Collector.Events, run.Collector.Marks) }},
	}
	for _, st := range steps {
		if err := add(st.name, st.write); err != nil {
			return nil, Meta{}, err
		}
	}
	meta := Meta{
		Workload:   run.Name,
		Seed:       seed,
		Tasks:      run.Tasks,
		WallSec:    float64(run.Wall),
		TotalBytes: run.TotalBytes,
	}
	return arts, meta, nil
}
