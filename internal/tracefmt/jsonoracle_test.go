package tracefmt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ensembleio/internal/ipmio"
	"ensembleio/internal/sim"
	"ensembleio/internal/telemetry"
)

// The encoding/json writers that WriteJSONL, WriteSpans and
// WriteChromeTrace replaced live on here as the oracle: the appenders
// must produce the same bytes, or fail with the same class of error.

func oracleWriteJSONL(w io.Writer, events []ipmio.Event, marks []ipmio.PhaseMark) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, m := range marks {
		if err := enc.Encode(jsonRecord{Type: "mark", Name: m.Name, T: float64(m.T)}); err != nil {
			return err
		}
	}
	for _, e := range events {
		rec := jsonRecord{
			Rank: e.Rank, Op: e.Op.String(), FD: e.FD, File: e.File,
			Off: e.Offset, N: e.Bytes, T: float64(e.Start), D: float64(e.Dur),
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// oracleWriteSpans validates every span, as WriteSpans does, and
// encodes the valid ones with encoding/json.
func oracleWriteSpans(w io.Writer, spans []telemetry.Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sp := range spans {
		if err := validateSpan(sp); err != nil {
			return err
		}
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func oracleWriteChromeTrace(w io.Writer, spans []telemetry.Span) error {
	tr := chromeTrace{DisplayTimeUnit: "ms"}
	meta := func(name string, pid, tid int, args map[string]string) {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: name, Ph: "M", PID: pid, TID: tid, Args: args,
		})
	}
	meta("process_name", chromePIDRun, 0, map[string]string{"name": "run"})
	meta("process_name", chromePIDRanks, 0, map[string]string{"name": "ranks"})
	for tid, cat := range runCats {
		meta("thread_name", chromePIDRun, tid, map[string]string{"name": cat})
	}
	for _, sp := range spans {
		if err := validateSpan(sp); err != nil {
			return err
		}
		ev := chromeEvent{
			Name: sp.Name, Cat: sp.Cat, Ph: "X",
			TS: sp.Start * 1e6, Dur: (sp.End - sp.Start) * 1e6,
		}
		if sp.Rank < 0 {
			ev.PID = chromePIDRun
			ev.TID = runTID(sp.Cat)
		} else {
			ev.PID = chromePIDRanks
			ev.TID = sp.Rank
		}
		tr.TraceEvents = append(tr.TraceEvents, ev)
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", " ")
	if err := enc.Encode(tr); err != nil {
		return err
	}
	return bw.Flush()
}

// errClass folds an error to what both sides must agree on: success,
// a non-finite float (each side has its own error type for it), or
// the exact text of any other error (span validation).
func errClass(err error) string {
	var uv *json.UnsupportedValueError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &uv), errors.Is(err, errUnsupportedValue):
		return "unsupported value"
	}
	return err.Error()
}

// checkWritersMatch runs each writer and its oracle on the same
// records and reports whether every writer succeeded.
func checkWritersMatch(t testing.TB, events []ipmio.Event, marks []ipmio.PhaseMark, spans []telemetry.Span) (ok [3]bool) {
	t.Helper()
	pairs := []struct {
		name      string
		got, want func(io.Writer) error
	}{
		{"WriteJSONL",
			func(w io.Writer) error { return WriteJSONL(w, events, marks) },
			func(w io.Writer) error { return oracleWriteJSONL(w, events, marks) }},
		{"WriteSpans",
			func(w io.Writer) error { return WriteSpans(w, SpanView{Scoped: spans}) },
			func(w io.Writer) error { return oracleWriteSpans(w, spans) }},
		{"WriteChromeTrace",
			func(w io.Writer) error { return WriteChromeTrace(w, SpanView{Scoped: spans}) },
			func(w io.Writer) error { return oracleWriteChromeTrace(w, spans) }},
	}
	for i, p := range pairs {
		var got, want bytes.Buffer
		gerr, werr := p.got(&got), p.want(&want)
		if gc, wc := errClass(gerr), errClass(werr); gc != wc {
			t.Fatalf("%s: error %q, encoding/json %q", p.name, gc, wc)
		}
		if gerr != nil {
			continue
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			g, w := got.Bytes(), want.Bytes()
			j := 0
			for j < len(g) && j < len(w) && g[j] == w[j] {
				j++
			}
			t.Fatalf("%s: output differs from encoding/json at byte %d:\n got %q\nwant %q",
				p.name, j, g[max(0, j-40):min(len(g), j+40)], w[max(0, j-40):min(len(w), j+40)])
		}
		ok[i] = true
	}
	return ok
}

// recordGen turns bytes into trace records. It leans on the values
// where encoding/json's rules have edges: HTML characters, control
// bytes, non-ASCII and invalid UTF-8 in strings; −0, the 1e-6 and
// 1e21 format switches, subnormals and non-finite values in floats;
// and out-of-range ops. Exhausted input reads as zeros.
type recordGen struct{ data []byte }

func (g *recordGen) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

func (g *recordGen) uint64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = g.byte()
	}
	return binary.LittleEndian.Uint64(b[:])
}

func (g *recordGen) int() int64 {
	switch g.byte() % 4 {
	case 0:
		return 0
	case 1:
		return int64(g.byte()) - 128
	case 2:
		return int64(g.uint64() >> 20)
	}
	return int64(g.uint64())
}

var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.999999e-7, 1e21, 1e20, 999999999999999900000,
	5e-324, 2.2250738585072014e-308, math.MaxFloat64, 1.5, 0.1, 123456.789, 1e300,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

func (g *recordGen) float() float64 {
	switch g.byte() % 4 {
	case 0:
		return edgeFloats[int(g.byte())%len(edgeFloats)]
	case 1:
		return math.Float64frombits(g.uint64())
	case 2:
		return float64(g.int()) / 1000
	}
	return float64(g.byte()) * math.Pow(10, float64(int(g.byte()%48)-24))
}

var edgeStrings = []string{
	"", "/scratch/a", "<b>&amp;</b>", "quote\"back\\slash", "tab\tnl\nnul\x00", "\x7f",
	"é日本", "\u2028\u2029", "bad\xffutf8", "\xc3", "ok",
}

func (g *recordGen) string() string {
	switch g.byte() % 3 {
	case 0:
		return edgeStrings[int(g.byte())%len(edgeStrings)]
	case 1:
		n := int(g.byte() % 12)
		b := make([]byte, n)
		for i := range b {
			b[i] = g.byte()
		}
		return string(b)
	}
	n := 1 + int(g.byte()%12)
	b := make([]byte, n)
	for i := range b {
		b[i] = 'a' + g.byte()%26
	}
	return string(b)
}

func (g *recordGen) records() ([]ipmio.Event, []ipmio.PhaseMark, []telemetry.Span) {
	var events []ipmio.Event
	var marks []ipmio.PhaseMark
	var spans []telemetry.Span
	for n := g.byte() % 4; n > 0; n-- {
		marks = append(marks, ipmio.PhaseMark{Name: g.string(), T: sim.Time(g.float())})
	}
	for n := g.byte() % 8; n > 0; n-- {
		events = append(events, ipmio.Event{
			Rank: int(g.int()), Op: ipmio.Op(g.byte() % 9), FD: int(g.int()), File: g.string(),
			Offset: g.int(), Bytes: g.int(), Start: sim.Time(g.float()), Dur: sim.Duration(g.float()),
		})
	}
	for n := g.byte() % 6; n > 0; n-- {
		sp := telemetry.Span{Cat: g.string(), Name: g.string(), Rank: int(g.int()), Start: g.float()}
		if g.byte()%4 == 0 {
			sp.End = g.float()
		} else {
			sp.End = sp.Start + math.Abs(g.float())
		}
		spans = append(spans, sp)
	}
	return events, marks, spans
}

// TestJSONWritersMatchEncodingJSON checks 2,000 seeded random record
// sets against the oracle, and that enough of them succeed for the
// comparison to mean something.
func TestJSONWritersMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var succeeded [3]int
	const n = 2000
	for i := 0; i < n; i++ {
		data := make([]byte, 512)
		rng.Read(data)
		g := recordGen{data: data}
		events, marks, spans := g.records()
		ok := checkWritersMatch(t, events, marks, spans)
		for w := range ok {
			if ok[w] {
				succeeded[w]++
			}
		}
	}
	t.Logf("successes per writer (JSONL, spans, Chrome): %v of %d", succeeded, n)
	for w, s := range succeeded {
		if s < n/10 {
			t.Errorf("writer %d succeeded on only %d of %d record sets", w, s, n)
		}
	}
}

// TestJSONWritersMatchOnRealRecords covers the shapes the simulator
// actually writes.
func TestJSONWritersMatchOnRealRecords(t *testing.T) {
	events, marks := fuzzSeedEvents()
	if ok := checkWritersMatch(t, events, marks, testSpans()); ok != [3]bool{true, true, true} {
		t.Fatalf("a writer failed on valid records: %v", ok)
	}
}

func TestWriteSpansRejectsInvalid(t *testing.T) {
	long := strings.Repeat("x", maxStringLen+1)
	cases := []struct {
		name string
		sp   telemetry.Span
	}{
		{"oversized cat", telemetry.Span{Cat: long, Name: "w", End: 1}},
		{"oversized name", telemetry.Span{Cat: "io", Name: long, End: 1}},
		{"empty name", telemetry.Span{Cat: "io", Start: 2, End: 1}},
		{"NaN start", telemetry.Span{Cat: "io", Name: "w", Start: math.NaN(), End: 1}},
		{"infinite end", telemetry.Span{Cat: "io", Name: "w", End: math.Inf(1)}},
		{"ends before it starts", telemetry.Span{Cat: "io", Name: "w", Start: 2, End: 1}},
	}
	for _, c := range cases {
		spans := append(testSpans(), c.sp)
		var buf bytes.Buffer
		err := WriteSpans(&buf, SpanView{Scoped: spans})
		if err == nil {
			t.Errorf("%s: span written, want error", c.name)
			continue
		}
		if want := validateSpan(c.sp); err.Error() != want.Error() {
			t.Errorf("%s: error %q, want validateSpan's %q", c.name, err, want)
		}
	}
}

func FuzzJSONWritersMatchEncodingJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{1}, 64))
	f.Add([]byte("\x03\x00\x05\x00<\x07\x00\x00\x00\x00\x00\xf8\x7f"))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4; i++ {
		data := make([]byte, 256)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := recordGen{data: data}
		events, marks, spans := g.records()
		checkWritersMatch(t, events, marks, spans)
	})
}
