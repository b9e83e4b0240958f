// Package tracefmt persists IPM-I/O traces. Two encodings are
// provided: a line-oriented JSON form for interoperability and
// eyeballing, and a compact binary form (varint fields plus a file-
// path interning table) for the full traces of large runs, where a
// 10,240-task trace in JSON would be needlessly bulky.
package tracefmt

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"ensembleio/internal/ipmio"
	"ensembleio/internal/sim"
)

// ---- JSONL ----

type jsonRecord struct {
	Type string  `json:"type,omitempty"` // "", "mark"
	Rank int     `json:"r"`
	Op   string  `json:"op,omitempty"`
	FD   int     `json:"fd,omitempty"`
	File string  `json:"f,omitempty"`
	Off  int64   `json:"o,omitempty"`
	N    int64   `json:"n,omitempty"`
	T    float64 `json:"t"`
	D    float64 `json:"d,omitempty"`
	Name string  `json:"name,omitempty"`
}

// WriteJSONL encodes events and phase marks as one JSON object per
// line, in the order given; files is the table the events' File ids
// index. Each line carries the jsonRecord fields in declaration order,
// empty optional fields left out.
func WriteJSONL(w io.Writer, events []ipmio.Event, marks []ipmio.PhaseMark, files *ipmio.Files) error {
	bw := bufio.NewWriter(w)
	var rec []byte
	var err error
	for _, m := range marks {
		rec = append(rec[:0], `{"type":"mark","r":0,"t":`...)
		if rec, err = appendFloat(rec, float64(m.T)); err != nil {
			return err
		}
		if m.Name != "" {
			rec = append(rec, `,"name":`...)
			rec = appendString(rec, m.Name)
		}
		rec = append(rec, "}\n"...)
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	for _, e := range events {
		rec = append(rec[:0], `{"r":`...)
		rec = strconv.AppendInt(rec, int64(e.Rank), 10)
		rec = append(rec, `,"op":`...)
		rec = appendString(rec, e.Op.String())
		if e.FD != 0 {
			rec = append(rec, `,"fd":`...)
			rec = strconv.AppendInt(rec, int64(e.FD), 10)
		}
		if f := files.Name(e.File); f != "" {
			rec = append(rec, `,"f":`...)
			rec = appendString(rec, f)
		}
		if e.Offset != 0 {
			rec = append(rec, `,"o":`...)
			rec = strconv.AppendInt(rec, e.Offset, 10)
		}
		if e.Bytes != 0 {
			rec = append(rec, `,"n":`...)
			rec = strconv.AppendInt(rec, e.Bytes, 10)
		}
		rec = append(rec, `,"t":`...)
		if rec, err = appendFloat(rec, float64(e.Start)); err != nil {
			return err
		}
		if e.Dur != 0 { // -0 is empty too, as for omitempty
			rec = append(rec, `,"d":`...)
			if rec, err = appendFloat(rec, float64(e.Dur)); err != nil {
				return err
			}
		}
		rec = append(rec, "}\n"...)
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL decodes a JSONL trace: its events, its phase marks, and
// the file table the events' File ids index.
func ReadJSONL(r io.Reader) ([]ipmio.Event, []ipmio.PhaseMark, *ipmio.Files, error) {
	var events []ipmio.Event
	var marks []ipmio.PhaseMark
	files := &ipmio.Files{}
	dec := json.NewDecoder(r)
	for {
		var rec jsonRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, nil, fmt.Errorf("tracefmt: bad JSONL record: %w", err)
		}
		if rec.Type == "mark" {
			marks = append(marks, ipmio.PhaseMark{Name: rec.Name, T: sim.Time(rec.T)})
			continue
		}
		op, ok := ipmio.ParseOp(rec.Op)
		if !ok {
			return nil, nil, nil, fmt.Errorf("tracefmt: unknown op %q", rec.Op)
		}
		rank, err := toInt32("rank", int64(rec.Rank))
		if err != nil {
			return nil, nil, nil, err
		}
		fd, err := toInt32("fd", int64(rec.FD))
		if err != nil {
			return nil, nil, nil, err
		}
		events = append(events, ipmio.Event{
			Rank: rank, Op: op, FD: fd, File: files.Intern(rec.File),
			Offset: rec.Off, Bytes: rec.N, Start: sim.Time(rec.T), Dur: sim.Duration(rec.D),
		})
	}
	return events, marks, files, nil
}

// toInt32 narrows a decoded rank or descriptor to the event's field,
// rejecting one that does not fit.
func toInt32(field string, v int64) (int32, error) {
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, fmt.Errorf("tracefmt: %s %d out of range", field, v)
	}
	return int32(v), nil
}

// ---- Binary ----

const binMagic = "IPMB1\n"

// maxStringLen bounds decoded path and mark names: well past any real
// file path, small enough that a corrupt length field cannot force a
// huge allocation.
const maxStringLen = 1 << 20

const (
	kindEvent = 0
	kindMark  = 1
	kindPath  = 2
)

// WriteBinary encodes a trace compactly; files is the table the
// events' File ids index. File paths are interned: the first reference
// to a path emits a definition record, later events carry only its id.
// Ids are numbered in order of first reference, whatever the table's
// numbering. A NaN or infinite event or mark time is an error, as it
// is for WriteJSONL.
func WriteBinary(w io.Writer, events []ipmio.Event, marks []ipmio.PhaseMark, files *ipmio.Files) error {
	// The whole trace is encoded into one buffer and written with a
	// single call: the initial size estimate (~40 bytes per event)
	// covers typical traces, so the buffer grows at most a handful of
	// times per run instead of flushing thousands of small writes.
	buf := make([]byte, 0, len(binMagic)+40*len(events)+48*len(marks)+64)
	buf = append(buf, binMagic...)
	var vb [binary.MaxVarintLen64]byte
	putUv := func(v uint64) {
		n := binary.PutUvarint(vb[:], v)
		buf = append(buf, vb[:n]...)
	}
	putIv := func(v int64) {
		n := binary.PutVarint(vb[:], v)
		buf = append(buf, vb[:n]...)
	}
	putF := func(f float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		buf = append(buf, b[:]...)
	}
	putS := func(s string) {
		putUv(uint64(len(s)))
		buf = append(buf, s...)
	}

	for i, m := range marks {
		if err := checkTime("mark", i, "time", float64(m.T)); err != nil {
			return err
		}
		putUv(kindMark)
		putS(m.Name)
		putF(float64(m.T))
	}

	// ids[f] is table id f's binary id plus one, 0 until first
	// referenced. The table holds each path once, so distinct table ids
	// are distinct paths; an id past its end names "", as id 0 does.
	ids := make([]uint64, files.Len())
	var next uint64
	for i, e := range events {
		if err := checkEventTimes(i, e); err != nil {
			return err
		}
		f := e.File
		if int(f) >= len(ids) {
			f = 0
		}
		if ids[f] == 0 {
			next++
			ids[f] = next
			putUv(kindPath)
			putUv(next - 1)
			putS(files.Name(f))
		}
		putUv(kindEvent)
		putUv(uint64(e.Rank))
		putUv(uint64(e.Op))
		putUv(uint64(e.FD))
		putUv(ids[f] - 1)
		putIv(e.Offset)
		putIv(e.Bytes)
		putF(float64(e.Start))
		putF(float64(e.Dur))
	}
	_, err := w.Write(buf)
	return err
}

// checkTime rejects a NaN or infinite time, which no simulated trace
// holds and the analysis cannot order.
func checkTime(what string, i int, field string, v float64) error {
	if !finite(v) {
		return fmt.Errorf("tracefmt: %s %d has non-finite %s %v", what, i, field, v)
	}
	return nil
}

func checkEventTimes(i int, e ipmio.Event) error {
	if err := checkTime("event", i, "start", float64(e.Start)); err != nil {
		return err
	}
	return checkTime("event", i, "duration", float64(e.Dur))
}

// ReadBinary decodes a binary trace: its events, its phase marks, and
// the file table the events' File ids index. It rejects NaN and
// infinite event and mark times, so every trace it returns is finite.
func ReadBinary(r io.Reader) ([]ipmio.Event, []ipmio.PhaseMark, *ipmio.Files, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, nil, nil, fmt.Errorf("tracefmt: missing magic: %w", err)
	}
	if string(magic) != binMagic {
		return nil, nil, nil, fmt.Errorf("tracefmt: bad magic %q", magic)
	}
	getF := func() (float64, error) {
		var b [8]byte
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return 0, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
	}
	getS := func() (string, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return "", err
		}
		// A corrupt or adversarial trace can claim an absurd length;
		// bound the allocation before trusting it.
		if n > maxStringLen {
			return "", fmt.Errorf("tracefmt: string length %d exceeds limit %d", n, maxStringLen)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}

	var events []ipmio.Event
	var marks []ipmio.PhaseMark
	files := &ipmio.Files{}
	ids := make(map[uint64]uint32) // binary path id -> table id
	for {
		kind, err := binary.ReadUvarint(br)
		if err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, nil, err
		}
		switch kind {
		case kindMark:
			name, err := getS()
			if err != nil {
				return nil, nil, nil, err
			}
			t, err := getF()
			if err != nil {
				return nil, nil, nil, err
			}
			if err := checkTime("mark", len(marks), "time", t); err != nil {
				return nil, nil, nil, err
			}
			marks = append(marks, ipmio.PhaseMark{Name: name, T: sim.Time(t)})
		case kindPath:
			id, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, nil, nil, err
			}
			s, err := getS()
			if err != nil {
				return nil, nil, nil, err
			}
			ids[id] = files.Intern(s)
		case kindEvent:
			var e ipmio.Event
			rank, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, nil, nil, err
			}
			op, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, nil, nil, err
			}
			fd, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, nil, nil, err
			}
			pid, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, nil, nil, err
			}
			off, err := binary.ReadVarint(br)
			if err != nil {
				return nil, nil, nil, err
			}
			n, err := binary.ReadVarint(br)
			if err != nil {
				return nil, nil, nil, err
			}
			start, err := getF()
			if err != nil {
				return nil, nil, nil, err
			}
			dur, err := getF()
			if err != nil {
				return nil, nil, nil, err
			}
			if e.Rank, err = toInt32("rank", int64(rank)); err != nil {
				return nil, nil, nil, err
			}
			if e.FD, err = toInt32("fd", int64(fd)); err != nil {
				return nil, nil, nil, err
			}
			e.Op = ipmio.Op(op)
			e.File = ids[pid]
			e.Offset = off
			e.Bytes = n
			e.Start = sim.Time(start)
			e.Dur = sim.Duration(dur)
			if err := checkEventTimes(len(events), e); err != nil {
				return nil, nil, nil, err
			}
			events = append(events, e)
		default:
			return nil, nil, nil, fmt.Errorf("tracefmt: unknown record kind %d", kind)
		}
	}
	return events, marks, files, nil
}

// Trace is one run's events and the file table their File ids index.
type Trace struct {
	Events []ipmio.Event
	Files  *ipmio.Files
}

// Merge combines per-rank (or per-run) traces into one event stream
// ordered by start time (stable for equal timestamps), and the one
// file table it indexes: each input's ids are remapped, so a path
// several inputs name has one id.
func Merge(traces ...Trace) ([]ipmio.Event, *ipmio.Files) {
	var out []ipmio.Event
	files := &ipmio.Files{}
	for _, tr := range traces {
		remap := make([]uint32, tr.Files.Len())
		for id := range remap {
			remap[id] = files.Intern(tr.Files.Name(uint32(id)))
		}
		for _, e := range tr.Events {
			if int(e.File) < len(remap) {
				e.File = remap[e.File]
			} else {
				e.File = 0
			}
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out, files
}
