package cascache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Artifact is one named byte blob of a cached run's artifact set
// (trace.bin, trace.jsonl, profile.json, telemetry.json, spans.jsonl,
// chrome.json). Served artifacts are shared, read-only slices: callers
// write them out or compare them, never mutate them.
type Artifact struct {
	Name string
	Data []byte
}

// Meta is the human-facing summary stored alongside an entry, enough
// for a CLI to print its usual per-run line without decoding any
// artifact. It never participates in the key.
type Meta struct {
	Workload   string  `json:"workload,omitempty"`
	Seed       int64   `json:"seed"`
	Tasks      int     `json:"tasks,omitempty"`
	WallSec    float64 `json:"wall_sec,omitempty"`
	TotalBytes int64   `json:"total_bytes,omitempty"`
}

// Entry is one served cache entry.
type Entry struct {
	Key       Key
	Meta      Meta
	Artifacts []Artifact
}

// Stats is a snapshot of the store's counters. Hits counts every
// served entry (MRUHits of them straight from memory); BytesServed is
// the artifact bytes of served entries, BytesWritten the artifact
// bytes of published ones. Corrupt counts entries that failed the
// digest re-check on read and were evicted instead of served.
type Stats struct {
	Hits, MRUHits, Misses, Puts, Corrupt uint64
	BytesServed, BytesWritten            uint64
}

// Store is an on-disk content-addressed artifact store, one packed
// file per key, plus an in-process MRU layer. Safe for concurrent use:
// campaign workers probe and stage entries on the runpool. Which
// writer wins a racy publish is scheduler-dependent, but harmless by
// construction — entries are content-addressed, so every candidate
// body for a key is byte-identical.
type Store struct {
	root string // <dir>/v<SchemaEpoch>

	mu  sync.Mutex
	mru mruCache

	hits, mruHits, misses, puts, corrupt atomic.Uint64
	bytesServed, bytesWritten            atomic.Uint64
}

// DefaultMRUCap bounds the in-process layer. Campaign grids repeat a
// handful of hot scenarios; a small cache captures those while keeping
// a miss's probe cost at a few 32-byte comparisons.
const DefaultMRUCap = 16

// Open prepares the store rooted at dir, creating the epoch directory
// if needed. Entries of other epochs are invisible by construction.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("cascache: empty cache directory")
	}
	root := filepath.Join(dir, fmt.Sprintf("v%d", SchemaEpoch))
	if err := os.MkdirAll(filepath.Join(root, "tmp"), 0o755); err != nil {
		return nil, fmt.Errorf("cascache: %w", err)
	}
	return &Store{root: root, mru: mruCache{cap: DefaultMRUCap}}, nil
}

// Dir returns the store's epoch root directory.
func (s *Store) Dir() string { return s.root }

// SetMRUCap resizes the in-process layer (0 disables it). Not for the
// hot path; call it right after Open.
func (s *Store) SetMRUCap(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mru.cap = n
	if n < len(s.mru.entries) {
		s.mru.entries = s.mru.entries[:n]
	}
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:         s.hits.Load(),
		MRUHits:      s.mruHits.Load(),
		Misses:       s.misses.Load(),
		Puts:         s.puts.Load(),
		Corrupt:      s.corrupt.Load(),
		BytesServed:  s.bytesServed.Load(),
		BytesWritten: s.bytesWritten.Load(),
	}
}

func (s *Store) entryPath(k Key) string {
	h := k.Hex()
	return filepath.Join(s.root, h[:2], h+entrySuffix)
}

// manifest is the per-entry integrity record: every artifact's size
// and SHA-256, in the order the artifacts follow it in the entry file,
// so a published entry always carries its own digests.
type manifest struct {
	Epoch     int           `json:"epoch"`
	Key       string        `json:"key"`
	Meta      Meta          `json:"meta"`
	Artifacts []manifestArt `json:"artifacts"`
}

type manifestArt struct {
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// An entry is one file, <hex[:2]>/<hex>.entry: a fixed header (the
// magic, the layout version and the manifest's length, both uint32
// little-endian), the manifest JSON, then every artifact's bytes back
// to back in manifest order. One file per entry keeps a publish to
// one create and a read to one ReadFile; the magic versions the layout
// without moving SchemaEpoch, and an older layout's entry directories
// are never opened, so they read as misses.
const (
	entryMagic   = "EIOCACHE"
	entryVersion = 1
	headerLen    = len(entryMagic) + 8
	entrySuffix  = ".entry"
)

// manifestLen checks an entry file's fixed header against the file's
// size and returns the length of the manifest that follows it.
func manifestLen(hdr []byte, size int64) (int, error) {
	if len(hdr) < headerLen || string(hdr[:len(entryMagic)]) != entryMagic {
		return 0, errors.New("bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[len(entryMagic):]); v != entryVersion {
		return 0, fmt.Errorf("layout version %d, want %d", v, entryVersion)
	}
	n := int64(binary.LittleEndian.Uint32(hdr[len(entryMagic)+4:]))
	if n > size-int64(headerLen) {
		return 0, fmt.Errorf("manifest of %d bytes overruns the file", n)
	}
	return int(n), nil
}

// validArtifactName keeps artifact names to a bounded, printable
// charset with no separators and no leading dot, so a name is safe
// wherever a CLI writes it out as a file name.
func validArtifactName(name string) bool {
	if name == "" || name[0] == '.' || len(name) > 128 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// Get probes the MRU layer, then the disk. A disk hit re-checks every
// artifact's size and SHA-256 against the entry's manifest; any
// mismatch means the file was corrupted after publication, so the
// entry is evicted from disk and reported as a miss — a poisoned store
// can cost recomputation, never wrong bytes.
//
// Gets of distinct keys may run concurrently (campaign.Run probes on
// the pool). They fill the MRU layer in completion order, so which
// entries it keeps can vary between runs; the hit/miss outcome and the
// served bytes never depend on that order.
func (s *Store) Get(k Key) (Entry, bool) {
	s.mu.Lock()
	if e := s.mru.get(k); e != nil {
		s.mu.Unlock()
		s.hits.Add(1)
		s.mruHits.Add(1)
		s.bytesServed.Add(e.bytes)
		return Entry{Key: k, Meta: e.meta, Artifacts: e.artifacts}, true
	}
	s.mu.Unlock()

	ent, n, err := s.readEntry(k)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			// Present but unreadable or failing its digests: evict so a
			// later Put can heal the slot.
			s.corrupt.Add(1)
			os.Remove(s.entryPath(k))
		}
		s.misses.Add(1)
		return Entry{}, false
	}
	s.mu.Lock()
	s.mru.put(k, ent.Meta, ent.Artifacts, n)
	s.mu.Unlock()
	s.hits.Add(1)
	s.bytesServed.Add(n)
	return ent, true
}

// readEntry loads and verifies one on-disk entry with a single read.
// The served artifacts are capacity-capped sub-slices of that one
// buffer. fs.ErrNotExist means a clean miss; any other error means a
// damaged entry.
func (s *Store) readEntry(k Key) (Entry, uint64, error) {
	buf, err := os.ReadFile(s.entryPath(k))
	if err != nil {
		return Entry{}, 0, err
	}
	mlen, err := manifestLen(buf, int64(len(buf)))
	if err != nil {
		return Entry{}, 0, fmt.Errorf("cascache: %s: %w", k.Short(), err)
	}
	var m manifest
	if err := json.Unmarshal(buf[headerLen:headerLen+mlen], &m); err != nil {
		return Entry{}, 0, fmt.Errorf("cascache: %s: manifest: %w", k.Short(), err)
	}
	if m.Epoch != SchemaEpoch || m.Key != k.Hex() {
		return Entry{}, 0, fmt.Errorf("cascache: %s: manifest identity mismatch", k.Short())
	}
	ent := Entry{Key: k, Meta: m.Meta, Artifacts: make([]Artifact, 0, len(m.Artifacts))}
	rest := buf[headerLen+mlen:]
	for _, a := range m.Artifacts {
		if !validArtifactName(a.Name) {
			return Entry{}, 0, fmt.Errorf("cascache: %s: illegal artifact name %q", k.Short(), a.Name)
		}
		if a.Bytes < 0 || a.Bytes > int64(len(rest)) {
			return Entry{}, 0, fmt.Errorf("cascache: %s: %s: manifest says %d bytes, %d left in the file", k.Short(), a.Name, a.Bytes, len(rest))
		}
		data := rest[:a.Bytes:a.Bytes]
		rest = rest[a.Bytes:]
		sum := sha256.Sum256(data)
		if hex.EncodeToString(sum[:]) != a.SHA256 {
			return Entry{}, 0, fmt.Errorf("cascache: %s: %s: digest mismatch", k.Short(), a.Name)
		}
		ent.Artifacts = append(ent.Artifacts, Artifact{Name: a.Name, Data: data})
	}
	if len(rest) != 0 {
		return Entry{}, 0, fmt.Errorf("cascache: %s: %d bytes past the last artifact", k.Short(), len(rest))
	}
	return ent, uint64(len(buf) - headerLen - mlen), nil
}

// Staged is an entry written, manifest and all, into the store's tmp
// directory but not yet visible to Get. Store.Commit publishes it;
// Discard drops it.
type Staged struct {
	key   Key
	meta  Meta
	arts  []Artifact
	total uint64
	tmp   string // "" once committed or discarded
}

// Discard removes a staged entry that will not be committed. It is a
// no-op on an entry already committed or discarded.
func (st *Staged) Discard() {
	if st.tmp != "" {
		os.Remove(st.tmp)
		st.tmp = ""
	}
}

// Put publishes an artifact set under its key: Stage, then Commit.
// If another writer published the key first the candidate is
// discarded; content addressing makes the two bodies byte-identical,
// so first-wins is not a race on content.
func (s *Store) Put(k Key, meta Meta, artifacts []Artifact) error {
	st, err := s.Stage(k, meta, artifacts)
	if err != nil {
		return err
	}
	return s.Commit(st)
}

// Stage does the parallel half of a publish: it digests every
// artifact, builds the manifest and writes the complete entry file
// into <root>/tmp, fsync-free, straight from the header and the
// artifacts' own slices (net.Buffers: nothing is concatenated). Stages
// of distinct keys may run concurrently. The entry stays invisible to
// Get until Commit.
func (s *Store) Stage(k Key, meta Meta, artifacts []Artifact) (*Staged, error) {
	if len(artifacts) == 0 {
		return nil, errors.New("cascache: refusing to publish an empty artifact set")
	}
	m := manifest{Epoch: SchemaEpoch, Key: k.Hex(), Meta: meta, Artifacts: make([]manifestArt, 0, len(artifacts))}
	var total uint64
	for _, a := range artifacts {
		if !validArtifactName(a.Name) {
			return nil, fmt.Errorf("cascache: illegal artifact name %q", a.Name)
		}
		sum := sha256.Sum256(a.Data)
		m.Artifacts = append(m.Artifacts, manifestArt{
			Name: a.Name, Bytes: int64(len(a.Data)), SHA256: hex.EncodeToString(sum[:]),
		})
		total += uint64(len(a.Data))
	}
	mb, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("cascache: manifest: %w", err)
	}
	head := make([]byte, headerLen, headerLen+len(mb))
	copy(head, entryMagic)
	binary.LittleEndian.PutUint32(head[len(entryMagic):], entryVersion)
	binary.LittleEndian.PutUint32(head[len(entryMagic)+4:], uint32(len(mb)))
	bufs := make(net.Buffers, 0, 1+len(artifacts))
	bufs = append(bufs, append(head, mb...))
	for _, a := range artifacts {
		bufs = append(bufs, a.Data)
	}

	f, err := os.CreateTemp(filepath.Join(s.root, "tmp"), k.Short()+"-*"+entrySuffix)
	if err != nil {
		return nil, fmt.Errorf("cascache: staging %s: %w", k.Short(), err)
	}
	_, werr := bufs.WriteTo(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(f.Name())
		return nil, fmt.Errorf("cascache: staging %s: %w", k.Short(), werr)
	}
	return &Staged{key: k, meta: meta, arts: artifacts, total: total, tmp: f.Name()}, nil
}

// Commit does the serial half of a publish: it hard-links the staged
// file into its shard, which never replaces an existing entry, so
// readers observe either nothing or the complete entry. Then it
// appends the index line and fills the MRU layer. If the key was
// already published, that is a lost race: Commit succeeds and appends
// nothing. The staged temp file is removed whatever the outcome.
func (s *Store) Commit(st *Staged) error {
	if st.tmp == "" {
		return fmt.Errorf("cascache: %s: staged entry already committed or discarded", st.key.Short())
	}
	defer st.Discard()
	dst := s.entryPath(st.key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("cascache: publishing %s: %w", st.key.Short(), err)
	}
	if err := os.Link(st.tmp, dst); err != nil {
		if errors.Is(err, fs.ErrExist) {
			// Lost the publish race; the winner's bytes are ours.
			return nil
		}
		return fmt.Errorf("cascache: publishing %s: %w", st.key.Short(), err)
	}
	s.puts.Add(1)
	s.bytesWritten.Add(st.total)
	if err := s.appendIndex(st.key, st.meta, st.total, len(st.arts)); err != nil {
		return err
	}
	s.mu.Lock()
	s.mru.put(st.key, st.meta, st.arts, st.total)
	s.mu.Unlock()
	return nil
}

// IndexEntry is one line of the store's append-only index file — an
// advisory catalog for browsing and campaign planning. Reads never
// trust it: Get always verifies the entry's own manifest.
type IndexEntry struct {
	Key       string `json:"key"`
	Workload  string `json:"workload,omitempty"`
	Seed      int64  `json:"seed"`
	Bytes     uint64 `json:"bytes"`
	Artifacts int    `json:"artifacts"`
}

const indexName = "index.jsonl"

// appendIndex appends one catalog line. A single O_APPEND write keeps
// concurrent publishers from interleaving partial lines.
func (s *Store) appendIndex(k Key, meta Meta, total uint64, n int) error {
	line, err := json.Marshal(IndexEntry{
		Key: k.Hex(), Workload: meta.Workload, Seed: meta.Seed, Bytes: total, Artifacts: n,
	})
	if err != nil {
		return fmt.Errorf("cascache: index: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(s.root, indexName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("cascache: index: %w", err)
	}
	_, werr := f.Write(append(line, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("cascache: index: %w", werr)
	}
	return nil
}

// Index reads the catalog. Malformed lines (a crash mid-append) are
// skipped, not fatal — the index is an accelerator, the manifests are
// the truth.
func (s *Store) Index() ([]IndexEntry, error) {
	data, err := os.ReadFile(filepath.Join(s.root, indexName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("cascache: index: %w", err)
	}
	var out []IndexEntry
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var e IndexEntry
		if err := json.Unmarshal(line, &e); err != nil {
			continue
		}
		out = append(out, e)
	}
	return out, nil
}

// RebuildIndex rewrites the catalog from the entry files' manifests,
// in lexical key order (deterministic), and returns the entry count.
// It reads only each file's header and manifest, never the artifacts.
// Use it after manual pruning or a crash left the advisory index
// behind the truth.
func (s *Store) RebuildIndex() (int, error) {
	var entries []IndexEntry
	shards, err := os.ReadDir(s.root)
	if err != nil {
		return 0, fmt.Errorf("cascache: %w", err)
	}
	for _, shard := range shards {
		if !shard.IsDir() || len(shard.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.root, shard.Name()))
		if err != nil {
			return 0, fmt.Errorf("cascache: %w", err)
		}
		for _, f := range files {
			m, ok := readManifest(filepath.Join(s.root, shard.Name(), f.Name()))
			if !ok || m.Epoch != SchemaEpoch || m.Key+entrySuffix != f.Name() {
				continue
			}
			var total uint64
			for _, a := range m.Artifacts {
				total += uint64(a.Bytes)
			}
			entries = append(entries, IndexEntry{
				Key: m.Key, Workload: m.Meta.Workload, Seed: m.Meta.Seed,
				Bytes: total, Artifacts: len(m.Artifacts),
			})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	var buf bytes.Buffer
	for _, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			return 0, fmt.Errorf("cascache: index: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	tmp := filepath.Join(s.root, indexName+".tmp")
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return 0, fmt.Errorf("cascache: index: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.root, indexName)); err != nil {
		return 0, fmt.Errorf("cascache: index: %w", err)
	}
	return len(entries), nil
}

// readManifest decodes an entry file's manifest, reading the header
// and the manifest only. It reports false for anything that is not a
// regular file in the current layout.
func readManifest(path string) (manifest, bool) {
	f, err := os.Open(path)
	if err != nil {
		return manifest{}, false
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		return manifest{}, false
	}
	var hdr [headerLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return manifest{}, false
	}
	mlen, err := manifestLen(hdr[:], fi.Size())
	if err != nil {
		return manifest{}, false
	}
	mb := make([]byte, mlen)
	if _, err := io.ReadFull(f, mb); err != nil {
		return manifest{}, false
	}
	var m manifest
	if json.Unmarshal(mb, &m) != nil {
		return manifest{}, false
	}
	return m, true
}

// DiffArtifacts compares two artifact sets byte for byte and reports
// the first divergence — the paranoid -cache-verify check that a
// served entry equals a fresh recomputation.
func DiffArtifacts(served, fresh []Artifact) error {
	if len(served) != len(fresh) {
		return fmt.Errorf("cascache: artifact sets differ: %d served vs %d fresh", len(served), len(fresh))
	}
	for i := range served {
		a, b := served[i], fresh[i]
		if a.Name != b.Name {
			return fmt.Errorf("cascache: artifact %d name %q served vs %q fresh", i, a.Name, b.Name)
		}
		if !bytes.Equal(a.Data, b.Data) {
			j := 0
			for j < len(a.Data) && j < len(b.Data) && a.Data[j] == b.Data[j] {
				j++
			}
			return fmt.Errorf("cascache: %s: served %d bytes vs fresh %d, first divergence at byte %d",
				a.Name, len(a.Data), len(b.Data), j)
		}
	}
	return nil
}
