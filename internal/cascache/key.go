// Package cascache is the content-addressed ensemble cache: run once,
// serve millions. PRs 1-9 made every simulated run a pure function of
// (workload spec, platform, faults, seed) with byte-identical
// artifacts at any worker count — so the run's full artifact set can
// be memoized under a canonical scenario key and replayed instead of
// recomputed.
//
// The package has three layers:
//
//   - the key (this file): SHA-256 over length-framed canonical
//     sections — the wldsl canonical encoding, the platform profile
//     JSON, the fault scenario's canonical bytes, and the seed —
//     versioned with SchemaEpoch so a format change invalidates every
//     old entry cleanly;
//   - the on-disk store (store.go): one packed file per key holding a
//     digest manifest and then the artifacts, staged into a temp file
//     and published by a no-replace hard link so readers never observe
//     a partial entry, with an append-only index file;
//   - the in-process MRU layer (mru.go): a small map-free
//     move-to-front slice, so a campaign's repeated scenarios are
//     served without touching disk.
//
// The contract is the strong one ROADMAP names: a cache hit is
// byte-identical to a fresh run. Every artifact is digest-checked on
// read, so a corrupted blob is detected and treated as a miss, never
// served (make cache-golden and the poisoned-store tests pin both
// halves).
//
// cascache is host-side plumbing — it lives strictly above the sim
// layer, next to runpool, and nothing in it can reach a run's bytes
// except by storing and returning them verbatim.
package cascache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"

	"ensembleio/internal/cluster"
	"ensembleio/internal/faults"
	"ensembleio/internal/wldsl"
	"ensembleio/internal/workloads"
)

// SchemaEpoch versions the key derivation rules and the artifact set a
// capture produces. Bump it whenever either changes — old entries then
// live under a different epoch directory and can never be served to a
// new binary. The on-disk layout is versioned by the entry file's
// magic and version instead, so a layout change moves no key: the
// first layout's one-directory-per-key entries are never opened and
// read as misses.
const SchemaEpoch = 1

// Key is a canonical scenario identity: the SHA-256 of the scenario's
// framed canonical sections. Two scenarios share a key if and only if
// they are the same pure-function input to the simulator.
type Key [sha256.Size]byte

// Hex returns the key's full lowercase hex form (the on-disk entry
// file's name, before its .entry suffix).
func (k Key) Hex() string { return hex.EncodeToString(k[:]) }

// Short returns the key's first 8 hex digits — enough to disambiguate
// artifact file names within one batch, short enough to read.
func (k Key) Short() string { return hex.EncodeToString(k[:4]) }

// Builder accumulates named, length-framed sections into a Key.
// Framing (uvarint name length, name, uvarint data length, data)
// makes the preimage unambiguous: no concatenation of sections can
// collide with a different section split.
type Builder struct {
	h       hash.Hash
	scratch [binary.MaxVarintLen64]byte
}

// NewBuilder returns a Builder seeded with the cache magic and the
// schema epoch, so keys from different epochs never collide.
func NewBuilder() *Builder {
	b := &Builder{h: sha256.New()}
	b.h.Write([]byte("ensembleio/cascache\x00"))
	b.writeUvarint(SchemaEpoch)
	return b
}

func (b *Builder) writeUvarint(v uint64) {
	n := binary.PutUvarint(b.scratch[:], v)
	b.h.Write(b.scratch[:n])
}

// Section feeds one named byte section into the key.
func (b *Builder) Section(name string, data []byte) *Builder {
	b.writeUvarint(uint64(len(name)))
	b.h.Write([]byte(name))
	b.writeUvarint(uint64(len(data)))
	b.h.Write(data)
	return b
}

// Int64 feeds a named integer section (decimal encoding, so the
// preimage is readable in principle).
func (b *Builder) Int64(name string, v int64) *Builder {
	return b.Section(name, []byte(fmt.Sprintf("%d", v)))
}

// Float64 feeds a named float section by exact bit pattern — one ulp
// of difference is a different key.
func (b *Builder) Float64(name string, v float64) *Builder {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
	return b.Section(name, buf[:])
}

// Key finalizes the builder.
func (b *Builder) Key() Key {
	var k Key
	b.h.Sum(k[:0])
	return k
}

// CanonicalPlatform returns the platform profile's canonical bytes
// for key derivation: the profile JSON in struct field order. Every
// profile field is physics, so none is excluded.
func CanonicalPlatform(prof cluster.Profile) ([]byte, error) {
	return json.Marshal(prof)
}

// ScenarioKey derives the canonical key of one solo workload run: the
// spec's canonical wldsl encoding, the platform, the fault scenario's
// canonical bytes, and the seed. Collection mode and telemetry are
// deliberately absent — they select which artifacts get *written*,
// never what their bytes are (the capture contract records the full
// set regardless).
func ScenarioKey(spec *workloads.Spec, prof cluster.Profile, sc *faults.Scenario, seed int64) (Key, error) {
	wl, err := wldsl.CanonicalBytes(spec)
	if err != nil {
		return Key{}, fmt.Errorf("cascache: workload section: %w", err)
	}
	plat, err := CanonicalPlatform(prof)
	if err != nil {
		return Key{}, fmt.Errorf("cascache: platform section: %w", err)
	}
	fb, err := faults.Canonical(sc)
	if err != nil {
		return Key{}, fmt.Errorf("cascache: faults section: %w", err)
	}
	return NewBuilder().
		Section("workload", wl).
		Section("platform", plat).
		Section("faults", fb).
		Int64("seed", seed).
		Key(), nil
}
