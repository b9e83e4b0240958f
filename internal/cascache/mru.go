package cascache

// mruCache is the in-process layer: a fixed-capacity move-to-front
// slice, scanned linearly — a map-free cache with deterministic
// eviction. Capacity is small (DefaultMRUCap), so a miss costs a
// handful of 32-byte key comparisons and a hit is allocation-free.
// The caller (Store) holds the lock.
type mruCache struct {
	entries []*mruEntry
	cap     int
}

type mruEntry struct {
	key       Key
	meta      Meta
	artifacts []Artifact
	bytes     uint64
}

// get returns the entry for k, moving it to the front, or nil.
func (m *mruCache) get(k Key) *mruEntry {
	for idx, e := range m.entries {
		if e.key == k {
			copy(m.entries[1:idx+1], m.entries[:idx])
			m.entries[0] = e
			return e
		}
	}
	return nil
}

// put inserts (or refreshes) k at the front, evicting the
// least-recently-used entry when full.
func (m *mruCache) put(k Key, meta Meta, artifacts []Artifact, bytes uint64) {
	if m.cap <= 0 {
		return
	}
	if e := m.get(k); e != nil {
		return // already cached, and get moved it to the front
	}
	e := &mruEntry{key: k, meta: meta, artifacts: artifacts, bytes: bytes}
	if len(m.entries) < m.cap {
		m.entries = append(m.entries, nil)
	}
	copy(m.entries[1:], m.entries)
	m.entries[0] = e
}
