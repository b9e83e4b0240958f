package flownet

import (
	"math"

	"ensembleio/internal/sim"
)

// calEntry is one pending completion in the fabric's calendar. Entries
// are immutable once pushed; a stream whose rate changes simply pushes
// a fresh entry, and stale ones are dropped when they surface or when
// the fabric compacts the calendar.
// An entry is current iff the stream it points at is still the same
// transfer (ids are monotone and never reused) and still carries the
// entry's deadline bits.
type calEntry struct {
	dl sim.Time
	id uint64
	s  *Stream
}

// valid reports whether the entry still describes its stream's live
// deadline. Reading a recycled *Stream is safe — the object is only
// ever reused for another transfer, which changes its id.
func (e calEntry) valid() bool {
	return e.s.id == e.id && !e.s.finished &&
		math.Float64bits(float64(e.s.deadline)) == math.Float64bits(float64(e.dl))
}

// calendar is a slice-backed binary min-heap of completion deadlines
// ordered by (deadline, stream id). The id tie-break fixes the pop
// order of simultaneous completions, which is what keeps
// done-callback sequence numbers — and therefore every downstream RNG
// draw — deterministic.
type calendar struct {
	a []calEntry
}

func (c *calendar) less(i, j int) bool {
	if c.a[i].dl != c.a[j].dl {
		return c.a[i].dl < c.a[j].dl
	}
	return c.a[i].id < c.a[j].id
}

func (c *calendar) push(e calEntry) {
	c.a = append(c.a, e)
	i := len(c.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !c.less(i, parent) {
			break
		}
		c.a[i], c.a[parent] = c.a[parent], c.a[i]
		i = parent
	}
}

// peek returns the minimum entry without removing it. The caller is
// responsible for lazily popping invalid entries.
func (c *calendar) peek() (calEntry, bool) {
	if len(c.a) == 0 {
		return calEntry{}, false
	}
	return c.a[0], true
}

func (c *calendar) pop() calEntry {
	top := c.a[0]
	n := len(c.a) - 1
	c.a[0] = c.a[n]
	// Clear the vacated slot so the entry's *Stream is collectable
	// even while the backing array lives on.
	c.a[n] = calEntry{}
	c.a = c.a[:n]
	c.down(0)
	return top
}

// down sifts the entry at i toward the leaves until both children
// order after it.
func (c *calendar) down(i int) {
	n := len(c.a)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && c.less(l, smallest) {
			smallest = l
		}
		if r < n && c.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		c.a[i], c.a[smallest] = c.a[smallest], c.a[i]
		i = smallest
	}
}

// compact drops every stale entry and restores the heap with Floyd's
// bottom-up heapify in O(n). Valid entries are totally ordered by
// (deadline, id), so their pop order is unchanged.
func (c *calendar) compact() {
	kept := c.a[:0]
	for _, e := range c.a {
		if e.valid() {
			kept = append(kept, e)
		}
	}
	clear(c.a[len(kept):])
	c.a = kept
	for i := len(kept)/2 - 1; i >= 0; i-- {
		c.down(i)
	}
}

func (c *calendar) len() int { return len(c.a) }
