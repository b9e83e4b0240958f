package flownet

import "ensembleio/internal/sim"

// calendar is an indexed binary min-heap of the live streams with a
// finite deadline, ordered by (deadline, stream id). Each stream
// records its slot in calIdx (-1 when absent), so a rate change
// re-sifts the stream in place instead of leaving a stale entry
// behind: the heap holds exactly one entry per scheduled stream. The
// id tie-break makes the order total, which fixes the pop order of
// simultaneous completions — and with it done-callback sequence
// numbers and every downstream RNG draw.
type calendar struct {
	a []*Stream
}

// before reports whether a orders ahead of b.
func before(a, b *Stream) bool {
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	return a.id < b.id
}

// fix inserts s, or restores heap order around it after its deadline
// changed.
func (c *calendar) fix(s *Stream) {
	if s.calIdx < 0 {
		s.calIdx = len(c.a)
		c.a = append(c.a, s)
		c.up(s, s.calIdx)
		return
	}
	if !c.up(s, s.calIdx) {
		c.down(s, s.calIdx)
	}
}

// remove takes s out of the calendar; absent streams are left alone.
func (c *calendar) remove(s *Stream) {
	i := s.calIdx
	if i < 0 {
		return
	}
	n := len(c.a) - 1
	last := c.a[n]
	// Clear the vacated slot so the stream is collectable even while
	// the backing array lives on.
	c.a[n] = nil
	c.a = c.a[:n]
	s.calIdx = -1
	if i != n {
		c.a[i], last.calIdx = last, i
		if !c.up(last, i) {
			c.down(last, i)
		}
	}
}

// pop removes and returns the earliest stream; the calendar must not
// be empty.
func (c *calendar) pop() *Stream {
	s := c.a[0]
	c.remove(s)
	return s
}

// minDeadline returns the earliest scheduled deadline, or Infinity.
func (c *calendar) minDeadline() sim.Time {
	if len(c.a) == 0 {
		return sim.Infinity
	}
	return c.a[0].deadline
}

// up sifts s, which sits at slot i, toward the root and reports
// whether it moved. Each entry s passes moves down into the hole s
// leaves, and s is stored once at its final slot: every store is a
// pointer write, which costs a write barrier while the collector runs,
// so the sifts never swap pairs.
func (c *calendar) up(s *Stream, i int) bool {
	start := i
	for i > 0 {
		parent := (i - 1) / 2
		p := c.a[parent]
		if !before(s, p) {
			break
		}
		c.a[i], p.calIdx = p, i
		i = parent
	}
	if i == start {
		return false
	}
	c.a[i], s.calIdx = s, i
	return true
}

// down sifts s, which sits at slot i, toward the leaves, moving the
// earlier child up into the hole until both children order after it.
func (c *calendar) down(s *Stream, i int) {
	start, n := i, len(c.a)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && before(c.a[r], c.a[child]) {
			child = r
		}
		ch := c.a[child]
		if !before(ch, s) {
			break
		}
		c.a[i], ch.calIdx = ch, i
		i = child
	}
	if i != start {
		c.a[i], s.calIdx = s, i
	}
}
