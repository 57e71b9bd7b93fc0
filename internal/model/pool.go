package model

// Pooled solve scratch. The steady state of every driver — RunMCS calling a
// scheduler per slot, the parallel branch-and-bound building per-worker
// clones per solve, the serving daemon verifying per request — used to
// allocate a fresh System clone each time, only to drop it microseconds
// later. The clone pool here recycles them; the local weight kernels have
// their own pool (local.go). Both live on the adjCache, i.e. one pair per
// geometry, which guarantees a recycled object always matches the
// reader/tag counts of the System it is reattached to (clones share the
// adjCache pointer, so a clone's scratch returns to the same pool its
// siblings draw from).
//
// Ownership rules (DESIGN.md §15):
//
//   - ClonePooled hands the caller exclusive ownership of the clone; the
//     caller — and only the caller — returns it with Release, after which
//     the clone must not be touched.
//   - Release must not race with in-flight operations on the same clone
//     (the System single-goroutine contract already forbids that).

// ClonePooled is Clone backed by the geometry's clone pool: identical
// semantics and bit-identical downstream behavior, but the read/down/scratch
// buffers are recycled from previously Released clones, so per-slot and
// per-request clone churn stops allocating once the pool is warm. Call
// Release when done; a pooled clone that is never Released is simply
// garbage collected.
func (s *System) ClonePooled() *System {
	v := s.adj.clonePool.Get()
	if v == nil {
		c := s.Clone()
		c.pooled = true
		return c
	}
	c := v.(*System)
	c.readers, c.tags = s.readers, s.tags
	c.tagsOf, c.readersOf = s.tagsOf, s.readersOf
	c.adj = s.adj
	c.read = append(c.read[:0], s.read...)
	c.unreadCount = s.unreadCount
	if s.down != nil {
		c.down = append(c.down[:0], s.down...)
	} else {
		c.down = nil
	}
	c.downCount = s.downCount
	c.unreadOf = append(c.unreadOf[:0], s.unreadOf...)
	// coverCount/coverOwner/clean are all-zero and touched empty by the
	// release-time invariant (the weight paths re-zero their scratch on
	// every exit), so only the live state above needs copying.
	c.touched = c.touched[:0]
	c.pooled = true
	return c
}

// Release returns a clone obtained from ClonePooled to its geometry's pool.
// No-op for ordinary Clones, for the original System and for double
// releases.
func (s *System) Release() {
	if !s.pooled {
		return
	}
	s.pooled = false
	s.adj.clonePool.Put(s)
}
