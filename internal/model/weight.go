package model

// This file implements the weight function w(X) of Definition 3 and its
// relatives. Weight is the hottest operation in the repository — every
// scheduler calls it inside enumeration loops — so it uses epoch-free
// scratch buffers owned by the System: coverCount/coverOwner are only ever
// non-zero for tag indices recorded in touched, and are re-zeroed on exit.

// Weight returns w(X): the number of unread tags that are well-covered when
// exactly the readers in X are activated (Definition 1/3). X may be any set
// of reader indices, feasible or not — readers suffering RTc simply
// contribute nothing, exactly as in the physical model.
func (s *System) Weight(X []int) int {
	w, _ := s.weightAndCovered(X, nil, false)
	return w
}

// Covered appends to dst the indices of unread tags well-covered under X and
// returns the extended slice alongside being exactly the tags Weight counts.
func (s *System) Covered(X []int, dst []int32) []int32 {
	_, dst = s.weightAndCovered(X, dst, true)
	return dst
}

// ensureWeightScratch allocates the Weight scratch buffers on first use.
// Construction skips them: eval-driven solvers (GHC, the branch-and-bound
// searches) never call Weight on the base System, so eagerly allocating
// O(readers+tags) scratch would tax the serve construct path for nothing.
// The buffers are born zeroed, which is exactly the between-calls invariant
// the weight paths maintain.
func (s *System) ensureWeightScratch() {
	if s.coverCount == nil {
		s.coverCount = make([]int32, len(s.tags))
		s.coverOwner = make([]int32, len(s.tags))
		s.touched = make([]int32, 0, len(s.tags))
		s.clean = make([]bool, len(s.readers))
	}
}

func (s *System) weightAndCovered(X []int, dst []int32, collect bool) (int, []int32) {
	s.ensureWeightScratch()
	clean := s.cleanMask(X)

	s.touched = s.touched[:0]
	for _, v := range X {
		if v < 0 || v >= len(s.readers) || s.isDown(v) {
			continue
		}
		for _, t := range s.tagsOf.row(v) {
			if s.coverCount[t] == 0 {
				s.touched = append(s.touched, t)
			}
			s.coverCount[t]++
			s.coverOwner[t] = int32(v)
		}
	}

	w := 0
	for _, t := range s.touched {
		if s.coverCount[t] == 1 && !s.read[t] {
			owner := s.coverOwner[t]
			if clean[owner] {
				w++
				if collect {
					dst = append(dst, t)
				}
			}
		}
		s.coverCount[t] = 0
	}
	s.resetClean(X)
	return w, dst
}

// cleanMask fills the System-owned clean scratch over reader indices,
// marking the readers in X that do NOT suffer RTc: reader v is clean iff no
// other activated reader u has v inside u's interference disk. Down readers
// do not transmit, so they are neither clean nor a source of interference.
// The scratch is all-false between calls — callers must pair every
// cleanMask with a resetClean(X) once they are done with the mask — which
// is what keeps Weight allocation-free at steady state.
func (s *System) cleanMask(X []int) []bool {
	clean := s.clean
	for _, v := range X {
		if v >= 0 && v < len(s.readers) && !s.isDown(v) {
			clean[v] = true
		}
	}
	for _, u := range X {
		if u < 0 || u >= len(s.readers) || s.isDown(u) {
			continue
		}
		for _, v := range X {
			if u == v || v < 0 || v >= len(s.readers) || s.isDown(v) {
				continue
			}
			if s.readers[u].Interferes(s.readers[v]) {
				clean[v] = false
			}
		}
	}
	return clean
}

// resetClean re-zeroes the cleanMask scratch entries X touched.
func (s *System) resetClean(X []int) {
	for _, v := range X {
		if v >= 0 && v < len(s.readers) {
			s.clean[v] = false
		}
	}
}

// MarginalWeight returns w(X ∪ {v}) - w(X), the quantity Greedy
// Hill-Climbing maximizes at each step. It may be negative: activating v can
// destroy previously well-covered tags through RRc overlap or RTc.
//
// Greedy loops probing many candidates against the same X should cache
// base = Weight(X) once and call MarginalWeightFrom, or better, compile a
// local weight kernel (CompileLocal) and probe each candidate with one
// Push/Pop.
func (s *System) MarginalWeight(X []int, v int) int {
	return s.MarginalWeightFrom(s.Weight(X), X, v)
}

// MarginalWeightFrom returns w(X ∪ {v}) - base where base is the caller's
// cached Weight(X), saving the redundant full recompute of the base weight
// that MarginalWeight pays on every candidate probe.
func (s *System) MarginalWeightFrom(base int, X []int, v int) int {
	ext := append(append(make([]int, 0, len(X)+1), X...), v)
	return s.Weight(ext) - base
}

// CollisionStats describes what happens physically in one slot if the
// readers in X transmit simultaneously.
type CollisionStats struct {
	Activated   int // |X|
	RTcReaders  int // activated readers drowned by another reader's signal
	RRcTags     int // unread tags lost to interrogation overlap (count >= 2)
	WellCovered int // unread tags actually served, == Weight(X)
}

// Collisions classifies the collision outcome of activating X.
func (s *System) Collisions(X []int) CollisionStats {
	st := CollisionStats{Activated: len(X)}
	s.ensureWeightScratch()
	clean := s.cleanMask(X)
	for _, v := range X {
		if v >= 0 && v < len(s.readers) && !s.isDown(v) && !clean[v] {
			st.RTcReaders++
		}
	}

	s.touched = s.touched[:0]
	for _, v := range X {
		if v < 0 || v >= len(s.readers) || s.isDown(v) {
			continue
		}
		for _, t := range s.tagsOf.row(v) {
			if s.coverCount[t] == 0 {
				s.touched = append(s.touched, t)
			}
			s.coverCount[t]++
			s.coverOwner[t] = int32(v)
		}
	}
	for _, t := range s.touched {
		if !s.read[t] {
			if s.coverCount[t] >= 2 {
				st.RRcTags++
			} else if clean[s.coverOwner[t]] {
				st.WellCovered++
			}
		}
		s.coverCount[t] = 0
	}
	s.resetClean(X)
	return st
}

// SingletonWeight returns w({v}); Algorithm 2 seeds its growth from the
// reader maximizing this. A down reader weighs zero, which is how the
// weight-greedy schedulers naturally avoid planning failed hardware.
// O(1): the per-reader unread counter is maintained by MarkRead.
func (s *System) SingletonWeight(v int) int {
	if s.isDown(v) {
		return 0
	}
	return int(s.unreadOf[v])
}
