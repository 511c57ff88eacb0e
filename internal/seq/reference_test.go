package seq

// The per-string set the one-text SetS replaced, kept verbatim with its
// names prefixed so as not to clash with the production code: every EST and
// its materialized reverse complement as a slice of its own, one byte per
// base. FuzzLocate and TestLocateMatchesReference require the text, its
// starts and its directory to give every string, left character and
// position this set gives, through any sequence of Append and Truncate.

import "fmt"

// refSetS holds the 2n strings S = {e_1, rc(e_1), e_2, rc(e_2), ...} backing the
// generalized suffix tree. Reverse complements are materialized once so that
// suffix scanning needs no per-access transformation.
//
// The set is appendable: Append adds a new batch of ESTs at the next
// generation without disturbing existing ids, so suffix buckets, trees and
// cluster labels built over earlier generations stay valid.
type refSetS struct {
	ests []Sequence // the n input ESTs
	strs []Sequence // the 2n strings, indexed by StringID
	totN int64      // Σ len(e_i): the paper's N
	// genStart[g] is the index of the first EST of generation g; the batch
	// spans [genStart[g], genStart[g+1]) with genStart[len] == n implied.
	genStart []int32
}

// newRefSetS builds S from the input ESTs (generation 0). Empty ESTs are
// rejected: they carry no suffixes and would produce degenerate ids
// downstream.
func newRefSetS(ests []Sequence) (*refSetS, error) {
	if len(ests) == 0 {
		return nil, ErrEmptySet
	}
	s := &refSetS{genStart: []int32{0}}
	if err := s.append(ests); err != nil {
		return nil, err
	}
	return s, nil
}

// append adds a batch under the already-registered newest generation.
func (s *refSetS) append(ests []Sequence) error {
	base := len(s.ests)
	for i, e := range ests {
		if len(e) == 0 {
			return fmt.Errorf("seq: EST %d is empty", base+i)
		}
		s.ests = append(s.ests, e)
		s.strs = append(s.strs, e, e.ReverseComplement())
		s.totN += int64(len(e))
	}
	return nil
}

// Append adds a batch of ESTs as the next generation and returns that
// generation's tag. Existing StringIDs, ESTIDs and the reverse-complement
// pairing invariant (s_{2i+1} = rc(s_{2i})) are preserved; the new strings
// occupy the id range [GenStartString(g), NumStrings()). An empty batch or an
// empty EST is rejected without mutating the set.
func (s *refSetS) Append(ests []Sequence) (Gen, error) {
	if len(ests) == 0 {
		return 0, ErrEmptySet
	}
	for i, e := range ests {
		if len(e) == 0 {
			return 0, fmt.Errorf("seq: EST %d is empty", len(s.ests)+i)
		}
	}
	g := Gen(len(s.genStart))
	s.genStart = append(s.genStart, int32(len(s.ests)))
	if err := s.append(ests); err != nil {
		return 0, err
	}
	return g, nil
}

// Truncate rolls the set back to its first n ESTs, discarding later ESTs,
// their strings, and any generation that starts at or beyond n. It is the
// inverse of Append for a failed batch: a session whose clustering run
// errors after appending can restore the set to exactly its pre-Append
// state, so a retried Append is indistinguishable from a first attempt.
// n must lie in [1, NumESTs()].
func (s *refSetS) Truncate(n int) error {
	if n < 1 || n > len(s.ests) {
		return fmt.Errorf("seq: Truncate to %d ESTs outside [1, %d]", n, len(s.ests))
	}
	for _, e := range s.ests[n:] {
		s.totN -= int64(len(e))
	}
	// Zero dropped slots so the backing arrays don't pin dead sequences.
	for i := n; i < len(s.ests); i++ {
		s.ests[i] = nil
	}
	for i := 2 * n; i < len(s.strs); i++ {
		s.strs[i] = nil
	}
	s.ests = s.ests[:n]
	s.strs = s.strs[:2*n]
	for len(s.genStart) > 1 && int(s.genStart[len(s.genStart)-1]) >= n {
		s.genStart = s.genStart[:len(s.genStart)-1]
	}
	return nil
}

// NumGenerations returns how many batches the set holds (>= 1).
func (s *refSetS) NumGenerations() int { return len(s.genStart) }

// GenStart returns the index of the first EST of generation g; g ==
// NumGenerations() returns n, so [GenStart(g), GenStart(g+1)) is always the
// batch's EST range.
func (s *refSetS) GenStart(g Gen) ESTID {
	if int(g) >= len(s.genStart) {
		return ESTID(len(s.ests))
	}
	return ESTID(s.genStart[g])
}

// GenStartString returns the first StringID of generation g. Strings with id
// >= GenStartString(g) are exactly those of generation >= g — the freshness
// test the incremental pair generator relies on.
func (s *refSetS) GenStartString(g Gen) StringID {
	return Forward(s.GenStart(g))
}

// NumESTs returns n.
func (s *refSetS) NumESTs() int { return len(s.ests) }

// NumStrings returns 2n.
func (s *refSetS) NumStrings() int { return len(s.strs) }

// TotalChars returns N, the total number of characters across the n ESTs
// (reverse complements not double-counted, matching the paper's N).
func (s *refSetS) TotalChars() int64 { return s.totN }

// EST returns the i-th input EST.
func (s *refSetS) EST(e ESTID) Sequence { return s.ests[e] }

// Str returns the string with the given StringID.
func (s *refSetS) Str(id StringID) Sequence { return s.strs[id] }

// Suffix returns the suffix of string id starting at pos.
func (s *refSetS) Suffix(id StringID, pos int32) Sequence {
	return s.strs[id][pos:]
}

// LeftChar returns the left-extension character of the suffix of string id
// starting at pos: the character immediately left of the suffix, or λ when
// the suffix is the whole string (pos == 0).
func (s *refSetS) LeftChar(id StringID, pos int32) Code {
	if pos == 0 {
		return Lambda
	}
	return s.strs[id][pos-1]
}
