// Package seq provides the DNA sequence primitives used throughout the
// clustering pipeline: the 4-letter nucleotide alphabet, reverse
// complementation, sequence validation, and the SetS abstraction from the
// paper — the set S = {s_1, ..., s_2n} where s_{2i-1} = e_i is the i-th EST
// and s_{2i} = rc(e_i) is its reverse complement.
package seq

import (
	"errors"
	"fmt"
	"strings"
)

// AlphabetSize is |Σ| for DNA.
const AlphabetSize = 4

// Code is the 2-bit encoding of a nucleotide: A=0, C=1, G=2, T=3.
// The ordering is lexicographic, which the pair-generation algorithm relies
// on when enumerating character pairs (c_i < c_j).
type Code uint8

// Nucleotide codes.
const (
	A Code = 0
	C Code = 1
	G Code = 2
	T Code = 3
)

// Lambda is the sentinel "left character" of a suffix that is a prefix of its
// string (the paper's λ). It is not a valid sequence character; it exists so
// that lset indices can range over Σ ∪ {λ}.
const Lambda Code = 4

// NumLeftChars is |Σ ∪ {λ}|, the number of lsets per node.
const NumLeftChars = 5

var codeToByte = [AlphabetSize]byte{'A', 'C', 'G', 'T'}

// complement[c] is the Watson-Crick complement of code c (A↔T, C↔G).
var complement = [AlphabetSize]Code{T, G, C, A}

// byteToCode maps an ASCII byte to its code, or 0xFF if invalid.
var byteToCode [256]uint8

func init() {
	for i := range byteToCode {
		byteToCode[i] = 0xFF
	}
	byteToCode['A'], byteToCode['a'] = 0, 0
	byteToCode['C'], byteToCode['c'] = 1, 1
	byteToCode['G'], byteToCode['g'] = 2, 2
	byteToCode['T'], byteToCode['t'] = 3, 3
}

// CodeOf returns the Code for an ASCII nucleotide byte.
// ok is false for any byte outside {A,C,G,T,a,c,g,t}.
func CodeOf(b byte) (c Code, ok bool) {
	v := byteToCode[b]
	return Code(v), v != 0xFF
}

// ByteOf returns the upper-case ASCII byte for a code. It panics if c is not
// a valid sequence code (λ has no byte form).
func ByteOf(c Code) byte {
	return codeToByte[c]
}

// Complement returns the Watson-Crick complement of c.
func Complement(c Code) Code {
	return complement[c]
}

// Sequence is a DNA sequence in 2-bit-code-per-byte form (one Code per byte;
// the "2-bit" refers to the value range, not the storage). Storing one code
// per byte keeps suffix scanning branch-free and cheap.
type Sequence []Code

// Parse converts an ASCII string to a Sequence. Characters outside the DNA
// alphabet (including IUPAC ambiguity codes such as N) cause an error that
// identifies the offending position.
func Parse(s string) (Sequence, error) {
	out := make(Sequence, len(s))
	for i := 0; i < len(s); i++ {
		c, ok := CodeOf(s[i])
		if !ok {
			return nil, fmt.Errorf("seq: invalid nucleotide %q at position %d", s[i], i)
		}
		out[i] = c
	}
	return out, nil
}

// String renders the sequence as upper-case ASCII.
func (s Sequence) String() string {
	var b strings.Builder
	b.Grow(len(s))
	for _, c := range s {
		b.WriteByte(codeToByte[c])
	}
	return b.String()
}

// Clone returns a deep copy of s.
func (s Sequence) Clone() Sequence {
	out := make(Sequence, len(s))
	copy(out, s)
	return out
}

// ReverseComplement returns the reverse complement of s as a new sequence.
func (s Sequence) ReverseComplement() Sequence {
	out := make(Sequence, len(s))
	for i, c := range s {
		out[len(s)-1-i] = complement[c]
	}
	return out
}

// Equal reports whether two sequences are identical.
func (s Sequence) Equal(t Sequence) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// ErrEmptySet is returned when constructing a SetS from zero ESTs.
var ErrEmptySet = errors.New("seq: empty EST set")

// StringID identifies one of the 2n strings in S. Even/odd parity encodes
// orientation: StringID(2i) is EST i in forward orientation, StringID(2i+1)
// is its reverse complement. (The paper's 1-based s_{2i-1}/s_{2i} convention
// mapped to 0-based indices.)
type StringID int32

// ESTID identifies an input EST (0-based).
type ESTID int32

// Forward returns the StringID of EST e in forward orientation.
func Forward(e ESTID) StringID { return StringID(2 * e) }

// Reverse returns the StringID of EST e in reverse-complement orientation.
func Reverse(e ESTID) StringID { return StringID(2*e + 1) }

// EST returns the EST an s-string belongs to.
func (id StringID) EST() ESTID { return ESTID(id / 2) }

// IsReverse reports whether the string is a reverse complement.
func (id StringID) IsReverse() bool { return id&1 == 1 }

// Mate returns the opposite-orientation string of the same EST.
func (id StringID) Mate() StringID { return id ^ 1 }

// Gen is a batch generation tag. The ESTs of NewSetS are generation 0; each
// Append call tags its batch with the next generation. Generations are
// monotone in EST (and therefore string) index, which lets the incremental
// pipeline test freshness with a single id comparison.
type Gen int32

// SetS holds the 2n strings S = {e_1, rc(e_1), e_2, rc(e_2), ...} backing the
// generalized suffix tree. Reverse complements are materialized once so that
// suffix scanning needs no per-access transformation.
//
// The set is appendable: Append adds a new batch of ESTs at the next
// generation without disturbing existing ids, so suffix buckets, trees and
// cluster labels built over earlier generations stay valid.
type SetS struct {
	ests []Sequence // the n input ESTs
	strs []Sequence // the 2n strings, indexed by StringID
	totN int64      // Σ len(e_i): the paper's N
	// genStart[g] is the index of the first EST of generation g; the batch
	// spans [genStart[g], genStart[g+1]) with genStart[len] == n implied.
	genStart []int32
}

// NewSetS builds S from the input ESTs (generation 0). Empty ESTs are
// rejected: they carry no suffixes and would produce degenerate ids
// downstream.
func NewSetS(ests []Sequence) (*SetS, error) {
	if len(ests) == 0 {
		return nil, ErrEmptySet
	}
	s := &SetS{genStart: []int32{0}}
	if err := s.append(ests); err != nil {
		return nil, err
	}
	return s, nil
}

// append adds a batch under the already-registered newest generation.
func (s *SetS) append(ests []Sequence) error {
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
func (s *SetS) Append(ests []Sequence) (Gen, error) {
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
func (s *SetS) Truncate(n int) error {
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
func (s *SetS) NumGenerations() int { return len(s.genStart) }

// GenStart returns the index of the first EST of generation g; g ==
// NumGenerations() returns n, so [GenStart(g), GenStart(g+1)) is always the
// batch's EST range.
func (s *SetS) GenStart(g Gen) ESTID {
	if int(g) >= len(s.genStart) {
		return ESTID(len(s.ests))
	}
	return ESTID(s.genStart[g])
}

// GenStartString returns the first StringID of generation g. Strings with id
// >= GenStartString(g) are exactly those of generation >= g — the freshness
// test the incremental pair generator relies on.
func (s *SetS) GenStartString(g Gen) StringID {
	return Forward(s.GenStart(g))
}

// NumESTs returns n.
func (s *SetS) NumESTs() int { return len(s.ests) }

// NumStrings returns 2n.
func (s *SetS) NumStrings() int { return len(s.strs) }

// TotalChars returns N, the total number of characters across the n ESTs
// (reverse complements not double-counted, matching the paper's N).
func (s *SetS) TotalChars() int64 { return s.totN }

// EST returns the i-th input EST.
func (s *SetS) EST(e ESTID) Sequence { return s.ests[e] }

// Str returns the string with the given StringID.
func (s *SetS) Str(id StringID) Sequence { return s.strs[id] }

// Suffix returns the suffix of string id starting at pos.
func (s *SetS) Suffix(id StringID, pos int32) Sequence {
	return s.strs[id][pos:]
}

// LeftChar returns the left-extension character of the suffix of string id
// starting at pos: the character immediately left of the suffix, or λ when
// the suffix is the whole string (pos == 0).
func (s *SetS) LeftChar(id StringID, pos int32) Code {
	if pos == 0 {
		return Lambda
	}
	return s.strs[id][pos-1]
}
