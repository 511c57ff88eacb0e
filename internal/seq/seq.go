// Package seq provides the DNA sequence primitives used throughout the
// clustering pipeline: the 4-letter nucleotide alphabet, reverse
// complementation, sequence validation, and the SetS abstraction from the
// paper — the set S = {s_1, ..., s_2n} where s_{2i-1} = e_i is the i-th EST
// and s_{2i} = rc(e_i) is its reverse complement.
package seq

import (
	"errors"
	"fmt"
	"math"
	"slices"
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
// per byte keeps suffix scanning branch-free and cheap. A SetS copies its
// ESTs and their reverse complements into one text of such codes.
type Sequence []Code

// Parse converts an ASCII string to a Sequence. Characters outside the DNA
// alphabet (including IUPAC ambiguity codes such as N) cause an error that
// identifies the offending position.
func Parse(s string) (Sequence, error) {
	return AppendParse(make(Sequence, 0, len(s)), s)
}

// AppendParse is Parse appending to dst: it returns dst extended by s's
// codes, so that many strings can be parsed into one array.
func AppendParse(dst Sequence, s string) (Sequence, error) {
	for i := 0; i < len(s); i++ {
		c, ok := CodeOf(s[i])
		if !ok {
			return nil, fmt.Errorf("seq: invalid nucleotide %q at position %d", s[i], i)
		}
		dst = append(dst, c)
	}
	return dst, nil
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
// generalized suffix tree as one text, in StringID order, with a λ before
// every string and after the last:
//
//	λ s_0 λ s_1 λ … λ s_{2n-1} λ
//
// A suffix is its position in the text: the suffix of string id at pos is
// Start(id)+pos, so position order is (StringID, pos) order. The byte
// before a suffix is its left character, and a compare of two suffixes ends
// at the first λ. Locate maps a position back to (StringID, pos) through a
// directory of the string that holds every 64th position, which Append
// extends with the text, so the goroutines that read a set share it as it
// is.
//
// The set is appendable: Append adds a new batch of ESTs at the next
// generation without disturbing existing ids or positions, so suffix
// buckets, trees and cluster labels built over earlier generations stay
// valid.
type SetS struct {
	text []Code
	// start[id] is the position of string id's first character; start[2n]
	// is len(text), where a next string would start.
	start []int32
	// dir[k] is the string whose range [start[id], start[id+1]) holds
	// position k<<dirShift, string 0 for the leading λ.
	dir []StringID
	// genStart[g] is the index of the first EST of generation g; the batch
	// spans [genStart[g], genStart[g+1]) with genStart[len] == n implied.
	genStart []int32
}

// dirShift sets the directory's stride: one entry per 1<<dirShift
// positions, 1/16 of the text. A stride no longer than most strings keeps
// Locate's step over the starts to one compare. A rank directory (a 64-bit
// start bitmap and a count per 64 positions) is four times larger, and at
// 81,414 ESTs it located ≈ 40 % slower (BenchmarkLocate, 2-vCPU Xeon).
const dirShift = 6

// fits returns an error unless n more ESTs of chars characters in all fit a
// text of have positions: each adds two strings and a λ after each, and a
// position is an int32.
func fits(have, n int, chars int64) error {
	if need := int64(have) + 2*(chars+int64(n)); need > math.MaxInt32 {
		return fmt.Errorf("seq: %d ESTs of %d characters would grow the text from %d to %d positions, past %d", n, chars, have, need, math.MaxInt32)
	}
	return nil
}

// NewSetS builds S from the input ESTs (generation 0), copying them into the
// text. Empty ESTs are rejected: they carry no suffixes and would produce
// degenerate ids downstream.
func NewSetS(ests []Sequence) (*SetS, error) {
	if len(ests) == 0 {
		return nil, ErrEmptySet
	}
	s := &SetS{text: []Code{Lambda}, start: []int32{1}, genStart: []int32{0}}
	if err := s.append(ests); err != nil {
		return nil, err
	}
	return s, nil
}

// append adds a batch under the newest generation, or returns an error and
// leaves the set unchanged.
func (s *SetS) append(ests []Sequence) error {
	var chars int64
	for i, e := range ests {
		if len(e) == 0 {
			return fmt.Errorf("seq: EST %d is empty", s.NumESTs()+i)
		}
		chars += int64(len(e))
	}
	if err := fits(len(s.text), len(ests), chars); err != nil {
		return err
	}
	s.text = slices.Grow(s.text, int(2*(chars+int64(len(ests)))))
	s.start = slices.Grow(s.start, 2*len(ests))
	s.dir = slices.Grow(s.dir, cap(s.text)>>dirShift+1-len(s.dir))
	for _, e := range ests {
		s.text = append(append(s.text, e...), Lambda)
		s.start = append(s.start, int32(len(s.text)))
		for i := len(e) - 1; i >= 0; i-- {
			s.text = append(s.text, complement[e[i]])
		}
		s.text = append(s.text, Lambda)
		s.start = append(s.start, int32(len(s.text)))
	}
	for id := StringID(len(s.start) - 2*len(ests) - 1); int(id) < len(s.start)-1; id++ {
		for len(s.dir)<<dirShift < int(s.start[id+1]) {
			s.dir = append(s.dir, id)
		}
	}
	return nil
}

// Append adds a batch of ESTs as the next generation and returns that
// generation's tag. Existing StringIDs, ESTIDs, positions and the
// reverse-complement pairing invariant (s_{2i+1} = rc(s_{2i})) are
// preserved; the new strings occupy the id range [GenStartString(g),
// NumStrings()). An empty batch, an empty EST or a batch the text cannot
// index is rejected without mutating the set.
func (s *SetS) Append(ests []Sequence) (Gen, error) {
	if len(ests) == 0 {
		return 0, ErrEmptySet
	}
	if err := s.append(ests); err != nil {
		return 0, err
	}
	s.genStart = append(s.genStart, int32(s.NumESTs()-len(ests)))
	return Gen(len(s.genStart) - 1), nil
}

// Truncate rolls the set back to its first n ESTs, discarding later ESTs,
// their strings, and any generation that starts at or beyond n. It is the
// inverse of Append for a failed batch: a session whose clustering run
// errors after appending can restore the set to exactly its pre-Append
// state — text, starts, directory and generations — so a retried Append is
// indistinguishable from a first attempt. n must lie in [1, NumESTs()].
func (s *SetS) Truncate(n int) error {
	if n < 1 || n > s.NumESTs() {
		return fmt.Errorf("seq: Truncate to %d ESTs outside [1, %d]", n, s.NumESTs())
	}
	s.start = s.start[:2*n+1]
	s.text = s.text[:s.start[2*n]]
	s.dir = s.dir[:(len(s.text)+1<<dirShift-1)>>dirShift]
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
		return ESTID(s.NumESTs())
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
func (s *SetS) NumESTs() int { return s.NumStrings() / 2 }

// NumStrings returns 2n.
func (s *SetS) NumStrings() int { return len(s.start) - 1 }

// TotalChars returns N, the total number of characters across the n ESTs
// (reverse complements not double-counted, matching the paper's N).
func (s *SetS) TotalChars() int64 { return int64(len(s.text)-1-s.NumStrings()) / 2 }

// Text returns the text, read-only: it aliases the set until the next
// Append or Truncate.
func (s *SetS) Text() []Code { return s.text[:len(s.text):len(s.text)] }

// Start returns the position of string id's first character; Start(2n) is
// the text's length.
func (s *SetS) Start(id StringID) int32 { return s.start[id] }

// Locate returns the string holding position p and p's offset in it: the
// directory's string for p's stride, stepped forward over the starts.
func (s *SetS) Locate(p int32) (StringID, int32) {
	id := s.dir[p>>dirShift]
	for s.start[id+1] <= p {
		id++
	}
	return id, p - s.start[id]
}

// EST returns the i-th input EST: a read-only view of the text.
func (s *SetS) EST(e ESTID) Sequence { return s.Str(Forward(e)) }

// Str returns the string with the given StringID: a read-only view of the
// text, capped at the string's end.
func (s *SetS) Str(id StringID) Sequence {
	lo, hi := s.start[id], s.start[id+1]-1
	return s.text[lo:hi:hi]
}

// Suffix returns the suffix of string id starting at pos.
func (s *SetS) Suffix(id StringID, pos int32) Sequence {
	return s.Str(id)[pos:]
}

// LeftChar returns the left-extension character of the suffix at position
// p: the character before it, or λ when the suffix is a whole string.
func (s *SetS) LeftChar(p int32) Code { return s.text[p-1] }
