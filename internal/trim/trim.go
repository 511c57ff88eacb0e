// Package trim implements EST preprocessing: poly(A)/poly(T) tail trimming.
//
// mRNAs carry 3' poly(A) tails, and oligo-dT-primed cDNA fragments inherit
// them; after strand flips the tails surface as leading poly(T) or trailing
// poly(A) runs on reads. Untrimmed tails are poison for a suffix-tree
// clusterer: every tailed EST shares long A^k maximal common substrings with
// every other tailed EST, so the A-bucket subtree balloons and the pair
// generator emits a quadratic flood of spurious promising pairs that the
// aligner must reject one by one. Production EST pipelines therefore trim
// tails first; this package provides that step for ours.
package trim

import (
	"fmt"

	"pace/internal/seq"
)

// Options controls tail trimming.
type Options struct {
	// MinRun is the minimum homopolymer run length that counts as a tail.
	MinRun int
	// MaxMiss bounds the density of interrupting non-run characters inside
	// a tail (sequencing errors in poly(A) stretches); see tailLen.
	MaxMiss int
	// MinRemain guards against trimming a read away entirely: trimming
	// stops once the remaining sequence would fall below this length.
	MinRemain int
}

// DefaultOptions matches common EST pipeline settings.
func DefaultOptions() Options {
	return Options{MinRun: 10, MaxMiss: 2, MinRemain: 50}
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.MinRun < 2 {
		return fmt.Errorf("trim: MinRun must be >= 2, got %d", o.MinRun)
	}
	if o.MaxMiss < 0 {
		return fmt.Errorf("trim: MaxMiss must be >= 0")
	}
	if o.MinRemain < 0 {
		return fmt.Errorf("trim: MinRemain must be >= 0")
	}
	return nil
}

// trailingRun returns how many characters to cut from the end of s to remove
// a homopolymer tail of character c.
func trailingRun(s seq.Sequence, c seq.Code, minRun, maxMiss int) int {
	return tailLen(len(s), func(k int) seq.Code { return s[len(s)-1-k] }, c, minRun, maxMiss)
}

// leadingRun mirrors trailingRun at the front of s.
func leadingRun(s seq.Sequence, c seq.Code, minRun, maxMiss int) int {
	return tailLen(len(s), func(k int) seq.Code { return s[k] }, c, minRun, maxMiss)
}

// tailLen scans the n characters at(0), at(1), … inward from one end and
// returns the length of the homopolymer tail of c to cut there.
//
// The interruption tolerance is a density: the scan goes on while the
// interruptions seen stay within maxMiss plus one per minRun run characters
// seen, so a long tail with scattered sequencing errors is cut whole. The
// cut is as strict as the scan is loose: it advances only to a run
// character, at least minRun run characters in, whose last minRun scanned
// characters hold at most maxMiss interruptions. So the cut never ends on an
// interruption, nor takes in body characters that merely lie near the tail.
func tailLen(n int, at func(int) seq.Code, c seq.Code, minRun, maxMiss int) int {
	run, miss, window, cut := 0, 0, 0, 0
	for k := 0; k < n; k++ {
		if k >= minRun && at(k-minRun) != c {
			window-- // it leaves the last minRun scanned characters
		}
		if at(k) != c {
			miss++
			window++
			if miss > maxMiss+run/minRun {
				break
			}
			continue
		}
		run++
		if run >= minRun && window <= maxMiss {
			cut = k + 1
		}
	}
	return cut
}

// Tails trims poly(A)/poly(T) tails from both ends of s and returns the
// trimmed subsequence (sharing storage with s) plus how many characters were
// removed at each end. Both A and T runs are handled at both ends because
// the strand of a deposited EST is unknown.
func Tails(s seq.Sequence, o Options) (trimmed seq.Sequence, cutFront, cutBack int) {
	if err := o.Validate(); err != nil {
		// Invalid options are a programming error; trimming nothing is
		// the safe degradation for library misuse at runtime.
		return s, 0, 0
	}
	out := s
	for _, c := range []seq.Code{seq.A, seq.T} {
		if cut := trailingRun(out, c, o.MinRun, o.MaxMiss); cut > 0 {
			if len(out)-cut < o.MinRemain {
				cut = len(out) - o.MinRemain
			}
			if cut > 0 {
				out = out[:len(out)-cut]
				cutBack += cut
			}
		}
		if cut := leadingRun(out, c, o.MinRun, o.MaxMiss); cut > 0 {
			if len(out)-cut < o.MinRemain {
				cut = len(out) - o.MinRemain
			}
			if cut > 0 {
				out = out[cut:]
				cutFront += cut
			}
		}
	}
	return out, cutFront, cutBack
}

// Stats summarizes a batch trimming pass.
type Stats struct {
	// Reads is the number of sequences processed.
	Reads int
	// Trimmed is how many had at least one character removed.
	Trimmed int
	// CharsRemoved is the total characters cut.
	CharsRemoved int64
}

// Batch trims every sequence and returns the trimmed set plus statistics.
// Sequences share storage with their inputs.
func Batch(ests []seq.Sequence, o Options) ([]seq.Sequence, Stats) {
	out := make([]seq.Sequence, len(ests))
	var st Stats
	st.Reads = len(ests)
	for i, e := range ests {
		t, f, b := Tails(e, o)
		out[i] = t
		if f+b > 0 {
			st.Trimmed++
			st.CharsRemoved += int64(f + b)
		}
	}
	return out, st
}
