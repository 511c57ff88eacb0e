package pace

import "pace/internal/trim"

// TrimOptions configures poly(A)/poly(T) tail trimming.
type TrimOptions struct {
	// MinRun is the minimum homopolymer run that counts as a tail
	// (default 10).
	MinRun int
	// MaxMiss bounds the density of interruptions inside a tail (default
	// 2): MaxMiss plus one per MinRun run characters overall, and at most
	// MaxMiss in the MinRun characters at the tail's inner edge.
	MaxMiss int
	// MinRemain stops trimming before a read shrinks below this length
	// (default 50).
	MinRemain int
}

// TrimStats summarizes a trimming pass.
type TrimStats struct {
	Reads        int
	Trimmed      int
	CharsRemoved int64
}

// Trim removes poly(A)/poly(T) tails from every EST (both ends, both bases —
// strands are unknown) and returns the trimmed sequences with statistics.
// Untrimmed tails make every tailed EST pair share long A^k substrings,
// flooding the suffix-tree pair generator; run this before Cluster on raw
// (untrimmed) data.
func Trim(ests []string, opt TrimOptions) ([]string, TrimStats, error) {
	o := trim.DefaultOptions()
	if opt.MinRun != 0 {
		o.MinRun = opt.MinRun
	}
	if opt.MaxMiss != 0 {
		o.MaxMiss = opt.MaxMiss
	}
	if opt.MinRemain != 0 {
		o.MinRemain = opt.MinRemain
	}
	if err := o.Validate(); err != nil {
		return nil, TrimStats{}, err
	}
	parsed, err := parseESTs(ests)
	if err != nil {
		return nil, TrimStats{}, err
	}
	trimmed, st := trim.Batch(parsed, o)
	out := make([]string, len(trimmed))
	for i, s := range trimmed {
		out[i] = s.String()
	}
	return out, TrimStats{Reads: st.Reads, Trimmed: st.Trimmed, CharsRemoved: st.CharsRemoved}, nil
}
