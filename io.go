package pace

import (
	"io"

	"pace/internal/fasta"
	"pace/internal/seq"
)

// Record is one FASTA entry at the public API boundary.
type Record struct {
	// ID is the token after '>'.
	ID string
	// Desc is the remainder of the header line.
	Desc string
	// Seq is the DNA sequence (upper-case ACGT).
	Seq string
}

// ReadFASTA parses FASTA records from r. Non-ACGT characters (e.g. N) are
// replaced with A — the conservative treatment EST tools apply to ambiguity
// codes — and records with empty sequences are skipped.
func ReadFASTA(r io.Reader) ([]Record, error) {
	recs, err := fasta.ReadAll(r)
	if err != nil {
		return nil, err
	}
	out := make([]Record, len(recs))
	for i, rec := range recs {
		out[i] = Record{ID: rec.ID, Desc: rec.Desc, Seq: rec.Seq.String()}
	}
	return out, nil
}

// WriteFASTA writes records to w with 60-column wrapping.
func WriteFASTA(w io.Writer, recs []Record) error {
	conv := make([]*fasta.Record, len(recs))
	for i, r := range recs {
		s, err := seq.Parse(r.Seq)
		if err != nil {
			return err
		}
		conv[i] = &fasta.Record{ID: r.ID, Desc: r.Desc, Seq: s}
	}
	return fasta.WriteAll(w, conv, 60)
}

// Sequences extracts the sequences of records, in order — the form Cluster
// accepts.
func Sequences(recs []Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Seq
	}
	return out
}
