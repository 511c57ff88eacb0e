package pace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"unicode/utf8"

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

// fastaWidth is the column WriteFASTA wraps sequence lines at.
const fastaWidth = 60

// ReadFASTA parses FASTA records from r: multi-line sequences, Windows line
// endings, blank lines and ';' comment lines are accepted, and ASCII
// whitespace inside a sequence line is skipped. Bases are upper-cased and
// other non-ACGT characters (e.g. N, or one multi-byte UTF-8 character) are
// replaced with one A — the conservative treatment EST tools apply to
// ambiguity codes — and records with empty sequences are skipped. A header's
// id ends at its first space or tab; the rest is the description. Text
// before the first header and a header with an empty id are refused.
func ReadFASTA(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		out   = []Record{}
		cur   Record
		bases []byte // cur's sequence so far, reused across records
		line  int
	)
	flush := func() {
		if len(bases) > 0 {
			cur.Seq = string(bases)
			out = append(out, cur)
		}
		bases = bases[:0]
	}
	for sc.Scan() {
		line++
		b := bytes.TrimRight(sc.Bytes(), "\r")
		if len(b) == 0 || b[0] == ';' {
			continue
		}
		if b[0] == '>' {
			flush()
			// The id is the header's first token, ended by a space or tab.
			h := bytes.TrimSpace(b[1:])
			cur = Record{}
			if i := bytes.IndexAny(h, " \t"); i >= 0 {
				h, cur.Desc = h[:i], string(bytes.TrimSpace(h[i+1:]))
			}
			if len(h) == 0 {
				return nil, fmt.Errorf("fasta: line %d: empty record id", line)
			}
			cur.ID = string(h)
			continue
		}
		if cur.ID == "" {
			return nil, fmt.Errorf("fasta: line %d: expected header, got %q", line, b)
		}
		for i := 0; i < len(b); i++ {
			c := b[i]
			switch c {
			case ' ', '\t', '\v', '\f', '\r':
				continue
			}
			code, ok := seq.CodeOf(c)
			if !ok {
				code = seq.A
				if c >= utf8.RuneSelf {
					// A multi-byte UTF-8 character is one base.
					_, n := utf8.DecodeRune(b[i:])
					i += n - 1
				}
			}
			bases = append(bases, seq.ByteOf(code))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return out, nil
}

// WriteFASTA writes records to w with 60-column wrapping, bases upper-cased.
// Every record is checked before any byte is written: an empty id or a
// non-ACGT base (in either case) is refused.
func WriteFASTA(w io.Writer, recs []Record) error {
	for _, r := range recs {
		for i := 0; i < len(r.Seq); i++ {
			if _, ok := seq.CodeOf(r.Seq[i]); !ok {
				return fmt.Errorf("seq: invalid nucleotide %q at position %d", r.Seq[i], i)
			}
		}
		if r.ID == "" {
			return errors.New("fasta: cannot write record with empty id")
		}
	}
	// A bufio.Writer's error is sticky, so the one Flush reports any write
	// failure.
	bw := bufio.NewWriter(w)
	for _, r := range recs {
		bw.WriteByte('>')
		bw.WriteString(r.ID)
		if r.Desc != "" {
			bw.WriteByte(' ')
			bw.WriteString(r.Desc)
		}
		bw.WriteByte('\n')
		for i := 0; i < len(r.Seq); i += fastaWidth {
			// Each line is built in the writer's own free space.
			if bw.Available() <= fastaWidth {
				bw.Flush()
			}
			line := bw.AvailableBuffer()
			for _, c := range []byte(r.Seq[i:min(i+fastaWidth, len(r.Seq))]) {
				line = append(line, c&^0x20) // ASCII upper case: the bases are checked above
			}
			bw.Write(append(line, '\n'))
		}
	}
	return bw.Flush()
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
