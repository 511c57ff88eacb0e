// Package fasta reads and writes FASTA-formatted DNA sequence files, the
// interchange format used by EST repositories such as dbEST. The reader is
// streaming (suitable for multi-million-record files), tolerates Windows line
// endings and blank lines, replaces non-ACGT characters with A and skips
// records whose sequence is empty.
package fasta

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"

	"pace/internal/seq"
)

// Record is one FASTA entry.
type Record struct {
	// ID is the first whitespace-delimited token after '>'.
	ID string
	// Desc is the remainder of the header line, if any.
	Desc string
	// Seq is the parsed sequence.
	Seq seq.Sequence
}

// Reader streams records from a FASTA file.
type Reader struct {
	s       *bufio.Scanner
	line    int
	pending string // header line read ahead, "" if none
	done    bool
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &Reader{s: s}
}

func trimLine(b []byte) string {
	return string(bytes.TrimRight(b, "\r"))
}

// Next returns the next record with a non-empty sequence, or io.EOF when
// the input is exhausted. Non-ACGT characters (dbEST records routinely
// contain N runs) are replaced with A.
func (r *Reader) Next() (*Record, error) {
	for {
		rec, err := r.record()
		if err != nil || len(rec.Seq) > 0 {
			return rec, err
		}
	}
}

// record parses the next record, whose sequence may be empty.
func (r *Reader) record() (*Record, error) {
	header := r.pending
	r.pending = ""
	for header == "" {
		if r.done {
			return nil, io.EOF
		}
		if !r.s.Scan() {
			r.done = true
			if err := r.s.Err(); err != nil {
				return nil, err
			}
			return nil, io.EOF
		}
		r.line++
		line := trimLine(r.s.Bytes())
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		if !strings.HasPrefix(line, ">") {
			return nil, fmt.Errorf("fasta: line %d: expected header, got %q", r.line, line)
		}
		header = line
	}

	rec := &Record{}
	fields := strings.SplitN(strings.TrimSpace(header[1:]), " ", 2)
	rec.ID = fields[0]
	if len(fields) == 2 {
		rec.Desc = strings.TrimSpace(fields[1])
	}
	if rec.ID == "" {
		return nil, fmt.Errorf("fasta: line %d: empty record id", r.line)
	}

	var raw strings.Builder
	for {
		if !r.s.Scan() {
			r.done = true
			if err := r.s.Err(); err != nil {
				return nil, err
			}
			break
		}
		r.line++
		line := trimLine(r.s.Bytes())
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		if strings.HasPrefix(line, ">") {
			r.pending = line
			break
		}
		raw.WriteString(strings.TrimSpace(line))
	}
	rec.Seq, _ = seq.ParseLossy(raw.String(), seq.A)
	return rec, nil
}

// ReadAll consumes the reader and returns every record.
func (r *Reader) ReadAll() ([]*Record, error) {
	var out []*Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// ReadAll parses all records from r.
func ReadAll(r io.Reader) ([]*Record, error) {
	return NewReader(r).ReadAll()
}

// Sequences extracts just the sequences from records, in order.
func Sequences(recs []*Record) []seq.Sequence {
	out := make([]seq.Sequence, len(recs))
	for i, r := range recs {
		out[i] = r.Seq
	}
	return out
}

// Writer emits FASTA records with fixed line wrapping.
type Writer struct {
	w    *bufio.Writer
	wrap int
}

// NewWriter creates a Writer wrapping lines at wrap characters
// (60 if wrap <= 0).
func NewWriter(w io.Writer, wrap int) *Writer {
	if wrap <= 0 {
		wrap = 60
	}
	return &Writer{w: bufio.NewWriter(w), wrap: wrap}
}

// Write emits one record.
func (w *Writer) Write(rec *Record) error {
	if rec.ID == "" {
		return fmt.Errorf("fasta: cannot write record with empty id")
	}
	if _, err := w.w.WriteString(">" + rec.ID); err != nil {
		return err
	}
	if rec.Desc != "" {
		if _, err := w.w.WriteString(" " + rec.Desc); err != nil {
			return err
		}
	}
	if err := w.w.WriteByte('\n'); err != nil {
		return err
	}
	s := rec.Seq.String()
	for i := 0; i < len(s); i += w.wrap {
		end := i + w.wrap
		if end > len(s) {
			end = len(s)
		}
		if _, err := w.w.WriteString(s[i:end]); err != nil {
			return err
		}
		if err := w.w.WriteByte('\n'); err != nil {
			return err
		}
	}
	return nil
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

// WriteAll writes all records and flushes.
func WriteAll(w io.Writer, recs []*Record, wrap int) error {
	fw := NewWriter(w, wrap)
	for _, r := range recs {
		if err := fw.Write(r); err != nil {
			return err
		}
	}
	return fw.Flush()
}
