package fasta

import (
	"bytes"
	"io"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"

	"pace/internal/seq"
)

func TestReadSimple(t *testing.T) {
	in := ">e1 first EST\nACGT\nACGT\n>e2\nGGTT\n"
	recs, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].ID != "e1" || recs[0].Desc != "first EST" {
		t.Errorf("header parse: %q %q", recs[0].ID, recs[0].Desc)
	}
	if recs[0].Seq.String() != "ACGTACGT" {
		t.Errorf("seq concat: %q", recs[0].Seq.String())
	}
	if recs[1].ID != "e2" || recs[1].Desc != "" {
		t.Errorf("second header: %q %q", recs[1].ID, recs[1].Desc)
	}
}

func TestReadCRLFAndBlankLines(t *testing.T) {
	in := ">a\r\nAC\r\n\r\nGT\r\n\r\n>b\r\nTT\r\n"
	recs, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Seq.String() != "ACGT" || recs[1].Seq.String() != "TT" {
		t.Fatalf("CRLF parse wrong: %+v", recs)
	}
}

func TestReadComments(t *testing.T) {
	in := "; a comment\n>a\nAC\n; mid comment\nGT\n"
	recs, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Seq.String() != "ACGT" {
		t.Fatalf("comment parse wrong: %+v", recs)
	}
}

func TestReadRejectsGarbagePrefix(t *testing.T) {
	if _, err := ReadAll(strings.NewReader("ACGT\n>a\nAC\n")); err == nil {
		t.Error("want error for sequence before header")
	}
}

func TestReadAllowAmbiguous(t *testing.T) {
	recs, err := ReadAll(strings.NewReader(">a\nACNT\n"))
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Seq.String() != "ACAT" {
		t.Errorf("got %q", recs[0].Seq.String())
	}
}

func TestReadEmptySequence(t *testing.T) {
	recs, err := ReadAll(strings.NewReader(">a\n>b\nAC\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "b" {
		t.Fatalf("empty record not skipped: %+v", recs)
	}
}

// A run of empty records is skipped in a loop, not by recursion: with the
// stack ceiling lowered, 200,000 of them must not overflow it.
func TestReadSkipsManyEmptyRecords(t *testing.T) {
	old := debug.SetMaxStack(32 << 20)
	t.Cleanup(func() { debug.SetMaxStack(old) })
	in := strings.Repeat(">a\n", 200000) + ">x\nACGTACGT\n"
	recs, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "x" || recs[0].Seq.String() != "ACGTACGT" {
		t.Fatalf("want only record x, got %d records", len(recs))
	}
}

func TestReadEmptyInput(t *testing.T) {
	recs, err := ReadAll(strings.NewReader(""))
	if err != nil || len(recs) != 0 {
		t.Errorf("empty input: %v %v", recs, err)
	}
}

func TestReadEmptyID(t *testing.T) {
	if _, err := ReadAll(strings.NewReader(">\nAC\n")); err == nil {
		t.Error("want error for empty id")
	}
}

func TestNextEOF(t *testing.T) {
	r := NewReader(strings.NewReader(">a\nAC\n"))
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
	// Repeated calls keep returning EOF.
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want io.EOF again, got %v", err)
	}
}

func TestWriteWrap(t *testing.T) {
	s, _ := seq.Parse("ACGTACGTAC")
	var buf bytes.Buffer
	err := WriteAll(&buf, []*Record{{ID: "x", Desc: "d", Seq: s}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := ">x d\nACGT\nACGT\nAC\n"
	if buf.String() != want {
		t.Errorf("got %q want %q", buf.String(), want)
	}
}

func TestWriteRejectsEmptyID(t *testing.T) {
	var buf bytes.Buffer
	if err := NewWriter(&buf, 0).Write(&Record{ID: ""}); err == nil {
		t.Error("want error for empty id")
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var recs []*Record
	for i := 0; i < 25; i++ {
		n := 1 + rng.Intn(300)
		s := make(seq.Sequence, n)
		for j := range s {
			s[j] = seq.Code(rng.Intn(4))
		}
		recs = append(recs, &Record{ID: "est" + string(rune('A'+i)), Seq: s})
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs, 60); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("count %d != %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].ID != recs[i].ID || !got[i].Seq.Equal(recs[i].Seq) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestSequences(t *testing.T) {
	s1, _ := seq.Parse("AC")
	s2, _ := seq.Parse("GT")
	got := Sequences([]*Record{{ID: "a", Seq: s1}, {ID: "b", Seq: s2}})
	if len(got) != 2 || !got[0].Equal(s1) || !got[1].Equal(s2) {
		t.Error("Sequences extraction wrong")
	}
}

func BenchmarkRead(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		sb.WriteString(">est\n")
		for j := 0; j < 10; j++ {
			line := make([]byte, 60)
			for k := range line {
				line[k] = "ACGT"[rng.Intn(4)]
			}
			sb.Write(line)
			sb.WriteByte('\n')
		}
	}
	data := sb.String()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := ReadAll(strings.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
