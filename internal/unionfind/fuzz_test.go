package unionfind

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
)

// FuzzUFv1 drives UnmarshalBinary with arbitrary bytes. Invariants: no
// panic, every failure wraps ErrCorrupt, and every accepted input re-encodes
// through AppendBinary with the same header and parent bytes, zeroed rank
// bytes, and a partition that decodes to the input's.
func FuzzUFv1(f *testing.F) {
	small := New(4)
	small.Union(0, 1)
	merged := New(8)
	merged.Union(0, 1)
	merged.Union(1, 2)
	merged.Union(5, 6)
	for _, u := range []*UF{New(0), New(1), small, merged} {
		enc := u.AppendBinary(nil)
		f.Add(enc)
	}
	enc := merged.AppendBinary(nil)
	f.Add(enc[:len(enc)-3])                       // truncated mid-rank
	f.Add(append(append([]byte{}, enc...), 0, 1)) // trailing bytes
	f.Add([]byte("UFv2????????"))                 // wrong magic version
	f.Add(byRankUFv1)                             // union by rank's layout and rank bytes
	f.Fuzz(func(t *testing.T, b []byte) {
		var u UF
		if err := u.UnmarshalBinary(b); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		got := u.AppendBinary(nil)
		ranks := 12 + 4*len(u.parent)
		if !bytes.Equal(got[:ranks], b[:ranks]) {
			t.Fatalf("header or parent bytes changed:\n in  %x\n out %x", b, got)
		}
		if !bytes.Equal(got[ranks:], make([]byte, len(u.parent))) {
			t.Fatalf("rank bytes not zeroed: %x", got[ranks:])
		}
		var back UF
		if err := back.UnmarshalBinary(got); err != nil {
			t.Fatalf("re-encoded forest does not decode: %v", err)
		}
		if !slices.Equal(back.Labels(), u.Labels()) {
			t.Fatalf("partition changed: %v, then %v", u.Labels(), back.Labels())
		}
	})
}

// byRankUFv1 is a UFv1 blob as union by rank wrote it (n = 4): 0 hangs
// under 3, a link up that union by minimum never makes, 2 hangs under 1, and
// both roots carry rank 1.
var byRankUFv1 = []byte{
	'U', 'F', 'v', '1', 4, 0, 0, 0, 2, 0, 0, 0,
	3, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0,
	0, 1, 0, 1,
}

// TestUFv1IgnoresRanks: a union-by-rank snapshot loads with its partition,
// keeps merging, and re-encodes with the same parents and zero ranks.
func TestUFv1IgnoresRanks(t *testing.T) {
	var u UF
	if err := u.UnmarshalBinary(byRankUFv1); err != nil {
		t.Fatal(err)
	}
	if got := u.Labels(); !slices.Equal(got, []int32{0, 1, 1, 0}) || u.Count() != 2 {
		t.Fatalf("labels %v count %d, want [0 1 1 0] and 2", got, u.Count())
	}
	enc := u.AppendBinary(nil)
	if want := append(slices.Clone(byRankUFv1[:28]), 0, 0, 0, 0); !bytes.Equal(enc, want) {
		t.Fatalf("re-encoded %x, want %x", enc, want)
	}
	if !u.Union(2, 0) || u.Count() != 1 || !u.Same(1, 3) {
		t.Errorf("after Union(2, 0): count %d, labels %v", u.Count(), u.Labels())
	}
}

// TestUFv1StrictLength pins the truncated/trailing split: both directions
// are rejected, and the error names the offending offset.
func TestUFv1StrictLength(t *testing.T) {
	u := New(3)
	u.Union(0, 2)
	enc := u.AppendBinary(nil)

	var dst UF
	err := dst.UnmarshalBinary(append(append([]byte{}, enc...), 0xEE))
	if err == nil {
		t.Fatal("trailing byte accepted")
	}
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("want trailing-bytes ErrCorrupt, got %v", err)
	}
	// 12 + 5*3 = 27: the first trailing byte sits at offset 27.
	if !strings.Contains(err.Error(), "offset 27") {
		t.Fatalf("error does not name the offending offset: %v", err)
	}

	err = dst.UnmarshalBinary(enc[:len(enc)-2])
	if err == nil {
		t.Fatal("truncated input accepted")
	}
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("want truncated ErrCorrupt, got %v", err)
	}
}
