package unionfind

import (
	"encoding/hex"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// buildRandom unions random pairs so the forest has nontrivial interior
// structure (uncompressed paths).
func buildRandom(n int, seed int64) *UF {
	u := New(n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n/2; i++ {
		u.Union(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return u
}

func TestSerializeRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 500} {
		u := buildRandom(n, int64(n)+1)
		data := u.AppendBinary(nil)
		got := New(0)
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got.parent) != len(u.parent) || got.Count() != u.Count() {
			t.Fatalf("n=%d: len/count mismatch: (%d,%d) vs (%d,%d)",
				n, len(got.parent), got.Count(), len(u.parent), u.Count())
		}
		for i := 0; i < n; i++ {
			if got.Find(int32(i)) != u.Find(int32(i)) {
				t.Fatalf("n=%d: element %d changed set", n, i)
			}
		}
		// The restored forest must keep merging correctly.
		if n >= 2 {
			want := u.Union(0, int32(n-1))
			if got.Union(0, int32(n-1)) != want || got.Count() != u.Count() {
				t.Fatalf("n=%d: post-restore union diverged", n)
			}
		}
	}
}

func TestSerializeAppendBinary(t *testing.T) {
	u := buildRandom(20, 3)
	prefix := []byte("hdr")
	data := u.AppendBinary(append([]byte{}, prefix...))
	if string(data[:3]) != "hdr" {
		t.Fatal("AppendBinary clobbered prefix")
	}
	got := New(0)
	if err := got.UnmarshalBinary(data[3:]); err != nil {
		t.Fatal(err)
	}
}

// shardedUFv1 is a UFv1 blob as the removed K-way sharded master union-find
// checkpointed it (n = 24, K = 4): ranks all zero, and a parent array linked
// by union-by-min, so every chain descends to its set's smallest element
// (18 → 11 → 5 → 2, 15 → 12 → 4). PACECKPT files holding such blobs may
// still be on disk and must keep resuming.
const shardedUFv1 = "5546763118000000080000000000000001000000020000000300000004000000" +
	"0200000006000000060000000800000009000000060000000500000004000000" +
	"07000000090000000c00000006000000030000000b0000000200000006000000" +
	"0e0000000900000002000000000000000000000000000000000000000000000000000000"

// shardedUFv1Labels are the labels the writing run reported for the blob.
var shardedUFv1Labels = []int32{0, 1, 2, 3, 4, 2, 5, 5, 6, 7, 5, 2, 4, 5, 7, 4, 5, 3, 2, 2, 5, 7, 7, 2}

func TestShardedSnapshotUFv1(t *testing.T) {
	blob, err := hex.DecodeString(shardedUFv1)
	if err != nil {
		t.Fatal(err)
	}
	u := New(0)
	if err := u.UnmarshalBinary(blob); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(u.parent) != 24 || u.Count() != 8 {
		t.Fatalf("len/count = %d/%d, want 24/8", len(u.parent), u.Count())
	}
	if got := u.Labels(); !slices.Equal(got, shardedUFv1Labels) {
		t.Fatalf("labels %v, want %v", got, shardedUFv1Labels)
	}
	// Resume: union-by-min chains are the forest Union itself builds.
	if u.Union(18, 23) {
		t.Error("Union inside one set merged")
	}
	if !u.Union(21, 17) || !u.Union(8, 1) || !u.Union(0, 20) {
		t.Error("Union of two sets did not merge")
	}
	if u.Count() != 5 || !u.Same(9, 3) || !u.Same(0, 16) || u.Same(1, 4) {
		t.Errorf("after unions: count %d, partition %v", u.Count(), u.Labels())
	}
	var back UF
	if err := back.UnmarshalBinary(u.AppendBinary(nil)); err != nil {
		t.Fatalf("re-encode after resume: %v", err)
	}
	if !slices.Equal(back.Labels(), u.Labels()) {
		t.Error("re-encoded forest changed the partition")
	}
}

// Corrupted or truncated input must return an error wrapping ErrCorrupt —
// never panic — and must leave the receiver untouched.
func TestSerializeCorruptInput(t *testing.T) {
	u := buildRandom(50, 9)
	good := u.AppendBinary(nil)

	mutate := func(name string, f func([]byte) []byte) {
		data := f(append([]byte{}, good...))
		got := buildRandom(10, 1)
		wantCount := got.Count()
		err := got.UnmarshalBinary(data)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
		if len(got.parent) != 10 || got.Count() != wantCount {
			t.Errorf("%s: failed decode mutated the receiver", name)
		}
	}

	mutate("empty", func(b []byte) []byte { return nil })
	mutate("short-header", func(b []byte) []byte { return b[:7] })
	mutate("bad-magic", func(b []byte) []byte { b[0] = 'X'; return b })
	mutate("truncated-body", func(b []byte) []byte { return b[:len(b)-5] })
	mutate("trailing-garbage", func(b []byte) []byte { return append(b, 0xFF) })
	mutate("parent-out-of-range", func(b []byte) []byte {
		b[12], b[13], b[14], b[15] = 0xFF, 0xFF, 0xFF, 0x7F
		return b
	})
	mutate("count-mismatch", func(b []byte) []byte { b[8]++; return b })
	// 0 → 1 → 0 with element 2 the one root: in range, counted right, and a
	// Find on 0 would never return.
	mutate("cycle", func([]byte) []byte {
		return []byte{'U', 'F', 'v', '1', 3, 0, 0, 0, 1, 0, 0, 0,
			1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0}
	})
	// Huge declared n with a short body must fail the length check, not
	// attempt a giant allocation after reading garbage.
	mutate("absurd-n", func(b []byte) []byte {
		b[4], b[5], b[6], b[7] = 0xFF, 0xFF, 0xFF, 0x7F
		return b[:40]
	})
}
