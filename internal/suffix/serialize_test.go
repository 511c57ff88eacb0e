package suffix

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"pace/internal/seq"
)

func buildTestForest(t testing.TB, seed int64) ([]*Tree, *seq.SetS) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	set := randomSet(t, rng, 10, 30, 70)
	w := 4
	hi := seq.StringID(set.NumStrings())
	owner := Assign(Histogram(set, w, 0, hi), 1)
	m := CollectOwned(set, w, owner, 0, 0, hi)
	forest, err := BuildForest(set, m, w)
	if err != nil {
		t.Fatal(err)
	}
	return forest, set
}

func TestTreeRoundTrip(t *testing.T) {
	forest, set := buildTestForest(t, 1)
	for _, tr := range forest[:3] {
		var buf bytes.Buffer
		if err := WriteTree(&buf, tr); err != nil {
			t.Fatal(err)
		}
		got, err := ReadTree(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Bucket != tr.Bucket || len(got.Nodes) != len(tr.Nodes) {
			t.Fatalf("shape: %d/%d vs %d/%d", got.Bucket, len(got.Nodes), tr.Bucket, len(tr.Nodes))
		}
		for i := range tr.Nodes {
			if got.Nodes[i] != tr.Nodes[i] {
				t.Fatalf("node %d differs", i)
			}
		}
		if err := got.Verify(set); err != nil {
			t.Fatal(err)
		}
	}
}

func TestForestRoundTrip(t *testing.T) {
	forest, set := buildTestForest(t, 2)
	var buf bytes.Buffer
	if err := WriteForest(&buf, forest); err != nil {
		t.Fatal(err)
	}
	got, err := ReadForest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(forest) {
		t.Fatalf("forest size %d want %d", len(got), len(forest))
	}
	for k := range forest {
		if got[k].Bucket != forest[k].Bucket || len(got[k].Nodes) != len(forest[k].Nodes) {
			t.Fatalf("tree %d shape differs", k)
		}
		if err := got[k].Verify(set); err != nil {
			t.Fatalf("tree %d: %v", k, err)
		}
	}
}

func TestReadTreeRejectsCorruption(t *testing.T) {
	forest, _ := buildTestForest(t, 3)
	var buf bytes.Buffer
	if err := WriteTree(&buf, forest[0]); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF // magic
	if _, err := ReadTree(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}

	bad = append([]byte(nil), data...)
	bad[4] = 99 // version
	if _, err := ReadTree(bytes.NewReader(bad)); err == nil {
		t.Error("bad version accepted")
	}

	if _, err := ReadTree(bytes.NewReader(data[:len(data)-4])); err == nil {
		t.Error("truncated stream accepted")
	}

	// Corrupt an RML to an out-of-range value.
	bad = append([]byte(nil), data...)
	bad[20+4] = 0xFF
	bad[20+5] = 0xFF
	bad[20+6] = 0xFF
	bad[20+7] = 0x7F
	if _, err := ReadTree(bytes.NewReader(bad)); err == nil {
		t.Error("invalid RML accepted")
	}

	// A header is 20 bytes and may claim any node count. More nodes than an
	// int32 RML can index is refused outright, and a claim that is merely
	// huge costs no more memory than the records that actually follow.
	claim := func(count uint64, records int) []byte {
		out := append([]byte(nil), data[:20+16*records]...)
		binary.LittleEndian.PutUint64(out[12:], count)
		return out
	}
	for _, count := range []uint64{1 << 40, math.MaxInt32 + 1} {
		if _, err := ReadTree(bytes.NewReader(claim(count, 0))); err == nil || !strings.Contains(err.Error(), "implausible node count") {
			t.Errorf("header claiming %d nodes: %v", count, err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := ReadTree(bytes.NewReader(claim(math.MaxInt32, 1)))
	runtime.ReadMemStats(&m1)
	if err == nil || !strings.Contains(err.Error(), "reading node 1") {
		t.Errorf("stream of 1 node claiming %d: %v", math.MaxInt32, err)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 2*16*readChunk {
		t.Errorf("reading 1 node of a truncated stream allocated %d bytes", got)
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], 1<<32)
	runtime.ReadMemStats(&m0)
	_, err = ReadForest(bytes.NewReader(cnt[:]))
	runtime.ReadMemStats(&m1)
	if err == nil || !strings.Contains(err.Error(), "tree 0") {
		t.Errorf("forest of no trees claiming 2^32: %v", err)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 2*8*readChunk {
		t.Errorf("reading an empty forest allocated %d bytes", got)
	}
}

// A tree longer than the reader's first chunk arrives whole, in a slice
// grown to exactly its length.
func TestReadTreeGrowsPastTheFirstChunk(t *testing.T) {
	n := 2*readChunk + 3
	big := &Tree{Bucket: 5, Nodes: make([]Node, n)}
	for i := range big.Nodes {
		big.Nodes[i] = Node{Depth: int32(i % 7), RML: int32(n - 1), SID: seq.StringID(i), Pos: int32(i)}
	}
	big.Nodes[n-1].RML = int32(n - 1)
	var buf bytes.Buffer
	if err := WriteTree(&buf, big); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTree(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Nodes) != n || cap(got.Nodes) != n {
		t.Fatalf("read %d nodes in capacity %d, want %d", len(got.Nodes), cap(got.Nodes), n)
	}
	for i := range big.Nodes {
		if got.Nodes[i] != big.Nodes[i] {
			t.Fatalf("node %d differs", i)
		}
	}
}

func TestStats(t *testing.T) {
	forest, set := buildTestForest(t, 4)
	st := Stats(forest)
	if st.Trees != len(forest) {
		t.Errorf("trees %d", st.Trees)
	}
	if st.Nodes != st.Leaves+st.InternalNodes {
		t.Errorf("node split: %d != %d + %d", st.Nodes, st.Leaves, st.InternalNodes)
	}
	// Leaves == total suffixes of length >= w.
	var want int64
	for id := 0; id < set.NumStrings(); id++ {
		if l := len(set.Str(seq.StringID(id))); l >= 4 {
			want += int64(l - 4 + 1)
		}
	}
	if st.Leaves != want {
		t.Errorf("leaves %d want %d", st.Leaves, want)
	}
	if st.Bytes != 16*st.Nodes {
		t.Errorf("bytes accounting")
	}
	if st.MaxDepth < 30 {
		t.Errorf("max depth %d implausible for strings up to 70", st.MaxDepth)
	}
}
