package cluster

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"pace/internal/pairgen"
	"pace/internal/unionfind"
)

// Fuzz targets for the wire decoders. The invariant under test is the same
// for all of them: arbitrary input never panics, and whenever a decode
// succeeds, re-encoding the result reproduces the input byte-for-byte (the
// codecs have exactly one encoding per value, so accept ⇒ round-trip).

func fuzzSeedReports() []report {
	return []report{
		{},
		{passive: true},
		{hasNextWork: true, ackWork: true},
		{
			results: []alignResult{
				{estI: 1, estJ: 2, accepted: true},
				{estI: 7, estJ: 3},
			},
			pairs: []pairgen.Pair{
				{S1: 1, S2: 2, Pos1: 10, Pos2: 20, MatchLen: 30},
			},
			ackWork: true,
		},
		// Ids past any set, from words of 2³¹ and above: the decoder cannot
		// know the set and passes them; the master's checkReportIDs refuses
		// them.
		{
			results: []alignResult{{estI: math.MinInt32, estJ: 0, accepted: true}},
			pairs:   []pairgen.Pair{{S1: -1, S2: 3, Pos1: 0, Pos2: 0, MatchLen: 20}},
		},
	}
}

func FuzzDecodeReport(f *testing.F) {
	for _, rep := range fuzzSeedReports() {
		f.Add(appendReport(nil, rep))
	}
	// Truncated, trailing and unknown-flag mutants of a valid message; flag
	// bit 8 once marked a merge delta.
	enc := appendReport(nil, fuzzSeedReports()[3])
	f.Add(enc[:len(enc)-1])
	f.Add(append(append([]byte{}, enc...), 0xAA))
	f.Add(append([]byte{enc[0] | 8}, enc[1:]...))
	f.Fuzz(func(t *testing.T, b []byte) {
		rep, err := decodeReport(b)
		if err != nil {
			return
		}
		if got := appendReport(nil, rep); !bytes.Equal(got, b) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", b, got)
		}
	})
}

func FuzzDecodeWork(f *testing.F) {
	seeds := []work{
		{},
		{stop: true},
		{e: 5, pairs: []pairgen.Pair{{S1: 3, S2: 4, Pos1: 1, Pos2: 2, MatchLen: 9}}},
		{e: 1, recover: []shard{{part: 0, idx: 1, of: 2}}},
		{edges: [][2]int32{{0, 1}}},
		{
			e:       2,
			pairs:   []pairgen.Pair{{S1: 3, S2: 4, Pos1: 1, Pos2: 2, MatchLen: 9}},
			recover: []shard{{part: 1, idx: 0, of: 3}},
			// An id from a word of 2³¹: decodeWork passes it, checkEdgeIDs
			// refuses it.
			edges: [][2]int32{{4, 2}, {math.MinInt32, 7}},
		},
	}
	for _, w := range seeds {
		f.Add(appendWork(nil, w))
	}
	enc := appendWork(nil, seeds[2])
	f.Add(enc[:7])
	f.Add(append(append([]byte{}, enc...), 0, 0))
	// Edge flag with no section, and an edge section cut short.
	f.Add(append([]byte{enc[0] | 4}, enc[1:]...))
	enc = appendWork(nil, seeds[5])
	f.Add(enc[:len(enc)-3])
	// A grant word of 2³¹, which would decode to a negative E.
	enc = appendWork(nil, seeds[2])
	binary.LittleEndian.PutUint32(enc[4:], 1<<31)
	f.Add(enc)
	f.Fuzz(func(t *testing.T, b []byte) {
		w, err := decodeWork(b)
		if err != nil {
			return
		}
		if w.e < 0 {
			t.Fatalf("negative grant %d accepted", w.e)
		}
		if got := appendWork(nil, w); !bytes.Equal(got, b) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", b, got)
		}
	})
}

func FuzzDecodePhase(f *testing.F) {
	p := RankStats{
		Partition: 1, Construct: 2, Sort: 3, Align: 4, Total: 5,
		PairsGenerated: 6, PairsProcessed: 7, PairsAccepted: 8, StaleSuppressed: 9, PairsSkipped: 17,
		MsgsSent: 10, BytesSent: 11, MsgsRecv: 12, BytesRecv: 13,
		RecvWait: -1,
	}
	enc := encodePhase(p)
	f.Add(enc)
	f.Add(enc[:len(enc)-8])                          // truncated: one word short
	f.Add(append(append([]byte{}, enc...), 1, 2, 3)) // trailing bytes
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := decodePhase(b)
		if err != nil {
			if len(b) == 8*phaseReportWords {
				t.Fatalf("rejected a correctly sized phase report: %v", err)
			}
			return
		}
		if len(b) != 8*phaseReportWords {
			t.Fatalf("accepted %d bytes, want exactly %d", len(b), 8*phaseReportWords)
		}
		if !bytes.Equal(encodePhase(got), b) {
			t.Fatalf("round-trip mismatch")
		}
	})
}

func fuzzCheckpoint() *Checkpoint {
	uf := unionfind.New(6)
	uf.Union(0, 1)
	uf.Union(2, 3)
	return &Checkpoint{
		NumESTs: 6, Window: 8, Psi: 12, Seq: 3,
		PairsProcessed: 40, PairsAccepted: 12, PairsSkipped: 5, Merges: 2,
		UF: uf,
	}
}

func FuzzDecodeCheckpoint(f *testing.F) {
	enc := fuzzCheckpoint().encode()
	f.Add(enc)
	f.Add(enc[:len(enc)-5])                       // truncated
	f.Add(append(append([]byte{}, enc...), 0xFF)) // trailing byte breaks the CRC
	f.Add(append([]byte("NOTCKPT!"), enc[8:]...)) // bad magic
	f.Fuzz(func(t *testing.T, b []byte) {
		ck, err := decodeCheckpoint(b)
		if err != nil {
			return
		}
		if got := ck.encode(); !bytes.Equal(got, b) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", b, got)
		}
	})
}

// TestFuzzSeedsDecode pins the seed corpus itself: every valid seed decodes
// to the value it was encoded from, and every mutant seed is rejected with
// an offset-bearing error. This runs in plain `go test` even when the fuzz
// engine is never invoked.
func TestFuzzSeedsDecode(t *testing.T) {
	for i, rep := range fuzzSeedReports() {
		got, err := decodeReport(appendReport(nil, rep))
		if err != nil {
			t.Fatalf("seed report %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, rep) {
			t.Fatalf("seed report %d: round-trip mismatch: %+v vs %+v", i, got, rep)
		}
	}
	enc := appendReport(nil, fuzzSeedReports()[3])
	if _, err := decodeReport(append(append([]byte{}, enc...), 0xAA)); err == nil {
		t.Fatal("trailing byte accepted by decodeReport")
	}
	if _, err := decodePhase(make([]byte, 8*phaseReportWords+1)); err == nil {
		t.Fatal("trailing byte accepted by decodePhase")
	}
	if _, err := decodePhase(make([]byte, 8)); err == nil {
		t.Fatal("truncated phase report accepted")
	}
	p := RankStats{RecvWait: 42, Total: 7}
	rt, err := decodePhase(encodePhase(p))
	if err != nil || rt != p {
		t.Fatalf("phase round-trip: %+v, %v", rt, err)
	}
}
