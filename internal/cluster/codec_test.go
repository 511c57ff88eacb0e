package cluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"pace/internal/pairgen"
	"pace/internal/seq"
)

func TestReportRoundTrip(t *testing.T) {
	rep := report{
		results: []alignResult{
			{estI: 1, estJ: 9, accepted: true},
			{estI: 3, estJ: 4, accepted: false},
		},
		pairs: []pairgen.Pair{
			{S1: seq.Forward(0), S2: seq.Forward(7).Mate(), Pos1: 12, Pos2: 0, MatchLen: 31},
		},
		passive:     true,
		hasNextWork: false,
	}
	got, err := decodeReport(appendReport(nil, rep))
	if err != nil {
		t.Fatal(err)
	}
	if got.passive != rep.passive || got.hasNextWork != rep.hasNextWork {
		t.Errorf("flags: %+v", got)
	}
	if len(got.results) != 2 || got.results[0] != rep.results[0] || got.results[1] != rep.results[1] {
		t.Errorf("results: %+v", got.results)
	}
	if len(got.pairs) != 1 || got.pairs[0] != rep.pairs[0] {
		t.Errorf("pairs: %+v", got.pairs)
	}
}

func TestReportRoundTripEmpty(t *testing.T) {
	got, err := decodeReport(appendReport(nil, report{hasNextWork: true}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.results) != 0 || len(got.pairs) != 0 || !got.hasNextWork || got.passive {
		t.Errorf("empty report: %+v", got)
	}
}

func TestWorkRoundTrip(t *testing.T) {
	w := work{
		pairs: []pairgen.Pair{
			{S1: seq.Forward(2), S2: seq.Forward(5), Pos1: 1, Pos2: 2, MatchLen: 25},
			{S1: seq.Forward(0), S2: seq.Forward(1).Mate(), Pos1: 0, Pos2: 9, MatchLen: 20},
		},
		e: 44,
	}
	got, err := decodeWork(appendWork(nil, w))
	if err != nil {
		t.Fatal(err)
	}
	if got.e != 44 || got.stop || len(got.pairs) != 2 {
		t.Fatalf("work: %+v", got)
	}
	for i := range w.pairs {
		if got.pairs[i] != w.pairs[i] {
			t.Errorf("pair %d: %+v", i, got.pairs[i])
		}
	}
	stop, err := decodeWork(appendWork(nil, work{stop: true}))
	if err != nil {
		t.Fatal(err)
	}
	if !stop.stop {
		t.Error("stop flag lost")
	}
}

func TestReportAckWorkRoundTrip(t *testing.T) {
	got, err := decodeReport(appendReport(nil, report{ackWork: true}))
	if err != nil {
		t.Fatal(err)
	}
	if !got.ackWork || got.passive || got.hasNextWork {
		t.Errorf("ackWork report: %+v", got)
	}
	got, err = decodeReport(appendReport(nil, report{passive: true}))
	if err != nil {
		t.Fatal(err)
	}
	if got.ackWork {
		t.Error("ackWork fabricated")
	}
}

func TestWorkRecoverShardsRoundTrip(t *testing.T) {
	w := work{
		e: 7,
		recover: []shard{
			{part: 0, idx: 0, of: 1},
			{part: 3, idx: 2, of: 6},
		},
	}
	got, err := decodeWork(appendWork(nil, w))
	if err != nil {
		t.Fatal(err)
	}
	if got.e != 7 || len(got.recover) != 2 {
		t.Fatalf("work: %+v", got)
	}
	for i := range w.recover {
		if got.recover[i] != w.recover[i] {
			t.Errorf("shard %d: %+v", i, got.recover[i])
		}
	}
	// Shards and pairs coexist on the wire.
	w.pairs = []pairgen.Pair{{S1: seq.Forward(2), S2: seq.Forward(5), MatchLen: 25}}
	got, err = decodeWork(appendWork(nil, w))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.pairs) != 1 || len(got.recover) != 2 {
		t.Errorf("mixed work: %+v", got)
	}
	// No shards → no flag, no trailing bytes.
	got, err = decodeWork(appendWork(nil, work{e: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if got.recover != nil {
		t.Errorf("shards fabricated: %+v", got)
	}
}

func TestWorkEdgesRoundTrip(t *testing.T) {
	edges := [][2]int32{{0, 5}, {7, 2}, {-1, 3}} // -1: a word of 2³²-1, for checkEdgeIDs
	for _, w := range []work{
		{edges: edges},
		{e: 3, pairs: []pairgen.Pair{{S1: seq.Forward(2), S2: seq.Forward(5), MatchLen: 25}}, edges: edges},
		{e: 1, recover: []shard{{part: 1, idx: 0, of: 2}}, edges: edges[:1]},
	} {
		enc := appendWork(nil, w)
		if binary.LittleEndian.Uint32(enc)&4 == 0 {
			t.Errorf("%+v: edge flag not set", w)
		}
		got, err := decodeWork(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("work: got %+v, want %+v", got, w)
		}
	}
	// No edges → no flag, no section.
	enc := appendWork(nil, work{e: 1})
	if binary.LittleEndian.Uint32(enc)&4 != 0 || len(enc) != 12 {
		t.Errorf("edgeless work encodes the edge section: %x", enc)
	}
}

func TestDecodeRejectsMalformedEdges(t *testing.T) {
	head := func(flags uint32) []byte {
		b := binary.LittleEndian.AppendUint32(nil, flags)
		b = binary.LittleEndian.AppendUint32(b, 0)    // e
		return binary.LittleEndian.AppendUint32(b, 0) // no pairs
	}
	valid := appendWork(nil, work{edges: [][2]int32{{1, 2}}})
	for _, tc := range []struct {
		name string
		b    []byte
		want string
	}{
		{"flag set, zero edges", binary.LittleEndian.AppendUint32(head(4), 0), "zero edges"},
		{"count past the message", append(binary.LittleEndian.AppendUint32(head(4), 1<<20), make([]byte, 16)...), "exceeds message size"},
		{"count one past the words", binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(head(4), 2), 1), 2), "truncated"},
		{"edge cut short", valid[:len(valid)-2], "truncated"},
		{"trailing bytes", append(append([]byte{}, valid...), 0, 0, 0, 0), "trailing bytes"},
		{"section without the flag", binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(head(0), 1), 1), 2), "trailing bytes"},
	} {
		_, err := decodeWork(tc.b)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	if _, err := decodeWork(valid); err != nil {
		t.Errorf("valid edge section refused: %v", err)
	}
}

func TestDecodeRejectsMalformedShard(t *testing.T) {
	for _, bad := range []shard{
		{part: 1, idx: 0, of: 0},  // of < 1
		{part: 1, idx: 3, of: 3},  // idx >= of
		{part: 1, idx: -1, of: 2}, // idx < 0
	} {
		b := binary.LittleEndian.AppendUint32(nil, 2) // flags: recover present
		b = binary.LittleEndian.AppendUint32(b, 0)    // e
		b = binary.LittleEndian.AppendUint32(b, 0)    // no pairs
		b = binary.LittleEndian.AppendUint32(b, 1)    // one shard
		b = binary.LittleEndian.AppendUint32(b, uint32(bad.part))
		b = binary.LittleEndian.AppendUint32(b, uint32(bad.idx))
		b = binary.LittleEndian.AppendUint32(b, uint32(bad.of))
		if _, err := decodeWork(b); err == nil {
			t.Errorf("malformed shard %+v accepted", bad)
		}
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	b := appendReport(nil, report{results: []alignResult{{estI: 1, estJ: 2}}})
	if _, err := decodeReport(b[:len(b)-2]); err == nil {
		t.Error("truncated report accepted")
	}
	wb := appendWork(nil, work{pairs: []pairgen.Pair{{MatchLen: 3}}})
	if _, err := decodeWork(wb[:5]); err == nil {
		t.Error("truncated work accepted")
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	b := append(appendWork(nil, work{e: 1}), 0xFF)
	if _, err := decodeWork(b); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestDecodeRejectsAbsurdCounts(t *testing.T) {
	// A corrupt count field must not cause a huge allocation.
	b := appendReport(nil, report{})
	b[4] = 0xFF
	b[5] = 0xFF
	b[6] = 0xFF
	b[7] = 0x7F
	if _, err := decodeReport(b); err == nil {
		t.Error("absurd result count accepted")
	}
}

func TestPhaseRoundTrip(t *testing.T) {
	p := RankStats{
		Partition: 1, Construct: 2, Sort: 3, Align: 4, Total: 5,
		PairsGenerated: 6, PairsProcessed: 7, PairsAccepted: 8, PairsSkipped: 9,
	}
	got, err := decodePhase(encodePhase(p))
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Errorf("phase: %+v", got)
	}
	if _, err := decodePhase(make([]byte, 10)); err == nil {
		t.Error("short phase report accepted")
	}
}

// TestPhaseReportLayout pins a rank's final report to its wire layout: every
// RankStats field but Rank and Role is exactly one word, at the position
// listed below, and encodePhase gives decodePhase's input back byte for
// byte. A field added to RankStats without a word, two fields sharing one,
// or a reordering of the words fails here.
func TestPhaseReportLayout(t *testing.T) {
	wire := [phaseReportWords]string{
		"Partition", "Construct", "Sort", "Align", "Total",
		"PairsGenerated", "PairsProcessed", "PairsAccepted", "StaleSuppressed", "PairsSkipped",
		"MsgsSent", "BytesSent", "MsgsRecv", "BytesRecv",
		"RecvWait",
	}
	b := make([]byte, 8*phaseReportWords)
	for i := 0; i < phaseReportWords; i++ {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(i+1))
	}
	rs, err := decodePhase(b)
	if err != nil {
		t.Fatal(err)
	}
	v := reflect.ValueOf(rs)
	carried := 0
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if name == "Rank" || name == "Role" {
			continue
		}
		carried++
		w := v.Field(i).Int() - 1
		if w < 0 || w >= phaseReportWords || wire[w] != name {
			t.Errorf("field %s decodes word %d, want word %d", name, w, slices.Index(wire[:], name))
		}
	}
	if carried != phaseReportWords {
		t.Errorf("RankStats carries %d fields on the wire, phaseReportWords is %d", carried, phaseReportWords)
	}
	if !bytes.Equal(encodePhase(rs), b) {
		t.Error("encodePhase does not give decodePhase's input back")
	}
}

// A grant word of 2³¹ or more would decode to a negative E, and the slave
// would slice PAIRBUF with it; decodeWork refuses it as it refuses a
// malformed shard.
func TestDecodeRejectsNegativeGrant(t *testing.T) {
	for _, word := range []uint32{1 << 31, math.MaxUint32} {
		b := appendWork(nil, work{e: 1})
		binary.LittleEndian.PutUint32(b[4:], word)
		if _, err := decodeWork(b); err == nil || !strings.Contains(err.Error(), "grant") {
			t.Errorf("grant word %#x: error %v, want a grant error", word, err)
		}
	}
	w, err := decodeWork(appendWork(nil, work{e: math.MaxInt32}))
	if err != nil || w.e != math.MaxInt32 {
		t.Errorf("largest grant: %+v, %v", w, err)
	}
}

// Property: any report round-trips exactly (testing/quick drives the field
// values; sizes are folded into small ranges to keep messages bounded).
func TestReportRoundTripQuick(t *testing.T) {
	f := func(resRaw []uint32, pairRaw []uint32, passive, hasNext bool) bool {
		rep := report{passive: passive, hasNextWork: hasNext}
		for i := 0; i+1 < len(resRaw) && i < 40; i += 2 {
			rep.results = append(rep.results, alignResult{
				estI:     seq.ESTID(resRaw[i] % (1 << 30)),
				estJ:     seq.ESTID(resRaw[i+1] % (1 << 30)),
				accepted: resRaw[i]%2 == 0,
			})
		}
		for i := 0; i+4 < len(pairRaw) && i < 50; i += 5 {
			rep.pairs = append(rep.pairs, pairgen.Pair{
				S1:       seq.StringID(pairRaw[i] % (1 << 30)),
				S2:       seq.StringID(pairRaw[i+1] % (1 << 30)),
				Pos1:     int32(pairRaw[i+2] % (1 << 20)),
				Pos2:     int32(pairRaw[i+3] % (1 << 20)),
				MatchLen: int32(pairRaw[i+4] % (1 << 12)),
			})
		}
		got, err := decodeReport(appendReport(nil, rep))
		if err != nil {
			return false
		}
		if got.passive != rep.passive || got.hasNextWork != rep.hasNextWork ||
			len(got.results) != len(rep.results) || len(got.pairs) != len(rep.pairs) {
			return false
		}
		for i := range rep.results {
			if got.results[i] != rep.results[i] {
				return false
			}
		}
		for i := range rep.pairs {
			if got.pairs[i] != rep.pairs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: decoding arbitrary bytes never panics and never fabricates a
// huge allocation; it either errors or returns a bounded report.
func TestDecodeArbitraryBytesSafe(t *testing.T) {
	f := func(data []byte) bool {
		rep, err := decodeReport(data)
		if err == nil && (len(rep.results) > len(data) || len(rep.pairs) > len(data)) {
			return false
		}
		w, err := decodeWork(data)
		if err == nil && len(w.pairs) > len(data) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The append-form encoders are meant to share one scratch buffer across
// messages (the hot-path pattern in the engine). Re-encoding into the same
// buffer must produce exactly the same bytes as a fresh encode, for every
// message kind, regardless of what the buffer held before.
func TestAppendEncodersReuseBuffer(t *testing.T) {
	rep := report{
		results: []alignResult{{estI: 2, estJ: 7, accepted: true}},
		pairs:   []pairgen.Pair{{S1: seq.Forward(1), S2: seq.Forward(3).Mate(), Pos1: 4, Pos2: 5, MatchLen: 22}},
		passive: true,
	}
	w := work{pairs: rep.pairs, e: 17}

	var scratch []byte
	check := func(kind string, fresh []byte) {
		scratch = scratch[:0]
		switch kind {
		case "report":
			scratch = appendReport(scratch, rep)
		case "work":
			scratch = appendWork(scratch, w)
		}
		if string(scratch) != string(fresh) {
			t.Errorf("%s: reused-buffer encode differs from fresh encode", kind)
		}
	}
	// Interleave the kinds so each reuse starts from a differently-sized,
	// differently-filled buffer.
	for i := 0; i < 3; i++ {
		check("report", appendReport(nil, rep))
		check("work", appendWork(nil, w))
	}

	// And the reused bytes still decode to the original messages.
	scratch = appendReport(scratch[:0], rep)
	gotRep, err := decodeReport(scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !gotRep.passive || len(gotRep.results) != 1 || gotRep.results[0] != rep.results[0] {
		t.Errorf("report corrupted by reuse: %+v", gotRep)
	}
	scratch = appendWork(scratch[:0], w)
	gotW, err := decodeWork(scratch)
	if err != nil {
		t.Fatal(err)
	}
	if gotW.e != 17 || len(gotW.pairs) != 1 || gotW.pairs[0] != w.pairs[0] {
		t.Errorf("work corrupted by reuse: %+v", gotW)
	}
}

// Flag bits above ackWork are unknown, bit 8 included: it once marked a merge
// delta and is rejected like any other, never read as a per-pair report.
func TestDecodeRejectsUnknownReportFlags(t *testing.T) {
	valid := appendReport(nil, report{results: []alignResult{{estI: 1, estJ: 2, accepted: true}}, passive: true, hasNextWork: true, ackWork: true})
	if _, err := decodeReport(valid); err != nil {
		t.Fatalf("all three known flags: %v", err)
	}
	for _, bit := range []uint32{8, 16, 1 << 31} {
		b := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(b, binary.LittleEndian.Uint32(b)|bit)
		_, err := decodeReport(b)
		if want := fmt.Sprintf("unknown report flag bits %#x", bit); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("flag bit %#x: error %v, want %q", bit, err, want)
		}
	}
}
