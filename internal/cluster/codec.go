package cluster

import (
	"encoding/binary"
	"fmt"
	"math"

	"pace/internal/pairgen"
	"pace/internal/seq"
)

// Wire protocol between master and slaves. Messages are packed with a small
// hand-rolled little-endian codec: the paper's implementation moves flat C
// structs over MPI, and flat buffers keep the simulated byte counts honest.

// Message tags, 1–3 and distinct by construction. mp's allreduce tags
// live at 1<<28, so they never collide with these. Slaves send nothing to
// each other.
const (
	tagReport = iota + 1 // slave → master: results + fresh pairs + status
	tagWork              // master → slave: work batch + pair request (or stop)
	tagPhase             // rank → master: final phase/timing report (point-to-point
	// rather than a collective, so the master can skip dead ranks)
)

// shard identifies a slice of the bucket space: the buckets b with
// owner[b] == part && b ≡ idx (mod of). A slave's initial generator covers
// shard{part: rank-1, idx: 0, of: 1}; when a slave dies its shards are
// subdivided among the k survivors as (part, idx+of·j, of·k), which
// partitions exactly the dead shard's buckets without renumbering owners.
type shard struct {
	part, idx, of int32
}

// All encoders come in append form (appendX) so hot paths can reuse one
// scratch buffer across sends — safe because the mp layer copies on send.

// alignResult is a slave's verdict on one dispatched or self-generated pair.
type alignResult struct {
	estI, estJ seq.ESTID
	accepted   bool
}

// report is the slave → master message: R results and P pairs plus status
// flags (paper §3.3).
type report struct {
	results []alignResult
	pairs   []pairgen.Pair
	// passive: the slave's generator is exhausted and its PAIRBUF empty.
	passive bool
	// hasNextWork: the slave still holds a NEXTWORK batch whose results
	// will arrive with the following report.
	hasNextWork bool
	// ackWork: the results in this report answer the oldest master-
	// dispatched batch (as opposed to a self-generated bootstrap batch).
	// The master uses the flag to retire that batch from the slave's
	// in-flight FIFO; batches still in the FIFO when a slave dies are
	// requeued to survivors.
	ackWork bool
}

// work is the master → slave message: W pairs to align and the number E of
// fresh pairs to include in the next report. stop ends the slave loop.
// recover carries bucket shards of a dead slave the recipient must rebuild
// and regenerate pairs from. edges are the (i, j) EST pairs whose union
// joined two master clusters since the recipient's previous work message;
// the slave unions them into its replica union-find.
type work struct {
	pairs   []pairgen.Pair
	e       int32
	stop    bool
	recover []shard
	edges   [][2]int32
}

func appendPair(b []byte, p pairgen.Pair) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(p.S1))
	b = binary.LittleEndian.AppendUint32(b, uint32(p.S2))
	b = binary.LittleEndian.AppendUint32(b, uint32(p.Pos1))
	b = binary.LittleEndian.AppendUint32(b, uint32(p.Pos2))
	return binary.LittleEndian.AppendUint32(b, uint32(p.MatchLen))
}

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.b) {
		r.err = fmt.Errorf("cluster: truncated message at offset %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) pair() pairgen.Pair {
	return pairgen.Pair{
		S1:       seq.StringID(r.u32()),
		S2:       seq.StringID(r.u32()),
		Pos1:     int32(r.u32()),
		Pos2:     int32(r.u32()),
		MatchLen: int32(r.u32()),
	}
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("cluster: %d trailing bytes at offset %d", len(r.b)-r.off, r.off)
	}
	return nil
}

func appendReport(b []byte, rep report) []byte {
	var flags uint32
	if rep.passive {
		flags |= 1
	}
	if rep.hasNextWork {
		flags |= 2
	}
	if rep.ackWork {
		flags |= 4
	}
	b = binary.LittleEndian.AppendUint32(b, flags)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rep.results)))
	for _, res := range rep.results {
		b = binary.LittleEndian.AppendUint32(b, uint32(res.estI))
		b = binary.LittleEndian.AppendUint32(b, uint32(res.estJ))
		acc := uint32(0)
		if res.accepted {
			acc = 1
		}
		b = binary.LittleEndian.AppendUint32(b, acc)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rep.pairs)))
	for _, p := range rep.pairs {
		b = appendPair(b, p)
	}
	return b
}

func decodeReport(b []byte) (report, error) {
	r := reader{b: b}
	flags := r.u32()
	if r.err == nil && flags&^7 != 0 {
		return report{}, fmt.Errorf("cluster: unknown report flag bits %#x", flags&^7)
	}
	rep := report{passive: flags&1 != 0, hasNextWork: flags&2 != 0, ackWork: flags&4 != 0}
	nRes := r.u32()
	if r.err == nil && int(nRes) > len(b)/12 {
		return report{}, fmt.Errorf("cluster: result count %d exceeds message size", nRes)
	}
	for i := uint32(0); i < nRes && r.err == nil; i++ {
		res := alignResult{estI: seq.ESTID(r.u32()), estJ: seq.ESTID(r.u32())}
		acc := r.u32()
		if r.err == nil && acc > 1 {
			return report{}, fmt.Errorf("cluster: result %d has non-boolean accepted value %d at offset %d", i, acc, r.off-4)
		}
		res.accepted = acc == 1
		rep.results = append(rep.results, res)
	}
	nPairs := r.u32()
	if r.err == nil && int(nPairs) > len(b)/20 {
		return report{}, fmt.Errorf("cluster: pair count %d exceeds message size", nPairs)
	}
	for i := uint32(0); i < nPairs && r.err == nil; i++ {
		rep.pairs = append(rep.pairs, r.pair())
	}
	if err := r.done(); err != nil {
		return report{}, err
	}
	return rep, nil
}

func appendWork(b []byte, w work) []byte {
	var flags uint32
	if w.stop {
		flags |= 1
	}
	if len(w.recover) > 0 {
		flags |= 2
	}
	if len(w.edges) > 0 {
		flags |= 4
	}
	b = binary.LittleEndian.AppendUint32(b, flags)
	b = binary.LittleEndian.AppendUint32(b, uint32(w.e))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(w.pairs)))
	for _, p := range w.pairs {
		b = appendPair(b, p)
	}
	if len(w.recover) > 0 {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(w.recover)))
		for _, sh := range w.recover {
			b = binary.LittleEndian.AppendUint32(b, uint32(sh.part))
			b = binary.LittleEndian.AppendUint32(b, uint32(sh.idx))
			b = binary.LittleEndian.AppendUint32(b, uint32(sh.of))
		}
	}
	if len(w.edges) > 0 {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(w.edges)))
		for _, e := range w.edges {
			b = binary.LittleEndian.AppendUint32(b, uint32(e[0]))
			b = binary.LittleEndian.AppendUint32(b, uint32(e[1]))
		}
	}
	return b
}

func decodeWork(b []byte) (work, error) {
	r := reader{b: b}
	flags := r.u32()
	if r.err == nil && flags&^7 != 0 {
		return work{}, fmt.Errorf("cluster: unknown work flag bits %#x", flags&^7)
	}
	e := r.u32()
	if r.err == nil && e > math.MaxInt32 {
		// A word of 2³¹ or more would become a negative grant.
		return work{}, fmt.Errorf("cluster: grant %d at offset %d exceeds 2^31-1", e, r.off-4)
	}
	w := work{stop: flags&1 != 0, e: int32(e)}
	nPairs := r.u32()
	if r.err == nil && int(nPairs) > len(b)/20 {
		return work{}, fmt.Errorf("cluster: pair count %d exceeds message size", nPairs)
	}
	for i := uint32(0); i < nPairs && r.err == nil; i++ {
		w.pairs = append(w.pairs, r.pair())
	}
	if flags&2 != 0 {
		nSh := r.u32()
		if r.err == nil && nSh == 0 {
			return work{}, fmt.Errorf("cluster: recover flag set but zero shards")
		}
		if r.err == nil && int(nSh) > len(b)/12 {
			return work{}, fmt.Errorf("cluster: shard count %d exceeds message size", nSh)
		}
		for i := uint32(0); i < nSh && r.err == nil; i++ {
			sh := shard{part: int32(r.u32()), idx: int32(r.u32()), of: int32(r.u32())}
			if r.err == nil && (sh.of < 1 || sh.idx < 0 || sh.idx >= sh.of) {
				return work{}, fmt.Errorf("cluster: malformed shard %+v", sh)
			}
			w.recover = append(w.recover, sh)
		}
	}
	if flags&4 != 0 {
		nEdges := r.u32()
		if r.err == nil && nEdges == 0 {
			return work{}, fmt.Errorf("cluster: edge flag set but zero edges")
		}
		if r.err == nil && int(nEdges) > len(b)/8 {
			return work{}, fmt.Errorf("cluster: edge count %d exceeds message size", nEdges)
		}
		for i := uint32(0); i < nEdges && r.err == nil; i++ {
			w.edges = append(w.edges, [2]int32{int32(r.u32()), int32(r.u32())})
		}
	}
	if err := r.done(); err != nil {
		return work{}, err
	}
	return w, nil
}

// A rank's final report to the master is its RankStats row, sent once at
// shutdown outside the hot path: every field but Rank and Role, one
// little-endian word each, in words() order. The comm fields are a snapshot
// of the rank's mp.CommStats taken just before encoding, so the final send
// itself is not included — uniformly across ranks.

// phaseReportWords is the fixed number of int64 words on the wire.
const phaseReportWords = 15

// words lists rs's wire fields in wire order, as int64 pointers so one list
// serves the encoder and the decoder.
func (rs *RankStats) words() [phaseReportWords]*int64 {
	return [phaseReportWords]*int64{
		(*int64)(&rs.Partition), (*int64)(&rs.Construct), (*int64)(&rs.Sort), (*int64)(&rs.Align), (*int64)(&rs.Total),
		&rs.PairsGenerated, &rs.PairsProcessed, &rs.PairsAccepted, &rs.StaleSuppressed, &rs.PairsSkipped,
		&rs.MsgsSent, &rs.BytesSent, &rs.MsgsRecv, &rs.BytesRecv,
		(*int64)(&rs.RecvWait),
	}
}

func encodePhase(rs RankStats) []byte {
	b := make([]byte, 0, 8*phaseReportWords)
	for _, w := range rs.words() {
		b = binary.LittleEndian.AppendUint64(b, uint64(*w))
	}
	return b
}

// decodePhase decodes a rank's final report; the caller sets Rank and Role.
func decodePhase(b []byte) (RankStats, error) {
	const want = 8 * phaseReportWords
	if len(b) < want {
		return RankStats{}, fmt.Errorf("cluster: phase report truncated at offset %d, want %d bytes", len(b), want)
	}
	if len(b) > want {
		return RankStats{}, fmt.Errorf("cluster: phase report has %d trailing bytes at offset %d", len(b)-want, want)
	}
	var rs RankStats
	for i, w := range rs.words() {
		*w = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return rs, nil
}
