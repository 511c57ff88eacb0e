package main

import (
	"runtime"
	"time"

	"pace"
	"pace/internal/align"
	"pace/internal/pairgen"
	"pace/internal/seq"
	"pace/internal/suffix"
	"pace/internal/unionfind"
)

// ufOp is one union-find call the shadow pipeline made, kept so that the
// sequence can be replayed and timed as one block: a single Same is too
// short to time where it happens.
type ufOp struct {
	a, b  int32
	union bool
}

// shadowOut is what one pass of the shadow pipeline saw.
type shadowOut struct {
	Labels []int
	// Wall excludes the benchmark's own forced collections and counter
	// reads, which run at the same places with tracing on and off.
	Wall time.Duration

	Suffixes      int64
	Forest        suffix.TreeStats
	ForestLive    int64 // live-heap growth across BuildForest, bytes
	SuffixMallocs uint64
	PairMallocs   uint64

	Generated, Skipped, Aligned, Accepted, Merges int64

	ops []ufOp // recorded only with a recorder
}

// shadow is the sequential engine re-enacted from outside: it makes the
// public calls cluster.runSequential makes, in the same order, so that each
// layer can be timed at its boundary without touching the engine. It must
// produce pace.Cluster's partition. With rec nil it reads no clock inside
// the loop and records nothing.
func shadow(ests []string, opt pace.Options, rec *recorder) (*shadowOut, error) {
	out := &shadowOut{}
	var paused time.Duration
	var ms runtime.MemStats
	// aside runs benchmark bookkeeping off the shadow pipeline's clock.
	aside := func(root int, fn func()) {
		t := time.Now()
		id := rec.begin("bench.bookkeeping", "bench", root)
		fn()
		rec.end(id)
		paused += time.Since(t)
	}
	mallocs := func(root int) (n uint64) {
		aside(root, func() {
			runtime.ReadMemStats(&ms)
			n = ms.Mallocs
		})
		return n
	}
	liveHeap := func(root int) (n uint64) {
		aside(root, func() {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			n = ms.HeapAlloc
		})
		return n
	}

	t0 := time.Now()
	root := rec.begin("cluster.shadow", "cluster", -1)

	id := rec.begin("seq.parse", "seq", root)
	parsed := make([]seq.Sequence, len(ests))
	for i, e := range ests {
		s, err := seq.Parse(e)
		if err != nil {
			return nil, err
		}
		parsed[i] = s
	}
	set, err := seq.NewSetS(parsed)
	if err != nil {
		return nil, err
	}
	rec.end(id)

	w := opt.Window
	n2 := seq.StringID(set.NumStrings())
	m0 := mallocs(root)
	id = rec.begin("suffix.partition", "suffix", root)
	hist := suffix.Histogram(set, w, 0, n2)
	owner := suffix.Assign(hist, 1)
	byBucket := suffix.CollectOwned(set, w, owner, 0, 0, n2)
	rec.end(id)

	h0 := liveHeap(root)
	id = rec.begin("suffix.build", "suffix", root)
	forest, err := suffix.BuildForest(set, byBucket, w)
	if err != nil {
		return nil, err
	}
	rec.end(id)
	m1 := mallocs(root)
	out.SuffixMallocs = m1 - m0
	out.ForestLive = int64(liveHeap(root)) - int64(h0)
	aside(root, func() {
		out.Forest = suffix.Stats(forest)
		for _, h := range hist {
			out.Suffixes += h
		}
	})

	m0 = mallocs(root)
	id = rec.begin("pairgen.setup", "pairgen", root)
	gen, err := pairgen.New(set, forest, opt.MinMatch)
	if err != nil {
		return nil, err
	}
	rec.end(id)

	scoring := align.Scoring{
		Match: int32(opt.Match), Mismatch: int32(opt.Mismatch),
		GapOpen: int32(opt.GapOpen), GapExtend: int32(opt.GapExtend),
	}
	criteria := align.Criteria{
		MinScoreRatio: opt.MinScoreRatio, MinIdentity: opt.MinIdentity, MinOverlap: int32(opt.MinOverlap),
	}
	ext, err := align.NewExtender(scoring, opt.Band)
	if err != nil {
		return nil, err
	}
	uf := unionfind.New(set.NumESTs())
	if rec != nil {
		out.ops = make([]ufOp, 0, 1<<20)
	}
	buf := make([]pairgen.Pair, 0, opt.BatchSize)
	for {
		id = rec.begin("pairgen.next", "pairgen", root)
		buf = gen.Next(buf[:0], opt.BatchSize)
		rec.end(id)
		if len(buf) == 0 {
			break
		}
		for _, p := range buf {
			i, j := p.ESTs()
			if rec != nil {
				out.ops = append(out.ops, ufOp{a: int32(i), b: int32(j)})
			}
			if uf.Same(int32(i), int32(j)) {
				out.Skipped++
				continue
			}
			id = rec.begin("align.extend", "align", root)
			r, err := ext.Extend(set.Str(p.S1), set.Str(p.S2), p.Pos1, p.Pos2, p.MatchLen)
			rec.end(id)
			if err != nil {
				return nil, err
			}
			out.Aligned++
			if r.Accept(scoring, criteria) {
				out.Accepted++
				if rec != nil {
					out.ops = append(out.ops, ufOp{a: int32(i), b: int32(j), union: true})
				}
				if uf.Union(int32(i), int32(j)) {
					out.Merges++
				}
			}
		}
	}
	// Inside the loop only Next allocates: Extend and the union-find do not,
	// and the recorder and the op log are preallocated.
	out.PairMallocs = mallocs(root) - m0
	out.Generated = gen.Stats().Generated

	l32 := uf.Labels()
	out.Labels = make([]int, len(l32))
	for i, l := range l32 {
		out.Labels[i] = int(l)
	}
	rec.end(root)
	out.Wall = time.Since(t0) - paused
	return out, nil
}

// replayUnionFind repeats a recorded Same/Union sequence on a fresh
// structure and returns how long the whole block took.
func replayUnionFind(n int, ops []ufOp) time.Duration {
	uf := unionfind.New(n)
	t := time.Now()
	for _, op := range ops {
		if op.union {
			uf.Union(op.a, op.b)
		} else {
			uf.Same(op.a, op.b)
		}
	}
	return time.Since(t)
}
