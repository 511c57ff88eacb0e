package pairgen

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pace/internal/fanout"
	"pace/internal/seq"
	"pace/internal/simulate"
	"pace/internal/suffix"
)

// diffBatches is the batch-size sweep of the differential tests: the flow-
// control extreme, a size coprime to every group, the engine default, and
// one that drains most inputs in a single call.
var diffBatches = []int{1, 7, 60, 1000}

// The input shapes of the differential tests.
const (
	shapeRandom = iota // random ESTs with planted overlaps
	shapeDup           // windows, copies and reverse complements of two short bases
	shapePolyA         // random heads with homopolymer tails, some strings all A
	shapeDeep          // simulated reads at 20x coverage of one or two genes
	numShapes
)

// diffInput derives a deterministic multi-generation EST input from a seed.
// shapeDup makes it duplicate-heavy: most ESTs are windows of (or exact
// copies of, or reverse complements of) two short bases, one of them a tandem
// repeat, so single nodes see the same string under several children and
// the dedup path carries real weight. shapePolyA gives most ESTs a run of A
// longer than any ψ the tests use and makes some nothing else, so deep nodes
// hold long ranges of one string's suffixes, most of them dead. shapeDeep
// samples error-perturbed reads from a gene or two, so most deep nodes hold
// a single left character and are never scheduled.
func diffInput(seed int64, n int, shape uint8) [][]seq.Sequence {
	rng := rand.New(rand.NewSource(seed))
	if n < 3 {
		n = 3
	}
	ests := randomESTs(rng, n, 24, 80)
	switch shape % numShapes {
	case shapeDup:
		bases := randomESTs(rng, 2, 90, 90)
		for i := range bases[1] {
			bases[1][i] = bases[1][i%5] // tandem repeat, period 5
		}
		for i := range ests {
			b := bases[rng.Intn(2)]
			switch rng.Intn(4) {
			case 0: // exact copy of an earlier EST
				if i > 0 {
					ests[i] = ests[rng.Intn(i)].Clone()
				}
			case 1: // reverse complement of a base window
				lo := rng.Intn(40)
				ests[i] = b[lo : lo+30+rng.Intn(20)].ReverseComplement()
			default: // base window
				lo := rng.Intn(40)
				ests[i] = b[lo : lo+30+rng.Intn(20)].Clone()
			}
		}
	case shapePolyA:
		for i := range ests {
			tail := make(seq.Sequence, 20+rng.Intn(30)) // all seq.A
			switch rng.Intn(4) {
			case 0: // nothing but the tail
				ests[i] = tail
			case 1: // no tail
			default:
				ests[i] = append(ests[i][:8+rng.Intn(16)], tail...)
			}
		}
	case shapeDeep:
		cfg := simulate.DefaultConfig(n)
		cfg.MeanESTLen, cfg.SDESTLen, cfg.MinESTLen = 60, 10, 30
		cfg.ExonLen, cfg.IntronLen, cfg.ExonsPerGene = [2]int{20, 40}, [2]int{10, 20}, [2]int{3, 4}
		cfg.Seed = seed
		bm, err := simulate.Generate(cfg)
		if err != nil {
			panic(err) // the configuration above is fixed and valid
		}
		ests = bm.ESTs
	default:
		for i := 1; i < n; i += 2 { // plant overlaps so pairs exist
			cut := 8 + rng.Intn(12)
			ests[i] = append(ests[i-1][cut:].Clone(), ests[i][:cut]...)
		}
	}
	// Three generations: a first batch of at least one EST, then two more.
	a := 1 + rng.Intn(n-2)
	b := a + 1 + rng.Intn(n-a-1)
	return [][]seq.Sequence{ests[:a], ests[a:b], ests[b:]}
}

// freshForest builds the forest the incremental engine would rebuild for
// generation gen: only the buckets the generation's suffixes touch.
func freshForest(t testing.TB, set *seq.SetS, w int, gen seq.Gen) []*suffix.Tree {
	t.Helper()
	hi := seq.StringID(set.NumStrings())
	owner := suffix.AssignFresh(suffix.Histogram(set, w, 0, hi), suffix.Histogram(set, w, set.GenStartString(gen), hi), 1)
	forest, err := suffix.BuildForest(set, suffix.CollectOwned(set, w, owner, 0, 0, hi), w)
	if err != nil {
		t.Fatal(err)
	}
	return forest
}

// repeatFree reports whether no string of set holds a label of length psi
// (and so none longer) at two positions. On such input a node's lsets are
// exact mirrors of its twin's, so scheduling one twin and mirroring its
// pairs gives the oracle's pairs exactly.
func repeatFree(set *seq.SetS, psi int) bool {
	for id := 0; id < set.NumStrings(); id++ {
		s := set.Str(seq.StringID(id))
		seen := map[string]bool{}
		for p := 0; p+psi <= len(s); p++ {
			k := s[p : p+psi].String()
			if seen[k] {
				return false
			}
			seen[k] = true
		}
	}
	return true
}

// longestByStrings returns each string pair's longest MatchLen.
func longestByStrings(pairs []Pair) map[stringPair]int32 {
	out := map[stringPair]int32{}
	for _, p := range pairs {
		k := stringPair{p.S1, p.S2}
		out[k] = max(out[k], p.MatchLen)
	}
	return out
}

// requireSameAsReference drains the production generator at every batch
// size in diffBatches and both oracles over one forest, the oracles over its
// node trees. The node-array generator's pair sequence and counters must be
// the production generator's exactly, pair for pair. Against the linked-list
// oracle, where no string holds a label twice (repeatFree), it requires the
// oracle's pair multiset, positions included, and its Generated count;
// elsewhere it requires the same string pairs, each with the same longest
// MatchLen (a twin may keep another occurrence of a repeated label, so
// anchors and counts may move). Either way the sequence must not depend on
// the batch size, match lengths must not increase, Remaining must turn false
// exactly when a call comes back short, and the node and entry counts must
// equal the oracle's.
func requireSameAsReference(t testing.TB, set *seq.SetS, forest []*suffix.Tree, psi int, fresh seq.Gen) {
	t.Helper()
	nodes := nodesOf(set, forest)
	ref, err := newRefFresh(set, nodes, psi, fresh)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Next(nil, math.MaxInt)
	exact := repeatFree(set, psi)
	var first []Pair
	for _, batch := range diffBatches {
		what := fmt.Sprintf("fresh=%d batch=%d", fresh, batch)
		g, err := NewFresh(set, forest, psi, fresh)
		if err != nil {
			t.Fatal(err)
		}
		var got []Pair
		for {
			n := len(got)
			got = g.Next(got, batch)
			if short := len(got)-n < batch; g.Remaining() == short {
				t.Fatalf("%s: Remaining %v after a call that appended %d", what, g.Remaining(), len(got)-n)
			}
			if len(got) == n {
				break
			}
		}
		for i := 1; i < len(got); i++ {
			if got[i].MatchLen > got[i-1].MatchLen {
				t.Fatalf("%s: pair %d is longer than the one before", what, i)
			}
		}
		if batch == diffBatches[0] {
			first = got
			requireSameAsNodeGenerator(t, set, nodes, psi, fresh, got, g.Stats())
		} else if !slices.Equal(got, first) {
			t.Fatalf("%s: the pair sequence depends on the batch size", what)
		}
		s, r := g.Stats(), ref.Stats()
		if s.NodesProcessed != r.NodesProcessed || s.Entries != r.Entries {
			t.Fatalf("%s: stats %+v, reference %+v", what, s, r)
		}
		if exact && (s.Generated != r.Generated || s.DiscardedSelf > r.DiscardedSelf || s.DiscardedStale > r.DiscardedStale) {
			t.Fatalf("%s: repeat-free input: stats %+v, reference %+v", what, s, r)
		}
	}
	if exact {
		got, sorted := slices.Clone(first), slices.Clone(want)
		slices.SortFunc(got, comparePairs)
		slices.SortFunc(sorted, comparePairs)
		if !slices.Equal(got, sorted) {
			t.Fatalf("fresh=%d: repeat-free input: %d pairs against the reference's %d, or another multiset", fresh, len(got), len(sorted))
		}
		return
	}
	if g, r := longestByStrings(first), longestByStrings(want); !maps.Equal(g, r) {
		t.Fatalf("fresh=%d: %d string pairs with their longest matches, reference %d, or other ones", fresh, len(g), len(r))
	}
}

// requireSameAsNodeGenerator fails unless the node-array generator, drained
// over the node trees, emits got, pair for pair, and counts stats.
func requireSameAsNodeGenerator(t testing.TB, set *seq.SetS, nodes []*nodeTree, psi int, fresh seq.Gen, got []Pair, stats Stats) {
	t.Helper()
	ng, err := newNodeFresh(set, nodes, psi, fresh)
	if err != nil {
		t.Fatal(err)
	}
	want := ng.Next(nil, math.MaxInt)
	if len(got) != len(want) {
		t.Fatalf("fresh=%d: %d pairs, the node-array generator %d", fresh, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("fresh=%d: pair %d is %+v, the node-array generator's is %+v", fresh, i, got[i], want[i])
		}
	}
	if stats != ng.Stats() {
		t.Fatalf("fresh=%d: stats %+v, the node-array generator's %+v", fresh, stats, ng.Stats())
	}
}

// TestBenchShapesMatchReference runs the bench workloads' shapes at reduced
// size — 20x coverage, singletons, paralog families at 8 % divergence, all
// at w = 8 and ψ = 20 — full and fresh-only. They hold no label of length ψ
// twice in one string, so the pair multiset must be the oracle's, positions
// included.
func TestBenchShapesMatchReference(t *testing.T) {
	shapes := map[string]func(*simulate.Config){
		"deep":    func(*simulate.Config) {},
		"sparse":  func(c *simulate.Config) { c.NumGenes = c.NumESTs },
		"paralog": func(c *simulate.Config) { c.NumGenes, c.ParalogFamilies, c.ParalogDivergence = 24, 24, 0.08 },
	}
	for name, shape := range shapes {
		cfg := simulate.DefaultConfig(240)
		cfg.Seed = 1
		shape(&cfg)
		bm, err := simulate.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		set, err := seq.NewSetS(bm.ESTs[:200])
		if err != nil {
			t.Fatal(err)
		}
		gen, err := set.Append(bm.ESTs[200:])
		if err != nil {
			t.Fatal(err)
		}
		if !repeatFree(set, 20) {
			t.Fatalf("%s: a string holds a 20-base label twice; the multiset check would not run", name)
		}
		forest := buildForest(t, set, 8)
		requireSameAsReference(t, set, forest, 20, 0)
		requireSameAsReference(t, set, forest, 20, gen)
	}
}

// checkMatchesReference is the differential property: over every generation
// of the input, New on the full forest and NewFresh on the generation's
// rebuilt buckets agree with the oracle.
func checkMatchesReference(t testing.TB, seed int64, n, w, extraPsi, shape uint8) {
	t.Helper()
	window := 3 + int(w%4)
	psi := window + int(extraPsi%12)
	batches := diffInput(seed, int(n%40), shape)
	set, err := seq.NewSetS(batches[0])
	if err != nil {
		t.Fatal(err)
	}
	requireSameAsReference(t, set, buildForest(t, set, window), psi, 0)
	for _, b := range batches[1:] {
		gen, err := set.Append(b)
		if err != nil {
			t.Fatal(err)
		}
		full := buildForest(t, set, window)
		requireSameAsReference(t, set, full, psi, 0)
		requireSameAsReference(t, set, full, psi, gen)
		requireSameAsReference(t, set, freshForest(t, set, window, gen), psi, gen)
	}
}

// TestMatchesReference sweeps every input shape, and reads whose LCPs
// saturate, through the differential property: the generator must emit the
// node-array generator's pair sequence and counters exactly and agree with
// the linked-list generator as requireSameAsReference says, full and fresh
// mode.
func TestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2002))
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for i := 0; i < trials; i++ {
		checkMatchesReference(t, rng.Int63(), uint8(6+rng.Intn(30)), uint8(rng.Intn(4)), uint8(rng.Intn(12)), uint8(i%numShapes))
	}
	// Reads sharing runs past the 255 at which LCP bytes saturate: copies
	// of one 600-base read, windows of it, copies with one substitution near
	// position 255, and 300-base poly(A) tails.
	base := randomESTs(rng, 1, 600, 600)[0]
	mutated := func(at int) seq.Sequence {
		s := base.Clone()
		s[at] = (s[at] + 1) % seq.AlphabetSize
		return s
	}
	tail := make(seq.Sequence, 300) // all seq.A
	set, err := seq.NewSetS([]seq.Sequence{base, base[100:].Clone(), mutated(254), append(base[:40].Clone(), tail...)})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := set.Append([]seq.Sequence{base.Clone(), mutated(255), mutated(256), append(base[500:].Clone(), tail...), tail.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	forest := buildForest(t, set, 6)
	for _, psi := range []int{20, 256, 300} {
		requireSameAsReference(t, set, forest, psi, 0)
		requireSameAsReference(t, set, forest, psi, gen)
	}
}

type diffSeed struct {
	seed           int64
	n, w, extraPsi uint8
	shape          uint8
}

// diffSeeds is the pinned corpus of FuzzGeneratorMatchesReference.
func diffSeeds() []diffSeed {
	return []diffSeed{
		{1, 3, 0, 0, shapeRandom},  // smallest input: one EST per generation
		{2, 12, 1, 0, shapeDup},    // psi == w: every bucket root is deep
		{3, 12, 1, 11, shapeDup},   // psi far above w: shallow internal nodes above deep ones
		{4, 39, 0, 2, shapeDup},    // w = 3: few, large trees, heavy dedup
		{5, 39, 3, 4, shapeRandom}, // w = 6: many small trees
		{6, 20, 2, 6, shapeRandom}, // planted overlaps across generation boundaries
		{7, 30, 1, 1, shapeDup},    // tandem repeats: one string under many children
		{-8, 255, 255, 255, 253},   // parameter wrap-around (253 is shapeDup)
		{9, 30, 0, 11, shapePolyA}, // homopolymer tails longer than psi: long ranges of dead entries
		{10, 39, 1, 9, shapeDeep},  // 20x coverage: most deep nodes hold one left character
	}
}

// FuzzGeneratorMatchesReference explores the differential property from the
// pinned seeds. Run with `go test -fuzz FuzzGeneratorMatchesReference
// ./internal/pairgen`.
func FuzzGeneratorMatchesReference(f *testing.F) {
	for _, s := range diffSeeds() {
		f.Add(s.seed, s.n, s.w, s.extraPsi, s.shape)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, w, extraPsi, shape uint8) {
		checkMatchesReference(t, seed, n, w, extraPsi, shape)
	})
}

// TestFuzzSeedsGeneratorMatchesReference pins the seed corpus in plain
// `go test`, so the property holds on it even when the fuzz engine is never
// invoked.
func TestFuzzSeedsGeneratorMatchesReference(t *testing.T) {
	for _, s := range diffSeeds() {
		checkMatchesReference(t, s.seed, s.n, s.w, s.extraPsi, s.shape)
	}
}

// invariantForests are the inputs of the layout-invariant tests: random,
// duplicate-heavy, homopolymer and 20x-coverage, each with a last generation
// for the fresh-only mode.
func invariantForests(t *testing.T, visit func(name string, set *seq.SetS, forest []*suffix.Tree, psi int, fresh seq.Gen)) {
	t.Helper()
	for shape := uint8(0); shape < numShapes; shape++ {
		batches := diffInput(int64(100+shape), 30, shape)
		set, err := seq.NewSetS(append(batches[0], batches[1]...))
		if err != nil {
			t.Fatal(err)
		}
		gen, err := set.Append(batches[2])
		if err != nil {
			t.Fatal(err)
		}
		visit(fmt.Sprintf("shape %d", shape), set, buildForest(t, set, 4), 9, gen)
	}
	cfg := simulate.DefaultConfig(60)
	cfg.Seed = 7
	bm, err := simulate.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set, err := seq.NewSetS(bm.ESTs[:50])
	if err != nil {
		t.Fatal(err)
	}
	gen, err := set.Append(bm.ESTs[50:])
	if err != nil {
		t.Fatal(err)
	}
	visit("20x coverage", set, buildForest(t, set, 8), 20, gen)
}

// scheduledNodes maps every node g schedules to the node of its node tree:
// the internal node whose second child starts at the scheduled leaf.
func scheduledNodes(g *Generator, nodes []*nodeTree) map[treeNodeRef]nodeRef {
	out := map[treeNodeRef]nodeRef{}
	second := make([]map[int32]int32, len(nodes)) // per tree: leaf -> node
	for ti, tr := range nodes {
		before := make([]int32, tr.Len()+1) // leaves among Nodes[:k]
		for k := range tr.Nodes {
			before[k+1] = before[k]
			if tr.IsLeaf(int32(k)) {
				before[k+1]++
			}
		}
		second[ti] = map[int32]int32{}
		for v := int32(0); v < int32(tr.Len()); v++ {
			if !tr.IsLeaf(v) {
				second[ti][before[tr.NextSibling(v+1, v)]] = v
			}
		}
	}
	for _, r := range g.order {
		out[treeNodeRef{tree: r.tree, node: second[r.tree][r.at]}] = r
	}
	return out
}

// lsetLeaves computes the lsets of node v by Algorithm 1's own definition,
// bottom-up: a leaf's is itself, an internal node's the concatenation of its
// children's with every string kept once, first child first. It returns the
// surviving leaves child by child.
func lsetLeaves(tr *nodeTree, v int32) [][]int32 {
	if tr.IsLeaf(v) {
		return [][]int32{{v}}
	}
	var out [][]int32
	seen := map[seq.StringID]bool{}
	for c := tr.FirstChild(v); c != -1; c = tr.NextSibling(c, v) {
		var kept []int32
		for _, below := range lsetLeaves(tr, c) {
			for _, leaf := range below {
				if sid := tr.Nodes[leaf].SID; !seen[sid] {
					seen[sid] = true
					kept = append(kept, leaf)
				}
			}
		}
		out = append(out, kept)
	}
	return out
}

// hasProducts reports whether, under the brute-force lsets, node v has two
// entries in different children whose left characters differ or are both λ.
func hasProducts(set *seq.SetS, tr *nodeTree, v int32) bool {
	children := lsetLeaves(tr, v)
	for i, a := range children {
		for _, b := range children[i+1:] {
			for _, la := range a {
				for _, lb := range b {
					ca := leftChar(set, tr.Nodes[la].SID, tr.Nodes[la].Pos)
					cb := leftChar(set, tr.Nodes[lb].SID, tr.Nodes[lb].Pos)
					if ca != cb || ca == seq.Lambda {
						return true
					}
				}
			}
		}
	}
	return false
}

// TestUnscheduledNodesWithProductsHaveScheduledTwins is the scheduling
// rule's soundness: a deep internal node left out of order either has, under
// the brute-force lsets, no two entries in different children whose left
// characters differ or are both λ, or its label is not a palindrome and the
// node labelled with its reverse complement — its twin, whose pairs are its
// pairs mirrored — is scheduled. In fresh-only mode a node may also be left
// out because no leaf beneath it belongs to the current batch.
func TestUnscheduledNodesWithProductsHaveScheduledTwins(t *testing.T) {
	invariantForests(t, func(name string, set *seq.SetS, forest []*suffix.Tree, psi int, gen seq.Gen) {
		for _, fresh := range []seq.Gen{0, gen} {
			g, err := NewFresh(set, forest, psi, fresh)
			if err != nil {
				t.Fatal(err)
			}
			nodes := nodesOf(set, forest)
			inOrder := scheduledNodes(g, nodes)
			labels := map[string]bool{}
			for ref := range inOrder {
				labels[nodes[ref.tree].PathLabel(set, ref.node).String()] = true
			}
			if len(inOrder) != len(g.order) {
				t.Fatalf("%s fresh=%d: %d scheduled nodes name %d tree nodes", name, fresh, len(g.order), len(inOrder))
			}
			dropped, twinned := 0, 0
			for ti, tr := range nodes {
				for v := int32(0); v < int32(tr.Len()); v++ {
					if _, ok := inOrder[treeNodeRef{int32(ti), v}]; ok || tr.IsLeaf(v) || tr.Nodes[v].Depth < int32(psi) {
						continue
					}
					dropped++
					stale := true
					for leaf := v + 1; leaf <= tr.Nodes[v].RML; leaf++ {
						if tr.IsLeaf(leaf) && tr.Nodes[leaf].SID >= g.freshID {
							stale = false
						}
					}
					if fresh > 0 && stale || !hasProducts(set, tr, v) {
						continue
					}
					label := tr.PathLabel(set, v)
					rc := label.ReverseComplement()
					if label.Equal(rc) || !labels[rc.String()] {
						t.Fatalf("%s fresh=%d: tree %d node %d (%v) has products, is not scheduled, and neither is its twin", name, fresh, ti, v, label)
					}
					twinned++
				}
			}
			if dropped == 0 || twinned == 0 {
				t.Errorf("%s fresh=%d: %d deep internal nodes unscheduled, %d of them for their twin; the input exercises too little", name, fresh, dropped, twinned)
			}
		}
	})
}

// TestScheduledNodesAreBalanced holds the choice between twins to its
// purpose: setUp cuts the forest into chunks of near-equal suffix count, and
// each chunk's generator must then get a near-equal share of the scheduled
// nodes, within ±15 % of the mean at 2 and 4 workers. A choice that kept
// the smaller of L and rc(L) would give A-prefixed buckets 7/8 of their
// nodes and T-prefixed ones 1/8.
func TestScheduledNodesAreBalanced(t *testing.T) {
	set, forest := deepCoverage(t, 400)
	for _, workers := range []int{2, 4} {
		cuts := fanout.Cuts(len(forest), workers, func(i int) int { return len(forest[i].Refs()) })
		counts := make([]int, len(cuts)-1)
		total := 0
		for k := range counts {
			g, err := NewFresh(set, forest[cuts[k]:cuts[k+1]], 20, 0)
			if err != nil {
				t.Fatal(err)
			}
			counts[k] = len(g.order)
			total += counts[k]
		}
		mean := float64(total) / float64(len(counts))
		t.Logf("%d workers: scheduled nodes per chunk %v", workers, counts)
		for k, c := range counts {
			if math.Abs(float64(c)-mean) > 0.15*mean {
				t.Errorf("%d workers: chunk %d schedules %d nodes, mean %.0f (all %v)", workers, k, c, mean, counts)
			}
		}
	}
}

// TestGroupsAreLeafRangeCuts is the layout's other leg: the groups the
// generator cuts from a scheduled node's leaf range equal, item for item and
// in order, the snapshot the linked-list oracle takes at that node after
// maintaining every lset beneath it.
func TestGroupsAreLeafRangeCuts(t *testing.T) {
	invariantForests(t, func(name string, set *seq.SetS, forest []*suffix.Tree, psi int, gen seq.Gen) {
		for _, fresh := range []seq.Gen{0, gen} {
			g, err := NewFresh(set, forest, psi, fresh)
			if err != nil {
				t.Fatal(err)
			}
			nodes := nodesOf(set, forest)
			ref, err := newRefFresh(set, nodes, psi, fresh)
			if err != nil {
				t.Fatal(err)
			}
			scheduled := scheduledNodes(g, nodes)
			for _, r := range ref.order {
				ref.processNode(r) // every node, in order: the oracle's lsets are built bottom-up
				at, ok := scheduled[r]
				if !ok {
					continue
				}
				g.processNode(at)
				if !slices.Equal(g.groups, ref.groups) {
					t.Fatalf("%s fresh=%d: tree %d node %d: groups %+v, reference %+v", name, fresh, r.tree, r.node, g.groups, ref.groups)
				}
				for i, it := range g.itemsBuf {
					if want := ref.itemsBuf[i]; it.sid != want.sid || it.pos != want.pos {
						t.Fatalf("%s fresh=%d: tree %d node %d: item %d is %+v, reference %+v", name, fresh, r.tree, r.node, i, it, want)
					}
				}
			}
		}
	})
}

// chunkCounts are the chunkings the cover test cuts each forest into: the
// whole forest, two, a count that divides nothing evenly, and more chunks
// than most small forests have trees.
var chunkCounts = []int{1, 2, 3, 8}

// TestChunkCover holds the sequential engine's worker split to its contract,
// full and fresh-only: generators over the fanout.Cuts chunks of a forest
// together emit the whole forest's pairs as a multiset, each in
// non-increasing match length, and their counters sum to the whole's.
// Forests of one tree, three and none are the edges.
func TestChunkCover(t *testing.T) {
	for shape := uint8(0); shape < numShapes; shape++ {
		batches := diffInput(int64(200+shape), 12, shape)
		set, err := seq.NewSetS(append(batches[0], batches[1]...))
		if err != nil {
			t.Fatal(err)
		}
		gen, err := set.Append(batches[2])
		if err != nil {
			t.Fatal(err)
		}
		forest := buildForest(t, set, 4)
		if len(forest) < 3 {
			t.Fatalf("shape %d: %d trees", shape, len(forest))
		}
		for _, fresh := range []seq.Gen{0, gen} {
			for _, f := range [][]*suffix.Tree{forest, forest[:1], forest[:3], nil} {
				what := fmt.Sprintf("shape %d fresh=%d trees=%d", shape, fresh, len(f))
				if n := requireChunksCover(t, what, set, f, 6, fresh); n == 0 && len(f) == len(forest) {
					t.Fatalf("%s: no pairs; the cover checks nothing", what)
				}
			}
		}
	}
}

// requireChunksCover checks the cover at every count in chunkCounts and
// returns how many pairs the whole forest's generator emits.
func requireChunksCover(t *testing.T, what string, set *seq.SetS, forest []*suffix.Tree, psi int, fresh seq.Gen) int {
	t.Helper()
	whole, err := NewFresh(set, forest, psi, fresh)
	if err != nil {
		t.Fatal(err)
	}
	want := whole.Next(nil, math.MaxInt)
	slices.SortFunc(want, comparePairs)
	for _, chunks := range chunkCounts {
		cuts := fanout.Cuts(len(forest), chunks, func(i int) int { return len(forest[i].Refs()) })
		var got []Pair
		var sum Stats
		for k := 0; k+1 < len(cuts); k++ {
			g, err := NewFresh(set, forest[cuts[k]:cuts[k+1]], psi, fresh)
			if err != nil {
				t.Fatal(err)
			}
			mine := g.Next(nil, math.MaxInt)
			for i := 1; i < len(mine); i++ {
				if mine[i].MatchLen > mine[i-1].MatchLen {
					t.Fatalf("%s chunks=%d: chunk %d's pair %d is longer than the one before", what, chunks, k, i)
				}
			}
			got = append(got, mine...)
			s := g.Stats()
			sum.NodesProcessed += s.NodesProcessed
			sum.Generated += s.Generated
			sum.DiscardedSelf += s.DiscardedSelf
			sum.DiscardedStale += s.DiscardedStale
			sum.Entries += s.Entries
		}
		slices.SortFunc(got, comparePairs)
		if !slices.Equal(got, want) {
			t.Fatalf("%s chunks=%d: %d pairs against the whole forest's %d, or another multiset", what, chunks, len(got), len(want))
		}
		if sum != whole.Stats() {
			t.Fatalf("%s chunks=%d: counters sum to %+v, the whole forest's %+v", what, chunks, sum, whole.Stats())
		}
	}
	return len(want)
}

func comparePairs(a, b Pair) int {
	return cmp.Or(cmp.Compare(a.S1, b.S1), cmp.Compare(a.S2, b.S2), cmp.Compare(a.Pos1, b.Pos1),
		cmp.Compare(a.Pos2, b.Pos2), cmp.Compare(a.MatchLen, b.MatchLen))
}
