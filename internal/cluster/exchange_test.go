package cluster

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"pace/internal/align"
	"pace/internal/mp"
	"pace/internal/pairgen"
	"pace/internal/seq"
	"pace/internal/suffix"
	"pace/internal/unionfind"
)

// sameForest fails unless the two forests hold the same buckets with the same
// nodes, element for element.
func sameForest(t *testing.T, what string, got, want []*suffix.Tree) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d trees, want %d", what, len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Bucket != w.Bucket || len(g.Nodes) != len(w.Nodes) {
			t.Fatalf("%s: tree %d is bucket %d with %d nodes, want bucket %d with %d", what, i, g.Bucket, len(g.Nodes), w.Bucket, len(w.Nodes))
		}
		for k := range g.Nodes {
			if g.Nodes[k] != w.Nodes[k] {
				t.Fatalf("%s: bucket %d node %d = %+v, want %+v", what, g.Bucket, k, g.Nodes[k], w.Nodes[k])
			}
		}
	}
}

// TestExchangeSuffixesMatchesLocalCollection runs the real redistribution —
// prologue, sends, scatter on arrival — at 2 and 3 slaves on both transports
// and requires every slave's forest to be the one a local scan of the whole
// set collects for that slave (which internal/suffix checks node for node
// against the map-based oracle). On the real transport the slaves scatter
// concurrently, so `go test -race` watches the tables being filled.
func TestExchangeSuffixesMatchesLocalCollection(t *testing.T) {
	b := benchSet(t, 60, 5, 23)
	set, err := seq.NewSetS(b.ESTs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.Append(benchSet(t, 6, 2, 24).ESTs); err != nil {
		t.Fatal(err)
	}
	n2 := seq.StringID(set.NumStrings())
	for _, slaves := range []int{2, 3} {
		for _, mpCfg := range parallelModes(slaves + 1) {
			for _, fresh := range []seq.Gen{0, 1} {
				cfg := DefaultConfig(slaves + 1)
				cfg.MP = mpCfg
				cfg.Window, cfg.Psi = 5, 18
				cfg.FreshGen = fresh

				var mu sync.Mutex
				forests := make([][]*suffix.Tree, slaves)
				var owner []int32
				err := mp.Run(cfg.MP, func(c *mp.Comm) error {
					own, hist, err := prologue(set, cfg, c)
					if err != nil || c.Rank() == 0 {
						return err
					}
					table, err := exchangeSuffixes(set, cfg, c, own, hist)
					if err != nil {
						return err
					}
					forest, err := suffix.BuildForest(set, table, cfg.Window)
					mu.Lock()
					forests[c.Rank()-1], owner = forest, own
					mu.Unlock()
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				for me, got := range forests {
					want, err := suffix.BuildForest(set, suffix.CollectOwned(set, cfg.Window, owner, int32(me), 0, n2), cfg.Window)
					if err != nil {
						t.Fatal(err)
					}
					if len(want) == 0 {
						t.Fatalf("slave %d of %d owns nothing; the test input is too small", me, slaves)
					}
					sameForest(t, "exchanged", got, want)
				}
			}
		}
	}
}

// TestScatterSuffixesValidatesTheWire feeds hand-built suffix messages to the
// receiving side: everything that would index out of range, land in another
// slave's bucket or overfill one is an error, never a panic or a silent drop.
func TestScatterSuffixesValidatesTheWire(t *testing.T) {
	ests := make([]seq.Sequence, 2)
	for i, s := range []string{"ACGTAC", "ACGGGA"} {
		var err error
		if ests[i], err = seq.Parse(s); err != nil {
			t.Fatal(err)
		}
	}
	set, err := seq.NewSetS(ests)
	if err != nil {
		t.Fatal(err)
	}
	const w = 2
	n2 := seq.StringID(set.NumStrings())
	hist := suffix.Histogram(set, w, 0, n2)
	owner := suffix.Assign(hist, 2)
	const me = 0
	// Three buckets to aim at: the fullest of mine, one of the other slave's,
	// and one nobody owns.
	mine, theirs, empty := -1, -1, -1
	for b, o := range owner {
		switch {
		case o == me && (mine < 0 || hist[b] > hist[mine]):
			mine = b
		case o == 1 && theirs < 0:
			theirs = b
		case o < 0 && empty < 0:
			empty = b
		}
	}
	if mine < 0 || hist[mine] < 2 || theirs < 0 || empty < 0 {
		t.Fatal("the test needs a bucket of two suffixes, a bucket of slave 1 and an empty bucket")
	}
	bkt := uint32(mine)
	var whole []uint32
	for _, r := range suffix.CollectOwned(set, w, owner, me, 0, n2).Refs(mine) {
		whole = append(whole, bkt, uint32(r.SID), uint32(r.Pos))
	}
	tooMany := append(append([]uint32(nil), whole...), whole[:3]...)

	cases := []struct {
		name string
		flat []uint32
		want string // substring of the error; "" = accepted
	}{
		{"whole triples", whole, ""},
		{"empty message", nil, ""},
		{"one trailing word", whole[:4], "triples"},
		{"two trailing words", whole[:5], "triples"},
		{"bucket beyond 4^w", []uint32{uint32(suffix.NumBuckets(w)), 0, 0}, "out of range"},
		{"bucket id 2^32-1", []uint32{^uint32(0), 0, 0}, "out of range"},
		{"bucket of another slave", []uint32{uint32(theirs), 0, 0}, "belongs to slave 1"},
		{"bucket nobody owns", []uint32{uint32(empty), 0, 0}, "belongs to slave -1"},
		{"string beyond the set", []uint32{bkt, uint32(n2), 0}, "string 4 of 4"},
		{"string id 2^31", []uint32{bkt, 1 << 31, 0}, "string 2147483648"},
		{"position past the last window", []uint32{bkt, 0, 5}, "no suffix of 2 characters at 5"},
		{"position at the string's end", []uint32{bkt, 0, 6}, "no suffix"},
		{"position 2^31", []uint32{bkt, 0, 1 << 31}, "no suffix"},
		{"more than the histogram announced", tooMany, "overflows"},
	}
	for _, tc := range cases {
		table, err := suffix.NewSizedBuckets(w, hist, owner, me)
		if err != nil {
			t.Fatal(err)
		}
		err = scatterSuffixes(table, set, w, owner, me, tc.flat)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), "cluster: ")):
			t.Errorf("%s: got %v, want a cluster error containing %q", tc.name, err, tc.want)
		}
	}

	// A bucket left short of the histogram's count fails the exchange as a
	// whole: the table would otherwise hold zero-valued refs as suffixes.
	table, err := suffix.NewSizedBuckets(w, hist, owner, me)
	if err != nil {
		t.Fatal(err)
	}
	if err := scatterSuffixes(table, set, w, owner, me, whole[:3]); err != nil {
		t.Fatal(err)
	}
	if err := table.Seal(); err == nil {
		t.Error("sealing a table short of the histogram succeeded")
	}
}

// TestAlignPairsValidatesTheWire hands alignBatch the pairs a damaged work
// message decodes to: each must come back as a cluster error naming the pair,
// never as an index panic inside the rank's goroutine — with the same-cluster
// filter on, when the ids are checked before they index the union-find, and
// off.
func TestAlignPairsValidatesTheWire(t *testing.T) {
	ests := make([]seq.Sequence, 2)
	for i, s := range []string{"ACGTACGTAC", "GTACGTACGG"} {
		var err error
		if ests[i], err = seq.Parse(s); err != nil {
			t.Fatal(err)
		}
	}
	set, err := seq.NewSetS(ests)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1)
	ext, err := align.NewExtender(cfg.Scoring, cfg.Band)
	if err != nil {
		t.Fatal(err)
	}
	n2 := seq.StringID(set.NumStrings())
	good := pairgen.Pair{S1: 0, S2: 2, Pos1: 2, Pos2: 0, MatchLen: 8}

	cases := []struct {
		name string
		pair pairgen.Pair
		want string // substring of the error; "" = accepted
	}{
		{"a genuine pair", good, ""},
		{"S2 one past the set", pairgen.Pair{S1: 0, S2: n2, MatchLen: 2}, "string id out of range"},
		{"S1 one past the set", pairgen.Pair{S1: n2, S2: 0, MatchLen: 2}, "string id out of range"},
		{"S1 from a word above 2^31", pairgen.Pair{S1: -1, S2: 0, MatchLen: 2}, "string id out of range"},
		{"S2 from a word above 2^31", pairgen.Pair{S1: 0, S2: math.MinInt32, MatchLen: 2}, "string id out of range"},
		{"MatchLen 2^31-1", pairgen.Pair{S1: 0, S2: 2, Pos1: 2, Pos2: 1, MatchLen: math.MaxInt32}, "out of range"},
		{"negative Pos1", pairgen.Pair{S1: 0, S2: 2, Pos1: -3, Pos2: 0, MatchLen: 4}, "out of range"},
		{"Pos2 2^31-1", pairgen.Pair{S1: 0, S2: 2, Pos1: 0, Pos2: math.MaxInt32, MatchLen: 4}, "out of range"},
	}
	clk := func() time.Duration { return 0 }
	for _, filter := range []bool{true, false} {
		cfg.SkipSameCluster = filter
		for _, tc := range cases {
			uf := unionfind.New(set.NumESTs())
			out, n, err := alignBatch(set, ext, cfg, uf, clk, []pairgen.Pair{good, tc.pair}, nil)
			switch {
			case tc.want == "" && (err != nil || int64(len(out)) != n.processed || n.processed+n.skipped != 2 || !filter && n.skipped != 0):
				t.Errorf("filter %v, %s: %d verdicts, %+v, err %v", filter, tc.name, len(out), n, err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want) ||
				!strings.HasPrefix(err.Error(), "cluster: ") || !strings.Contains(err.Error(), fmt.Sprintf("%+v", tc.pair))):
				t.Errorf("filter %v, %s: got %v, want a cluster error naming the pair and containing %q", filter, tc.name, err, tc.want)
			}
		}
	}
}

// TestCheckReportIDsValidatesTheWire hands the master's check the ids a
// damaged report decodes to: a result's EST ids and a pair's string ids index
// the master's union-find, so each one past the set must come back as a
// cluster error naming the slave and the wire value, never as an index panic.
func TestCheckReportIDsValidatesTheWire(t *testing.T) {
	set, err := seq.NewSetS(benchSet(t, 2, 1, 9).ESTs)
	if err != nil {
		t.Fatal(err)
	}
	verdict := func(i, j seq.ESTID) report {
		return report{results: []alignResult{{estI: 0, estJ: 1, accepted: true}, {estI: i, estJ: j, accepted: true}}}
	}
	pair := func(s1, s2 seq.StringID) report {
		return report{pairs: []pairgen.Pair{{S1: 0, S2: 3, MatchLen: 20}, {S1: s1, S2: s2, MatchLen: 20}}}
	}
	cases := []struct {
		name string
		rep  report
		want string // substring of the error; "" = accepted
	}{
		{"genuine verdicts and pairs", report{results: verdict(1, 0).results, pairs: pair(2, 1).pairs}, ""},
		{"empty report", report{}, ""},
		{"EST one past the set", verdict(0, 2), "verdict on EST 2 of 2"},
		{"EST from the word 2^31", verdict(math.MinInt32, 1), "verdict on EST 2147483648 of 2"},
		{"EST from the word 2^32-1", verdict(1, -1), "verdict on EST 4294967295 of 2"},
		{"string one past the set", pair(4, 0), "pair on string 4 of 4"},
		{"string from the word 2^31", pair(1, math.MinInt32), "pair on string 2147483648 of 4"},
	}
	for _, tc := range cases {
		err := checkReportIDs(3, tc.rep, set)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), "cluster: slave 3 reported a ") || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want a cluster error naming slave 3 and containing %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckEdgeIDsValidatesTheWire hands the slave's check the spanning edges
// a damaged work message decodes to: each end indexes the slave's replica, so
// one past the set must come back as a cluster error naming the wire value.
func TestCheckEdgeIDsValidatesTheWire(t *testing.T) {
	set, err := seq.NewSetS(benchSet(t, 2, 1, 9).ESTs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		edges [][2]int32
		want  string // the error; "" = accepted
	}{
		{"a genuine edge", [][2]int32{{0, 1}}, ""},
		{"no edges", nil, ""},
		{"EST one past the set", [][2]int32{{0, 1}, {2, 0}}, "cluster: master sent an edge on EST 2 of 2"},
		{"EST from the word 2^31", [][2]int32{{1, math.MinInt32}}, "cluster: master sent an edge on EST 2147483648 of 2"},
		{"EST from the word 2^32-1", [][2]int32{{-1, 0}}, "cluster: master sent an edge on EST 4294967295 of 2"},
	} {
		err := checkEdgeIDs(tc.edges, set)
		if (tc.want == "" && err != nil) || (tc.want != "" && (err == nil || err.Error() != tc.want)) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestMasterRefusesOutOfRangeReport runs the real master against a
// hand-rolled slave on the simulated transport: the slave takes part in the
// prologue, then sends a first report naming an EST or a string the set does
// not have. The run must fail with the master's cluster error.
func TestMasterRefusesOutOfRangeReport(t *testing.T) {
	b := benchSet(t, 20, 2, 25)
	set, err := seq.NewSetS(b.ESTs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(2)
	cfg.Window, cfg.Psi = 6, 18
	cfg.MP = mp.DefaultSimConfig(2)
	for _, tc := range []struct {
		rep  report
		want string
	}{
		{report{results: []alignResult{{estI: 0, estJ: 20, accepted: true}}}, "cluster: slave 1 reported a verdict on EST 20 of 20"},
		{report{pairs: []pairgen.Pair{{S1: math.MinInt32, S2: 1, MatchLen: 20}}}, "cluster: slave 1 reported a pair on string 2147483648 of 40"},
	} {
		err := mp.Run(cfg.MP, func(c *mp.Comm) error {
			if c.Rank() == 0 {
				_, err := runMaster(set, cfg, c)
				return err
			}
			if _, _, err := prologue(set, cfg, c); err != nil {
				return err
			}
			return c.Send(0, tagReport, appendReport(nil, tc.rep))
		})
		if err == nil || err.Error() != tc.want {
			t.Errorf("run error %v, want %q", err, tc.want)
		}
	}
}
