package cluster

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"pace/internal/align"
	"pace/internal/mp"
	"pace/internal/pairgen"
	"pace/internal/seq"
	"pace/internal/unionfind"
)

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
