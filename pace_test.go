package pace

import (
	"bytes"
	"strings"
	"testing"
)

func testBenchmark(t testing.TB, n, genes int, seed int64) *Benchmark {
	t.Helper()
	b, err := Simulate(SimOptions{
		NumESTs:       n,
		NumGenes:      genes,
		Seed:          seed,
		MeanLength:    400,
		SDLength:      40,
		MinLength:     200,
		TranscriptLen: [2]int{450, 540},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSimulatePublic(t *testing.T) {
	b := testBenchmark(t, 100, 6, 1)
	if len(b.ESTs) != 100 || len(b.Truth) != 100 || b.NumGenes != 6 {
		t.Fatalf("benchmark shape: %d %d %d", len(b.ESTs), len(b.Truth), b.NumGenes)
	}
	for i, e := range b.ESTs {
		if len(e) == 0 {
			t.Fatalf("EST %d empty", i)
		}
		if strings.Trim(e, "ACGT") != "" {
			t.Fatalf("EST %d has non-ACGT characters", i)
		}
	}
}

func TestSimulateParalogs(t *testing.T) {
	b, err := Simulate(SimOptions{
		NumESTs: 50, NumGenes: 4, Seed: 2,
		ParalogFamilies: 2, ParalogDivergence: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.NumGenes != 6 {
		t.Fatalf("paralogs not added: %d genes", b.NumGenes)
	}
}

func TestSimulateInvalidTranscriptLen(t *testing.T) {
	if _, err := Simulate(SimOptions{NumESTs: 10, TranscriptLen: [2]int{100, 50}}); err == nil {
		t.Error("invalid range accepted")
	}
}

func TestClusterQuickstartFlow(t *testing.T) {
	b := testBenchmark(t, 120, 8, 3)
	opt := DefaultOptions()
	opt.Window = 6
	opt.MinMatch = 18
	cl, err := Cluster(b.ESTs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Labels) != 120 {
		t.Fatalf("labels: %d", len(cl.Labels))
	}
	if cl.NumClusters != len(cl.Clusters) {
		t.Fatalf("clusters slice mismatch: %d vs %d", cl.NumClusters, len(cl.Clusters))
	}
	total := 0
	for l, members := range cl.Clusters {
		for _, m := range members {
			if cl.Labels[m] != l {
				t.Fatalf("member %d not labeled %d", m, l)
			}
		}
		total += len(members)
	}
	if total != 120 {
		t.Fatalf("cluster membership covers %d ESTs", total)
	}
	q, err := Evaluate(cl.Labels, b.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if q.OQ < 0.85 {
		t.Errorf("public-API clustering quality: %v", q)
	}
	if cl.Stats.PairsGenerated == 0 || cl.Stats.Phases.Total == 0 {
		t.Errorf("stats unfilled: %+v", cl.Stats)
	}
}

func TestClusterParallelSimulated(t *testing.T) {
	b := testBenchmark(t, 80, 5, 4)
	opt := DefaultOptions()
	opt.Window = 6
	opt.MinMatch = 18
	opt.Processors = 4
	opt.Simulated = true
	cl, err := Cluster(b.ESTs, opt)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Evaluate(cl.Labels, b.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if q.OQ < 0.80 {
		t.Errorf("simulated parallel quality: %v", q)
	}
	if cl.Stats.Phases.Construct == 0 {
		t.Error("phase times missing in simulated mode")
	}
}

func TestClusterRejectsBadInput(t *testing.T) {
	opt := DefaultOptions()
	if _, err := Cluster([]string{"ACGT", "ACNT"}, opt); err == nil {
		t.Error("invalid nucleotide accepted")
	}
	if _, err := Cluster([]string{"ACGT", ""}, opt); err == nil {
		t.Error("empty EST accepted")
	}
	opt.Processors = 0
	if _, err := Cluster([]string{"ACGT"}, opt); err == nil {
		t.Error("zero processors accepted")
	}
	opt = DefaultOptions()
	opt.MinMatch = 2 // below Window
	if _, err := Cluster([]string{"ACGTACGT"}, opt); err == nil {
		t.Error("MinMatch < Window accepted")
	}
	// Processors == 1 is the sequential engine, which has no simulated
	// machine: its wall-clock phases must not be reported as virtual time.
	opt = DefaultOptions()
	opt.Simulated = true
	if _, err := Cluster([]string{"ACGTACGT"}, opt); err == nil || !strings.HasPrefix(err.Error(), "pace: Simulated needs Processors >= 2") {
		t.Errorf("Simulated with one processor: error %v, want the pace: refusal", err)
	}
}

func TestIncrementalReclustering(t *testing.T) {
	b := testBenchmark(t, 100, 6, 5)
	opt := DefaultOptions()
	opt.Window = 6
	opt.MinMatch = 18

	old := 70
	first, err := Cluster(b.ESTs[:old], opt)
	if err != nil {
		t.Fatal(err)
	}

	// Re-cluster the full set from scratch vs incrementally seeded.
	scratch, err := Cluster(b.ESTs, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.InitialLabels = first.Labels
	inc, err := Cluster(b.ESTs, opt)
	if err != nil {
		t.Fatal(err)
	}

	if inc.Stats.PairsProcessed >= scratch.Stats.PairsProcessed {
		t.Errorf("incremental did not save alignments: %d vs %d",
			inc.Stats.PairsProcessed, scratch.Stats.PairsProcessed)
	}
	qs, _ := Evaluate(scratch.Labels, b.Truth)
	qi, _ := Evaluate(inc.Labels, b.Truth)
	if qi.OQ < qs.OQ-0.05 {
		t.Errorf("incremental quality dropped: %v vs %v", qi, qs)
	}
}

func TestEvaluatePublic(t *testing.T) {
	q, err := Evaluate([]int{0, 0, 1}, []int{5, 5, 9})
	if err != nil {
		t.Fatal(err)
	}
	if q.OQ != 1 || q.CC != 1 || q.TP != 1 {
		t.Errorf("perfect eval: %+v", q)
	}
	if q.String() == "" {
		t.Error("empty String()")
	}
	if _, err := Evaluate([]int{0}, []int{0, 1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestFASTARoundTripPublic(t *testing.T) {
	recs := []Record{
		{ID: "a", Desc: "first", Seq: "ACGTACGT"},
		{ID: "b", Seq: "GGGTTT"},
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != recs[0] || got[1] != recs[1] {
		t.Fatalf("round trip: %+v", got)
	}
	if s := Sequences(got); len(s) != 2 || s[0] != "ACGTACGT" {
		t.Fatalf("Sequences: %v", s)
	}
}

func TestReadFASTAAmbiguous(t *testing.T) {
	got, err := ReadFASTA(strings.NewReader(">x\nACNNGT\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Seq != "ACAAGT" {
		t.Errorf("ambiguity handling: %q", got[0].Seq)
	}
}

func TestTrimPublic(t *testing.T) {
	body := strings.Repeat("ACGC", 30)
	raw := []string{
		body + strings.Repeat("A", 20),
		strings.Repeat("T", 15) + body,
		body,
	}
	out, st, err := Trim(raw, TrimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads != 3 || st.Trimmed != 2 || st.CharsRemoved != 35 {
		t.Errorf("stats: %+v", st)
	}
	for i, s := range out {
		if s != body {
			t.Errorf("read %d not trimmed to body: len %d", i, len(s))
		}
	}
	if _, _, err := Trim([]string{"ACGN"}, TrimOptions{}); err == nil {
		t.Error("invalid sequence accepted")
	}
	if _, _, err := Trim(raw, TrimOptions{MinRun: 1}); err == nil {
		t.Error("invalid options accepted")
	}
}

func TestLowComplexityFractionPublic(t *testing.T) {
	f, err := LowComplexityFraction(strings.Repeat("A", 200))
	if err != nil {
		t.Fatal(err)
	}
	if f != 1 {
		t.Errorf("homopolymer fraction %f", f)
	}
	if _, err := LowComplexityFraction("ACGX"); err == nil {
		t.Error("invalid sequence accepted")
	}
}

func TestConsensusPublic(t *testing.T) {
	b := testBenchmark(t, 60, 3, 8)
	opt := DefaultOptions()
	opt.Window = 6
	opt.MinMatch = 18
	cl, err := Cluster(b.ESTs, opt)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := Consensus(b.ESTs, cl.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if len(cons) != cl.NumClusters {
		t.Fatalf("consensus count %d != clusters %d", len(cons), cl.NumClusters)
	}
	for label, c := range cons {
		if c == nil {
			t.Fatalf("cluster %d has no consensus", label)
		}
		if len(c.Seq) == 0 || len(c.Coverage) != len(c.Seq) {
			t.Fatalf("cluster %d: malformed consensus", label)
		}
		if c.Used+c.Excluded != len(cl.Clusters[label]) {
			t.Fatalf("cluster %d: used %d + excluded %d != members %d",
				label, c.Used, c.Excluded, len(cl.Clusters[label]))
		}
	}
	if _, err := Consensus(b.ESTs, cl.Labels[:5]); err == nil {
		t.Error("label length mismatch accepted")
	}
}

func TestDetectSplicingPublic(t *testing.T) {
	bench, err := Simulate(SimOptions{
		NumESTs:       120,
		NumGenes:      3,
		ErrorRate:     0.01,
		AltSpliceProb: 1,
		Seed:          31,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	cl, err := Cluster(bench.ESTs, opt)
	if err != nil {
		t.Fatal(err)
	}
	events, err := DetectSplicing(bench.ESTs, cl.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no splice events on isoform-rich data")
	}
	for _, ev := range events {
		if ev.GapLen < 50 || ev.FlankMatches < 30 {
			t.Errorf("weak event reported: %+v", ev)
		}
		if ev.Member < 0 || ev.Member >= len(bench.ESTs) {
			t.Errorf("member out of range: %+v", ev)
		}
	}
	if _, err := DetectSplicing(bench.ESTs, cl.Labels[:3]); err == nil {
		t.Error("label length mismatch accepted")
	}
}

func TestPolyATailsHurtUntrimmed(t *testing.T) {
	raw, err := Simulate(SimOptions{
		NumESTs:   80,
		NumGenes:  6,
		PolyATail: [2]int{20, 40},
		Seed:      17,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Window = 6
	opt.MinMatch = 18

	dirty, err := Cluster(raw.ESTs, opt)
	if err != nil {
		t.Fatal(err)
	}
	trimmed, _, err := Trim(raw.ESTs, TrimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Cluster(trimmed, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Untrimmed tails flood the generator with spurious A-run pairs.
	if dirty.Stats.PairsGenerated <= 3*clean.Stats.PairsGenerated/2 {
		t.Errorf("tails did not inflate pair generation: %d vs %d",
			dirty.Stats.PairsGenerated, clean.Stats.PairsGenerated)
	}
}
