package pace

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"pace/internal/simulate"
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
	// Labels are dense: every label in [0, NumClusters) names a cluster.
	sizes := make([]int, cl.NumClusters)
	for i, l := range cl.Labels {
		if l < 0 || l >= cl.NumClusters {
			t.Fatalf("EST %d labeled %d, outside [0, %d)", i, l, cl.NumClusters)
		}
		sizes[l]++
	}
	if i := slices.Index(sizes, 0); i >= 0 {
		t.Fatalf("label %d has no members", i)
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
	for _, tc := range []struct {
		name string
		recs []Record
		want string
	}{
		{"simple", []Record{{ID: "a", Desc: "first", Seq: "ACGTACGT"}, {ID: "b", Seq: "GGGTTT"}},
			">a first\nACGTACGT\n>b\nGGGTTT\n"},
		{"wrap_60", []Record{{ID: "x", Desc: "d", Seq: strings.Repeat("ACGT", 32)}},
			">x d\n" + strings.Repeat("ACGT", 15) + "\n" + strings.Repeat("ACGT", 15) + "\nACGTACGT\n"},
		{"wrap_exact", []Record{{ID: "x", Seq: strings.Repeat("ACGTAC", 10)}},
			">x\n" + strings.Repeat("ACGTAC", 10) + "\n"},
		{"lower_case", []Record{{ID: "x", Seq: "acgtACGTtgca"}}, ">x\nACGTACGTTGCA\n"},
		{"empty_sequence", []Record{{ID: "x"}, {ID: "y", Seq: "AC"}}, ">x\n>y\nAC\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteFASTA(&buf, tc.recs); err != nil {
				t.Fatal(err)
			}
			if buf.String() != tc.want {
				t.Fatalf("wrote %q, want %q", buf.String(), tc.want)
			}
			got, err := ReadFASTA(&buf)
			if err != nil {
				t.Fatal(err)
			}
			var want []Record
			for _, r := range tc.recs {
				if r.Seq != "" {
					want = append(want, Record{ID: r.ID, Desc: r.Desc, Seq: strings.ToUpper(r.Seq)})
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("read back %+v, want %+v", got, want)
			}
		})
	}

	// A refused record, even one after more than a buffer's worth of good
	// ones, leaves the writer untouched.
	good := make([]Record, 100)
	for i := range good {
		good[i] = Record{ID: fmt.Sprintf("e%d", i), Seq: strings.Repeat("ACGT", 25)}
	}
	for _, tc := range []struct {
		name string
		bad  Record
	}{
		{"refuses_empty_id", Record{Seq: "ACGT"}},
		{"refuses_non_acgt", Record{ID: "n", Seq: "ACNT"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteFASTA(&buf, append(good[:len(good):len(good)], tc.bad)); err == nil {
				t.Fatal("want a refusal")
			}
			if buf.Len() != 0 {
				t.Fatalf("refused write left %d bytes", buf.Len())
			}
		})
	}

	t.Run("random", func(t *testing.T) {
		// Enough records to fill the writer's buffer many times over.
		rng := rand.New(rand.NewSource(7))
		var recs []Record
		for i := 0; i < 250; i++ {
			b := make([]byte, 1+rng.Intn(300))
			for j := range b {
				b[j] = "ACGT"[rng.Intn(4)]
			}
			recs = append(recs, Record{ID: fmt.Sprintf("est%d", i), Seq: string(b)})
		}
		var buf bytes.Buffer
		if err := WriteFASTA(&buf, recs); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFASTA(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, recs) {
			t.Fatal("random round trip differs")
		}
		if s := Sequences(got); len(s) != len(recs) || s[3] != recs[3].Seq {
			t.Fatalf("Sequences: %v", s)
		}
	})
}

// TestWriteFASTAAllocs: writing allocates only the buffered writer, never
// per record.
func TestWriteFASTAAllocs(t *testing.T) {
	recs := make([]Record, 100)
	for i := range recs {
		recs[i] = Record{ID: fmt.Sprintf("est%06d", i), Desc: "gene=7", Seq: strings.Repeat("ACGTTGCA", 50)}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := WriteFASTA(io.Discard, recs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("WriteFASTA of %d records: %.0f allocations, want at most 2", len(recs), allocs)
	}
}

func TestReadFASTAAmbiguous(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		want     []Record
		wantErr  string // substring of the refusal, "" if none
	}{
		{name: "ambiguous", in: ">x\nACNNGT\n", want: []Record{{ID: "x", Seq: "ACAAGT"}}},
		{name: "simple", in: ">e1 first EST\nACGT\nACGT\n>e2\nGGTT\n",
			want: []Record{{ID: "e1", Desc: "first EST", Seq: "ACGTACGT"}, {ID: "e2", Seq: "GGTT"}}},
		{name: "crlf_and_blank_lines", in: ">a\r\nAC\r\n\r\nGT\r\n\r\n>b\r\nTT\r\n",
			want: []Record{{ID: "a", Seq: "ACGT"}, {ID: "b", Seq: "TT"}}},
		{name: "comments", in: "; a comment\n>a\nAC\n; mid comment\nGT\n",
			want: []Record{{ID: "a", Seq: "ACGT"}}},
		{name: "lower_case", in: ">a  some  desc \n acgtn \nRyK\n",
			want: []Record{{ID: "a", Desc: "some  desc", Seq: "ACGTAAAA"}}},
		{name: "inner_whitespace", in: ">a\nAC GT\nA\tC \t G\n\tT  T \n",
			want: []Record{{ID: "a", Seq: "ACGTACGTT"}}},
		{name: "tab_in_header", in: ">a\tdesc here\nACGT\n",
			want: []Record{{ID: "a", Desc: "desc here", Seq: "ACGT"}}},
		{name: "multibyte_character", in: ">a\nACéGT\n",
			want: []Record{{ID: "a", Seq: "ACAGT"}}},
		{name: "whitespace_only_line", in: ">a\nAC\n \t \nGT\n",
			want: []Record{{ID: "a", Seq: "ACGT"}}},
		{name: "empty_sequence", in: ">a\n>b\nAC\n>c\n\n",
			want: []Record{{ID: "b", Seq: "AC"}}},
		{name: "empty_input", in: "", want: []Record{}},
		{name: "text_before_header", in: "ACGT\n>a\nAC\n", wantErr: "line 1: expected header"},
		{name: "empty_id", in: ">a\nAC\n\n>  \nAC\n", wantErr: "line 4: empty record id"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ReadFASTA(strings.NewReader(tc.in))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("got %v, want a refusal naming %q", err, tc.wantErr)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %+v, %v; want %+v", got, err, tc.want)
			}
		})
	}

	// A run of empty records is skipped in a loop, not by recursion: with
	// the stack ceiling lowered, 200,000 of them must not overflow it.
	t.Run("many_empty_records", func(t *testing.T) {
		old := debug.SetMaxStack(32 << 20)
		t.Cleanup(func() { debug.SetMaxStack(old) })
		in := strings.Repeat(">a\n", 200000) + ">x\nACGTACGT\n"
		got, err := ReadFASTA(strings.NewReader(in))
		if err != nil || !reflect.DeepEqual(got, []Record{{ID: "x", Seq: "ACGTACGT"}}) {
			t.Fatalf("want only record x, got %d records, %v", len(got), err)
		}
	})
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

// TestIsoformReadsClusterWithGene clusters reads from genes that all carry
// an exon-skipping isoform: reads from both isoforms of a gene must land in
// the gene's one cluster, sequentially and on the simulated machine alike.
func TestIsoformReadsClusterWithGene(t *testing.T) {
	sim := SimOptions{NumESTs: 120, NumGenes: 3, ErrorRate: 0.01, AltSpliceProb: 1, Seed: 31}
	b, err := Simulate(sim)
	if err != nil {
		t.Fatal(err)
	}
	// Confirm the input plants what the test is about: regenerate it from
	// the config Simulate builds and count each gene's isoform reads.
	cfg := simulate.DefaultConfig(sim.NumESTs)
	cfg.NumGenes, cfg.ErrorRate, cfg.AltSpliceProb, cfg.Seed = sim.NumGenes, sim.ErrorRate, sim.AltSpliceProb, sim.Seed
	ref, err := simulate.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reads := make([][2]int, len(ref.Genes)) // per gene: main, isoform
	for i, e := range ref.ESTs {
		if e.String() != b.ESTs[i] {
			t.Fatalf("EST %d differs from the regenerated benchmark", i)
		}
		if ref.FromIsoform[i] {
			reads[ref.Truth[i]][1]++
		} else {
			reads[ref.Truth[i]][0]++
		}
	}
	mixed := 0
	for _, r := range reads {
		if r[0] >= 2 && r[1] >= 2 {
			mixed++
		}
	}
	if mixed == 0 {
		t.Fatalf("no gene has two reads from each isoform: %v", reads)
	}

	opt := DefaultOptions()
	opt.Processors = 1
	cl, err := Cluster(b.ESTs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if cl.NumClusters != 3 {
		t.Errorf("%d clusters, want 3", cl.NumClusters)
	}
	q, err := Evaluate(cl.Labels, b.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if q.OQ != 1 {
		t.Errorf("isoform clustering quality: %v", q)
	}

	opt.Processors = 4
	opt.Simulated = true
	par, err := Cluster(b.ESTs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cl.Labels {
		if par.Labels[i] != cl.Labels[i] {
			t.Fatalf("EST %d: label %d at Processors 4, %d at Processors 1", i, par.Labels[i], cl.Labels[i])
		}
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

// TestClusterAllocationsPerEST bounds what Cluster allocates per EST on
// 2,000 singletons, where nothing aligns: the run is the suffix table, the
// forest and the generators, whose storage is a few arrays per run, so the
// allocations per EST stay a small fraction of one. Building anything per
// cluster or per EST, such as a member list for each of the 2,000 clusters,
// breaks the bound.
func TestClusterAllocationsPerEST(t *testing.T) {
	const n = 2000
	b, err := Simulate(SimOptions{NumESTs: n, NumGenes: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cl, err := Cluster(b.ESTs, DefaultOptions())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if cl.NumClusters < n*9/10 {
		t.Fatalf("%d clusters of %d ESTs: the input is not mostly singletons", cl.NumClusters, n)
	}
	per := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.3f allocations per EST, %d clusters", per, cl.NumClusters)
	if per > 0.2 {
		t.Errorf("Cluster allocated %.3f times per EST on %d singletons, want <= 0.2", per, n)
	}
}
