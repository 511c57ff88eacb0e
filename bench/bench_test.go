package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// scaled shrinks the workload to n ESTs at the same depth, for the
// smoke test; the shape (paralogs, engine, ingest) is kept.
func (w workload) scaled(n int) workload {
	f := float64(n) / float64(w.N)
	shrink := func(x int) int {
		if x == 0 {
			return 0
		}
		if y := int(float64(x) * f); y > 1 {
			return y
		}
		return 1
	}
	w.Genes, w.Paralogs, w.IngestN, w.N = shrink(w.Genes), shrink(w.Paralogs), shrink(w.IngestN), n
	if w.IngestN < ingestBatches {
		w.IngestN = ingestBatches
	}
	return w
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Layer: "cluster", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "build", Layer: "suffix", Start: 10 * ms, End: 40 * ms, Parent: 0},
		{Name: "next", Layer: "pairgen", Start: 40 * ms, End: 90 * ms, Parent: 0},
		{Name: "inner", Layer: "suffix", Start: 50 * ms, End: 60 * ms, Parent: 2},
	}
	self := selfTimes(spans)
	for i, want := range []time.Duration{20 * ms, 30 * ms, 40 * ms, 10 * ms} {
		if self[i] != want {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, self[i], want)
		}
	}
	byLayer := layerSelf(spans)
	if byLayer["suffix"] != 40*ms || byLayer["pairgen"] != 40*ms || byLayer["cluster"] != 20*ms {
		t.Errorf("self time per layer = %v", byLayer)
	}
	var sum time.Duration
	for _, d := range byLayer {
		sum += d
	}
	if sum != 100*ms {
		t.Errorf("self times sum to %v, want the root's 100ms", sum)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	r.end(r.begin("x", "y", -1))
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(ten)
	if q1 != 2.75 || q3 != 8.25 || median(ten) != 5.5 {
		t.Errorf("quartiles = %v, %v and median = %v, want 2.75, 8.25 and 5.5", q1, q3, median(ten))
	}
	if got := spread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v, want 1, 3", q1, q3)
	}
	if median([]float64{4, 1, 3}) != 3 || median(nil) != 0 || spread([]float64{7}) != 0 {
		t.Error("median of three, of nothing, or spread of one is wrong")
	}
}

func TestDigestIsRelabelInvariant(t *testing.T) {
	a := digest([]int{0, 0, 1, 2, 1})
	if b := digest([]int{7, 7, 3, 9, 3}); a != b {
		t.Error("relabelled partition digests differently")
	}
	if c := digest([]int{0, 1, 1, 2, 1}); a == c {
		t.Error("different partitions digest alike")
	}
	if d := digest([]int{0, 0, 1, 2}); a == d {
		t.Error("a prefix digests like the whole")
	}
}

// TestSmokeEveryWorkload runs every workload at 60 ESTs, the timed pass on
// all and the traced pass on one of each kind (sequential, parallel,
// ingest), and checks that each pass reports every metric that
// BENCHMARK.json declares, with no failed operation, and that the assembled
// result passes -validate.
func TestSmokeEveryWorkload(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	decl, err := loadDeclaration(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	b := &bench{root: root, decl: decl, seed: 3, seconds: 0, tmpRoot: t.TempDir(), outDir: t.TempDir(), stdout: io.Discard}
	var out resultFile
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %s, declared as %s", i, w.Name, decl.Workloads[i].Name)
		}
		traced := i == 0 || w.Parallel || w.Ingest
		wr, err := b.runWorkload(w.scaled(60), true, traced)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, wr.Failed, wr.Attempted, wr.Failures)
		}
		if wr.Repeats != minRepeats {
			t.Errorf("%s: %d timed repeats with no time budget, want %d", w.Name, wr.Repeats, minRepeats)
		}
		for _, md := range decl.EndToEnd {
			if v, ok := wr.EndToEnd[md.Name]; !ok || v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive value", w.Name, md.Name, v.Value)
			}
		}
		out.Workloads = append(out.Workloads, *wr)
		if !traced {
			continue
		}
		for _, md := range decl.PerLayer {
			if _, ok := wr.PerLayer[md.Name]; !ok {
				t.Errorf("%s: per-layer metric %s is missing", w.Name, md.Name)
			}
		}
		data, err := os.ReadFile(filepath.Join(b.outDir, "trace-"+w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var events []map[string]any
		if err := json.Unmarshal(data, &events); err != nil || len(events) < 10 {
			t.Errorf("%s: Chrome trace has %d events, error %v", w.Name, len(events), err)
		}
	}
	if bad := validate(decl, &out); len(bad) != 0 {
		t.Errorf("the smoke result does not validate:\n%s", strings.Join(bad, "\n"))
	}

	// The validator must notice what it exists to notice.
	broken := out.Workloads[0]
	broken.EndToEnd = map[string]metricValue{}
	for k, v := range out.Workloads[0].EndToEnd {
		broken.EndToEnd[k] = v
	}
	delete(broken.EndToEnd, "wall_s")
	broken.PerLayer = map[string]metricValue{}
	for k, v := range out.Workloads[0].PerLayer {
		broken.PerLayer[k] = v
	}
	broken.PerLayer["suffix.nodes"] = metricValue{Value: 1, Unit: "count", Samples: []float64{1, 2}}
	bad := strings.Join(validate(decl, &resultFile{Workloads: append([]workloadResult{broken}, out.Workloads[1:]...)}), "\n")
	for _, want := range []string{"wall_s is missing", "suffix.nodes does not repeat exactly"} {
		if !strings.Contains(bad, want) {
			t.Errorf("validate did not report %q:\n%s", want, bad)
		}
	}
}
