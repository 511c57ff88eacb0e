package pace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestSeedReportMatchesCommitted reproduces, in-process, the deterministic-sim
// report the CI perf job compares against BENCH_seed.json (`estsim -n 300
// -genes 30 -seed 2002`, then `pace -p 4 -sim -stamp 2002-08-20T00:00:00Z
// -report`) and requires the committed file's labels,
// counters and virtual phase times to match it exactly. BENCH_seed.json is a
// determinism-and-counter gate, not a speed baseline: a new counter family or
// an engine change that moves a counter fails here, in plain `go test`,
// until the file is regenerated with that recipe. The run must also align at
// most two pairs per merge.
func TestSeedReportMatchesCommitted(t *testing.T) {
	raw, err := os.ReadFile("BENCH_seed.json")
	if err != nil {
		t.Fatal(err)
	}
	var want RunReport
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	cl, got := runSeedRecipe(t)

	// The waste bound holds whatever the committed file says: each slave
	// skips the pairs its replica union-find already joins, so this run
	// aligns 1.66 pairs per merge, where aligning every dispatched pair
	// whole took 3.06.
	if st := cl.Stats; st.PairsProcessed > 2*st.Merges {
		t.Errorf("%d alignments for %d merges, want at most 2 per merge", st.PairsProcessed, st.Merges)
	}

	if got.Tool != want.Tool || got.Dataset != want.Dataset || got.Procs != want.Procs ||
		got.Simulated != want.Simulated || got.NumESTs != want.NumESTs ||
		got.NumClusters != want.NumClusters || !reflect.DeepEqual(got.Params, want.Params) {
		t.Errorf("labels drifted from BENCH_seed.json: got %s/%s p=%d sim=%v n=%d clusters=%d %v",
			got.Tool, got.Dataset, got.Procs, got.Simulated, got.NumESTs, got.NumClusters, got.Params)
	}
	if !reflect.DeepEqual(got.Phases, want.Phases) {
		t.Errorf("virtual phase times drifted from BENCH_seed.json:\n got  %+v\n want %+v", got.Phases, want.Phases)
	}
	var names []string
	for k := range got.Counters {
		names = append(names, k)
	}
	for k := range want.Counters {
		if _, dup := got.Counters[k]; !dup {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		g, inRun := got.Counters[k]
		w, inFile := want.Counters[k]
		switch {
		case !inFile:
			t.Errorf("counter %s = %v is not in BENCH_seed.json (re-baseline it)", k, g)
		case !inRun:
			t.Errorf("counter %s is in BENCH_seed.json but the run no longer reports it", k)
		case g != w:
			t.Errorf("counter %s = %v, BENCH_seed.json has %v", k, g, w)
		}
	}
}

// runSeedRecipe runs BENCH_seed.json's recipe in-process: estsim's flag
// defaults with the job's -n, -genes and -seed, then pace -p 4 -sim -stamp
// with a metrics registry, as -report sets one.
func runSeedRecipe(t *testing.T) (*Clustering, *RunReport) {
	t.Helper()
	b, err := Simulate(SimOptions{
		NumESTs: 300, NumGenes: 30, Seed: 2002,
		ErrorRate: 0.02, MeanLength: 550, ParalogDivergence: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Processors, opt.Simulated = 4, true
	opt.Stamp = time.Date(2002, 8, 20, 0, 0, 0, 0, time.UTC)
	opt.Metrics = NewMetricsRegistry()
	cl, err := Cluster(b.ESTs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return cl, BuildReport(cl, opt, "pace", "perf.fasta", len(b.ESTs), 0)
}

// TestStampedSimReportReproducible: Stamp alone freezes a simulated run, so
// two runs of the seed recipe write byte-identical report JSON.
func TestStampedSimReportReproducible(t *testing.T) {
	var out [2][]byte
	for i := range out {
		_, rep := runSeedRecipe(t)
		path := filepath.Join(t.TempDir(), "report.json")
		if err := rep.WriteJSON(path); err != nil {
			t.Fatal(err)
		}
		var err error
		if out[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Errorf("two stamped sim runs wrote different reports:\n%s\n---\n%s", out[0], out[1])
	}
}
