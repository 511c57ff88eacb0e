// Command bench is the wall-clock benchmark of the PaCE pipeline: seeded
// workloads through pace.Cluster and through paced's HTTP ingest, end-to-end
// metrics from timed repeats, and per-layer metrics from a separate traced
// pass that times calls into each layer's public functions from outside.
// BENCHMARK.json at the checkout root declares the workloads and metrics;
// README.md in this directory defines them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// bench is one invocation's fixed context.
type bench struct {
	root    string
	decl    *declaration
	golden  map[string]string
	seed    int64
	seconds float64
	tmpRoot string
	outDir  string
	stdout  io.Writer
	stderr  io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this workload only and end with the driver's one-line JSON result (default: every workload)")
	seed := fs.Int64("seed", 1, "workload seed; the program under test sees only the generated ESTs")
	seconds := fs.Float64("seconds", 0, "seconds of timed repeats per workload, never fewer than 3 repeats (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 runs the traced pass for the per-layer metrics and Chrome traces: instead of the timed pass with -workload, after it otherwise")
	aa := fs.Bool("aa", false, "run the timed set twice and compare every end-to-end metric against its bound")
	validateFile := fs.String("validate", "", "check a result file against BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	decl, err := loadDeclaration(root)
	if err != nil {
		return fail(err)
	}
	if *validateFile != "" {
		return runValidate(decl, *validateFile, stdout, stderr)
	}
	if *seconds == 0 {
		*seconds = float64(decl.RunSeconds)
	}
	b := &bench{
		root: root, decl: decl, seed: *seed, seconds: *seconds, stdout: stdout, stderr: stderr,
		outDir:  filepath.Join(root, "bench", "out"),
		tmpRoot: filepath.Join(root, "bench", "out", "tmp"),
	}
	if err := checkEnvironment(b.tmpRoot); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(b.tmpRoot)
	if *seed == goldenSeed {
		if b.golden, err = loadGolden(filepath.Join(root, "bench", "golden.json")); err != nil {
			return fail(err)
		}
	}

	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{w}
	}
	timed, traced := *trace == 0 || *name == "", *trace != 0

	if *aa {
		code, err := b.runAA(selected)
		if err != nil {
			return fail(err)
		}
		return code
	}

	out := resultFile{Env: readEnvironment(root, *seed, *seconds)}
	fmt.Fprintf(stdout, "# %s, %d of %d CPUs, %s, git %s, seed %d\n",
		out.Env.CPUModel, out.Env.GOMAXPROCS, out.Env.NProc, out.Env.GoVersion, out.Env.GitHead, *seed)
	failed := 0
	for _, w := range selected {
		wr, err := b.runWorkload(w, timed, traced)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.Name, err))
		}
		b.print(wr)
		out.Workloads = append(out.Workloads, *wr)
		failed += wr.Failed
	}
	if err := writeJSON(filepath.Join(b.outDir, "result.json"), out); err != nil {
		return fail(err)
	}
	if *name != "" {
		// The driver reads the last line of standard output.
		wr := out.Workloads[0]
		metrics := wr.EndToEnd
		if traced {
			metrics = wr.PerLayer
		}
		for k, v := range metrics {
			metrics[k] = metricValue{Value: v.Value, Unit: v.Unit}
		}
		line, err := json.Marshal(map[string]any{
			"correct": wr.Failed == 0, "attempted": wr.Attempted, "failed": wr.Failed, "metrics": metrics,
		})
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(line))
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// runWorkload runs the selected passes of one workload and folds them into
// its result.
func (b *bench) runWorkload(w workload, timed, traced bool) (*workloadResult, error) {
	wr := &workloadResult{Name: w.Name}
	var all checks
	var in *input
	if timed {
		tr, gen, err := runTimed(w, b.seed, b.seconds, b.tmpRoot, b.golden)
		if err != nil {
			return nil, err
		}
		in = gen
		wr.Repeats, wr.Digest, wr.Clusters = tr.Repeats, tr.Digest, tr.Clusters
		wr.EndToEnd = map[string]metricValue{}
		for _, md := range b.decl.EndToEnd {
			s, ok := tr.Samples[md.Name]
			if !ok {
				return nil, fmt.Errorf("declared end-to-end metric %s is not measured", md.Name)
			}
			wr.EndToEnd[md.Name] = metricValue{Value: median(s), Unit: md.Unit, Samples: s}
		}
		if w.Ingest {
			fmt.Fprintf(b.stdout, "%-13s first batch %.4f s, last batch %.4f s (x%.1f)\n",
				w.Name, tr.FirstLast[0], tr.FirstLast[1], ratio(tr.FirstLast[1], tr.FirstLast[0]))
		}
		all = tr.checks
	}
	if traced {
		if in == nil {
			var err error
			if in, err = w.generate(b.seed); err != nil {
				return nil, err
			}
		}
		tr, err := runTraced(w, in, b.tmpRoot, filepath.Join(b.outDir, "trace-"+w.Name+".json"))
		if err != nil {
			return nil, err
		}
		wr.PerLayer = map[string]metricValue{}
		for _, md := range b.decl.PerLayer {
			v, ok := tr.Metrics[md.Name]
			if !ok {
				return nil, fmt.Errorf("declared per-layer metric %s is not measured", md.Name)
			}
			wr.PerLayer[md.Name] = metricValue{Value: v, Unit: md.Unit, Samples: tr.Exact[md.Name]}
		}
		if len(tr.Metrics) != len(b.decl.PerLayer) {
			return nil, fmt.Errorf("%d per-layer metrics measured, %d declared", len(tr.Metrics), len(b.decl.PerLayer))
		}
		wr.LayerSelf = tr.LayerSelf
		all.Attempted += tr.Attempted
		all.Failed += tr.Failed
		all.Failures = append(all.Failures, tr.Failures...)
	}
	wr.ESTs = len(in.ests)
	wr.Attempted, wr.Failed, wr.Failures = all.Attempted, all.Failed, all.Failures
	wr.FailRatio = ratio(float64(all.Failed), float64(all.Attempted))
	return wr, nil
}

// print writes every metric of a workload by name with its unit.
func (b *bench) print(wr *workloadResult) {
	for _, md := range b.decl.EndToEnd {
		v, ok := wr.EndToEnd[md.Name]
		if !ok {
			continue
		}
		note := fmt.Sprintf("median of %d", len(v.Samples))
		if md.Name == "wall_s" {
			if w, ok := findWorkload(wr.Name); ok {
				n := w.N
				if w.Ingest {
					n = w.IngestN
				}
				note += fmt.Sprintf("; %.0f ESTs/s", ratio(float64(n), v.Value))
			}
		}
		fmt.Fprintf(b.stdout, "%-13s %-36s %14.6g %-7s (%s)\n", wr.Name, md.Name, v.Value, v.Unit, note)
	}
	if wr.EndToEnd != nil {
		fmt.Fprintf(b.stdout, "%-13s %-36s %14.6g %-7s (%d of %d operations failed; %d clusters, digest %.12s)\n",
			wr.Name, "fail_ratio", wr.FailRatio, "-", wr.Failed, wr.Attempted, wr.Clusters, wr.Digest)
	}
	for _, md := range b.decl.PerLayer {
		if v, ok := wr.PerLayer[md.Name]; ok {
			fmt.Fprintf(b.stdout, "%-13s %-36s %14.6g %s\n", wr.Name, md.Name, v.Value, v.Unit)
		}
	}
	if len(wr.LayerSelf) > 0 {
		layers := make([]string, 0, len(wr.LayerSelf))
		for l := range wr.LayerSelf {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		fmt.Fprintf(b.stdout, "%-13s self time by layer in the shadow pipeline:", wr.Name)
		for _, l := range layers {
			fmt.Fprintf(b.stdout, " %s %.4g s", l, wr.LayerSelf[l])
		}
		fmt.Fprintln(b.stdout)
	}
	for _, f := range wr.Failures {
		fmt.Fprintf(b.stdout, "%-13s FAILED %s\n", wr.Name, f)
	}
}

func runValidate(decl *declaration, path string, stdout, stderr io.Writer) int {
	var r resultFile
	if err := readJSON(path, &r); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	bad := validate(decl, &r)
	for _, msg := range bad {
		fmt.Fprintln(stdout, "invalid:", msg)
	}
	if len(bad) > 0 {
		return 1
	}
	fmt.Fprintf(stdout, "%s: %d workloads, %d end-to-end and %d per-layer metrics, all as declared\n",
		path, len(r.Workloads), len(decl.EndToEnd), len(decl.PerLayer))
	return 0
}

// aaRow is one metric on one workload, measured by two sets of runs of the
// same binary.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	// Diff is |second-first| as a share of first; Spread the interquartile
	// distance of both sets' repeats as a share of their median.
	Diff   float64 `json:"diff"`
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	Agree  bool    `json:"agree"`
}

// runAA measures the timed set twice and checks that the two agree on every
// end-to-end metric within its bound and on the partition exactly. Each
// workload of each set runs in a process of its own, as the driver's runs do:
// in one process a later workload inherits the heap an earlier one grew.
func (b *bench) runAA(selected []workload) (int, error) {
	exe, err := os.Executable()
	if err != nil {
		return 1, err
	}
	resultPath := filepath.Join(b.outDir, "result.json")
	var sets [2][]*workloadResult
	for i := range sets {
		for _, w := range selected {
			cmd := exec.Command(exe, "-workload", w.Name, "-seed", fmt.Sprint(b.seed), "-seconds", fmt.Sprint(b.seconds), "-trace", "0")
			cmd.Stderr = b.stderr
			// A child that found a failure exits non-zero after writing its
			// result, and the result says what failed.
			if _, err := cmd.Output(); err != nil && cmd.ProcessState.ExitCode() != 1 {
				return 1, fmt.Errorf("%s: %w", w.Name, err)
			}
			var r resultFile
			err := readJSON(resultPath, &r)
			if err == nil && (len(r.Workloads) != 1 || r.Workloads[0].Name != w.Name) {
				err = fmt.Errorf("%s does not hold the result of %s", resultPath, w.Name)
			}
			if err != nil {
				return 1, err
			}
			if err := os.Remove(resultPath); err != nil {
				return 1, err
			}
			sets[i] = append(sets[i], &r.Workloads[0])
			fmt.Fprintf(b.stdout, "set %d: %s done\n", i+1, w.Name)
		}
	}
	var rows []aaRow
	code := 0
	for i, w := range selected {
		first, second := sets[0][i], sets[1][i]
		if first.Failed+second.Failed > 0 || first.Digest != second.Digest {
			fmt.Fprintf(b.stdout, "%-13s partitions disagree or operations failed: %v %v\n", w.Name, first.Failures, second.Failures)
			code = 1
		}
		for _, md := range b.decl.EndToEnd {
			a, c := first.EndToEnd[md.Name], second.EndToEnd[md.Name]
			row := aaRow{
				Workload: w.Name, Metric: md.Name, Unit: md.Unit, First: a.Value, Second: c.Value, Bound: md.Bound,
				Diff:   ratio(math.Abs(c.Value-a.Value), math.Abs(a.Value)),
				Spread: spread(append(append([]float64(nil), a.Samples...), c.Samples...)),
			}
			row.Agree = row.Diff <= row.Bound
			if !row.Agree {
				code = 1
			}
			rows = append(rows, row)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Metric < rows[j].Metric })
	fmt.Fprintf(b.stdout, "%-20s %-13s %12s %12s %8s %8s %8s\n", "metric", "workload", "first", "second", "diff", "spread", "bound")
	for _, r := range rows {
		verdict := ""
		if !r.Agree {
			verdict = "  DISAGREE"
		}
		fmt.Fprintf(b.stdout, "%-20s %-13s %12.6g %12.6g %7.2f%% %7.2f%% %7.2f%%%s\n",
			r.Metric, r.Workload, r.First, r.Second, 100*r.Diff, 100*r.Spread, 100*r.Bound, verdict)
	}
	return code, writeJSON(filepath.Join(b.outDir, "aa.json"), rows)
}
