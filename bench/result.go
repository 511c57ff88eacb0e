package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
)

// metricDecl is one metric as BENCHMARK.json declares it. Bound is set on
// end-to-end metrics only.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// declaration is BENCHMARK.json: the single list of workloads, metrics,
// units and bounds that the runner, the validator, the A/A mode and the
// smoke test all read.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// findRoot returns the checkout root, the directory holding BENCHMARK.json:
// the working directory under run.sh, its parent under `go run -C bench .`
// and `go test`.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in the working directory or its parent")
}

// readJSON decodes the file at path into v.
func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func loadDeclaration(root string) (*declaration, error) {
	var d declaration
	return &d, readJSON(filepath.Join(root, "BENCHMARK.json"), &d)
}

// metricValue is one reported figure. Samples are the per-repeat values an
// end-to-end median was taken over, or the two passes of an exact counter.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// workloadResult is everything one workload reported.
type workloadResult struct {
	Name      string                 `json:"name"`
	ESTs      int                    `json:"ests"`
	Repeats   int                    `json:"repeats"`
	Digest    string                 `json:"digest"`
	Clusters  int                    `json:"clusters"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FailRatio float64                `json:"fail_ratio"`
	Failures  []string               `json:"failures,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	// LayerSelf is each layer's self time in the traced shadow pipeline:
	// its spans' durations minus what their child spans cover.
	LayerSelf map[string]float64 `json:"layer_self_s,omitempty"`
}

// environment records where a result was measured.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	GitHead    string  `json:"git_head"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Processors int     `json:"par_deep_processors"`
}

// resultFile is bench/out/result.json.
type resultFile struct {
	Env       environment      `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

func readEnvironment(root string, seed int64, seconds float64) environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		GitHead:    "unknown",
		Seed:       seed,
		Seconds:    seconds,
		Processors: processors(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// A checkout that is not a git repository has no head to record.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		env.GitHead = strings.TrimSpace(string(out))
	}
	return env
}

// checkEnvironment refuses a run whose numbers would not mean what the
// README says they mean.
func checkEnvironment(tmpRoot string) error {
	if g, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); g > n {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available: ranks would share cores and wall time would measure the scheduler", g, n)
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return fmt.Errorf("temp dir %s is not writable: %w", tmpRoot, err)
	}
	probe, err := os.CreateTemp(tmpRoot, "probe-")
	if err != nil {
		return fmt.Errorf("temp dir %s is not writable: %w", tmpRoot, err)
	}
	probe.Close()
	return os.Remove(probe.Name())
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// exactCounters must read the same on every repeat of the same input; the
// allocation count only on the sequential engine, and only to 1e-3.
var exactCounters = []string{"pairgen.pairs_generated", "suffix.nodes", "unionfind.skip_ratio"}

const allocsTolerance = 1e-3

// validate checks a result file against the declaration: every declared
// workload and metric is present with its unit, names are well formed, the
// counts are within the contract's limits, and the exact counters repeat.
func validate(d *declaration, r *resultFile) []string {
	var bad []string
	badf := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if n := len(d.Workloads); n < 2 || n > 8 {
		badf("%d workloads declared, want 2 to 8", n)
	}
	if n := len(d.EndToEnd); n < 1 || n > 16 {
		badf("%d end-to-end metrics declared, want 1 to 16", n)
	}
	if n := len(d.PerLayer); n < 1 || n > 128 {
		badf("%d per-layer metrics declared, want 1 to 128", n)
	}
	seen := map[string]bool{}
	for _, group := range [][]metricDecl{d.EndToEnd, d.PerLayer} {
		for _, md := range group {
			if !nameRE.MatchString(md.Name) {
				badf("metric name %q is malformed", md.Name)
			}
			if seen[md.Name] {
				badf("metric name %q is declared twice", md.Name)
			}
			seen[md.Name] = true
		}
	}
	byName := map[string]*workloadResult{}
	for i := range r.Workloads {
		byName[r.Workloads[i].Name] = &r.Workloads[i]
	}
	for _, wd := range d.Workloads {
		if !nameRE.MatchString(wd.Name) {
			badf("workload name %q is malformed", wd.Name)
		}
		wr := byName[wd.Name]
		if wr == nil {
			badf("workload %s is missing from the result", wd.Name)
			continue
		}
		check := func(kind string, decls []metricDecl, got map[string]metricValue) {
			for _, md := range decls {
				v, ok := got[md.Name]
				switch {
				case !ok:
					badf("%s: %s metric %s is missing", wd.Name, kind, md.Name)
				case v.Unit != md.Unit:
					badf("%s: %s has unit %q, declared %q", wd.Name, md.Name, v.Unit, md.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					badf("%s: %s is not a number", wd.Name, md.Name)
				}
			}
			for name := range got {
				if !seen[name] {
					badf("%s: %s is reported but not declared", wd.Name, name)
				}
			}
		}
		check("end-to-end", d.EndToEnd, wr.EndToEnd)
		if wr.PerLayer != nil {
			check("per-layer", d.PerLayer, wr.PerLayer)
			for _, name := range exactCounters {
				if s := wr.PerLayer[name].Samples; len(s) < 2 || !allEqual(s, 0) {
					badf("%s: %s does not repeat exactly: %v", wd.Name, name, s)
				}
			}
		}
		if w, ok := findWorkload(wd.Name); ok && !w.Parallel && !w.Ingest {
			if s := wr.EndToEnd["allocs_per_est"].Samples; len(s) < 2 || !allEqual(s, allocsTolerance) {
				badf("%s: allocs_per_est does not repeat to %g: %v", wd.Name, allocsTolerance, s)
			}
		}
		if wr.Failed != 0 {
			badf("%s: %d of %d operations failed", wd.Name, wr.Failed, wr.Attempted)
		}
	}
	return bad
}

// allEqual reports whether every value is within the relative tolerance of
// the first.
func allEqual(xs []float64, tol float64) bool {
	for _, x := range xs[1:] {
		if math.Abs(x-xs[0]) > tol*math.Abs(xs[0]) {
			return false
		}
	}
	return true
}
