// Command experiments regenerates the paper's tables and figures (§4) on
// synthetic benchmarks and a simulated parallel machine, printing the same
// rows/series the paper reports.
//
// Usage:
//
//	experiments [-exp all|table1|table2|table3|fig6a|fig6b|fig7|fig8|ablations|trim|incremental]
//	            [-scale tiny|small|medium] [-seed 1] [-report out.json]
//
// -exp incremental also writes BENCH_incremental.json: a machine-readable
// comparison of re-clustering a grown collection from scratch against
// ingesting the new batch into a warm session.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pace/internal/experiments"
	"pace/internal/metrics"
	"pace/internal/telemetry"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, table1, table2, table3, fig6a, fig6b, fig7, fig8, ablations, trim, incremental)")
	scaleName := flag.String("scale", "small", "workload scale (tiny, small, medium)")
	seed := flag.Int64("seed", 1, "benchmark random seed")
	reportPath := flag.String("report", "", "write a run-report JSON here ('auto' derives BENCH_experiments_<stamp>.json)")
	stampStr := flag.String("stamp", "", "fix the report timestamp (RFC 3339) and zero wall_seconds, for byte-reproducible reports")
	flag.Parse()

	var stamp time.Time
	if *stampStr != "" {
		var err error
		stamp, err = time.Parse(time.RFC3339, *stampStr)
		if err != nil {
			fatal(fmt.Errorf("-stamp must be RFC 3339: %v", err))
		}
	}
	repStamp = stamp

	sc, ok := experiments.ScaleByName(*scaleName)
	if !ok {
		fatal(fmt.Errorf("unknown scale %q", *scaleName))
	}

	run := map[string]func(experiments.Scale, int64) error{
		"table1":      table1,
		"table2":      table2,
		"table3":      table3,
		"fig6a":       fig6a,
		"fig6b":       fig6b,
		"fig7":        fig7,
		"fig8":        fig8,
		"ablations":   ablations,
		"trim":        trimStudy,
		"incremental": incrementalStudy,
	}
	order := []string{"table1", "table2", "table3", "fig6a", "fig6b", "fig7", "fig8", "ablations", "trim", "incremental"}

	names := order
	if *exp != "all" {
		if _, ok := run[*exp]; !ok {
			fatal(fmt.Errorf("unknown experiment %q", *exp))
		}
		names = []string{*exp}
	}

	// Per-experiment wall times feed the run report's phase table.
	pt := telemetry.NewPhaseTimer(nil)
	t0 := time.Now()
	for _, name := range names {
		pt.Start(name)
		err := run[name](sc, *seed)
		pt.End()
		if err != nil {
			fatal(err)
		}
	}
	wall := time.Since(t0)

	if *reportPath != "" {
		if err := writeReport(*reportPath, *scaleName, *seed, pt, wall, stamp); err != nil {
			fatal(err)
		}
	}
}

// writeReport emits the BENCH_*.json artifact for an experiments run.
func writeReport(path, scale string, seed int64, pt *telemetry.PhaseTimer, wall time.Duration, stamp time.Time) error {
	rep := &telemetry.RunReport{
		Tool: "experiments",
		Params: map[string]string{
			"scale": scale,
			"seed":  fmt.Sprintf("%d", seed),
		},
		Procs:       1,
		WallSeconds: wall.Seconds(),
	}
	for _, t := range pt.Totals() {
		rep.Phases = append(rep.Phases, telemetry.PhaseEntry{Name: t.Name, Seconds: t.Total.Seconds()})
	}
	rep.Phases = append(rep.Phases, telemetry.PhaseEntry{Name: "total", Seconds: wall.Seconds()})
	rep.StampAt(stamp)
	if path == "auto" {
		path = telemetry.BenchFileName("experiments", stamp)
	}
	if err := rep.WriteJSON(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "experiments: wrote run report to %s\n", path)
	return nil
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func secs(d time.Duration) string {
	return fmt.Sprintf("%8.3fs", d.Seconds())
}

func table1(sc experiments.Scale, seed int64) error {
	header("Table 1 — batch baseline (CAP3/Phrap/TIGR stand-in) vs PaCE: time & pair memory")
	rows, err := experiments.Table1(sc, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%8s  %14s  %16s  %12s  %14s\n", "n", "baseline time", "baseline pairs", "pair MB", "PaCE time")
	for _, r := range rows {
		if r.OutOfMemory {
			fmt.Printf("%8d  %14s  %16s  %12s  %14s\n", r.N, "X", "X (budget hit)",
				fmt.Sprintf(">%.1f", float64(r.BaselineBytes)/1e6), secs(r.PaceTime))
			continue
		}
		fmt.Printf("%8d  %14s  %16d  %12.1f  %14s\n", r.N, secs(r.BaselineTime),
			r.BaselinePairs, float64(r.BaselineBytes)/1e6, secs(r.PaceTime))
	}
	fmt.Println("('X' = baseline exceeded its memory budget, as in the paper's Table 1)")
	return nil
}

func qualityCols(q metrics.Quality) string {
	return fmt.Sprintf("%6.2f %6.2f %6.2f %6.2f", 100*q.OQ, 100*q.OV, 100*q.UN, 100*q.CC)
}

func table2(sc experiments.Scale, seed int64) error {
	header("Table 2 — quality (OQ OV UN CC, %) of PaCE vs batch baseline")
	rows, err := experiments.Table2(sc, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%8s  %29s  %29s\n", "n", "ours: OQ OV UN CC", "baseline: OQ OV UN CC")
	for _, r := range rows {
		base := "X (insufficient memory)"
		if r.BaselineRan {
			base = qualityCols(r.Baseline)
		}
		fmt.Printf("%8d  %29s  %29s\n", r.N, qualityCols(r.Ours), base)
	}
	return nil
}

func table3(sc experiments.Scale, seed int64) error {
	header(fmt.Sprintf("Table 3 — component times (virtual s) for %d ESTs", sc.ComponentN))
	rows, err := experiments.Table3(sc, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%5s  %12s  %12s  %12s  %12s  %12s\n",
		"p", "partitioning", "GST constr.", "sort nodes", "alignment", "total")
	for _, r := range rows {
		fmt.Printf("%5d  %12.3f  %12.3f  %12.3f  %12.3f  %12.3f\n",
			r.P, r.Phases.Partition.Seconds(), r.Phases.Construct.Seconds(),
			r.Phases.Sort.Seconds(), r.Phases.Align.Seconds(), r.Phases.Total.Seconds())
	}
	return nil
}

func fig6a(sc experiments.Scale, seed int64) error {
	header("Figure 6a — run-time (virtual s) vs number of processors")
	pts, err := experiments.Fig6a(sc, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%8s  %5s  %10s\n", "n", "p", "time")
	for _, pt := range pts {
		fmt.Printf("%8d  %5d  %10.3f\n", pt.N, pt.P, pt.Time.Seconds())
	}
	return nil
}

func fig6b(sc experiments.Scale, seed int64) error {
	pts, err := experiments.Fig6b(sc, seed)
	if err != nil {
		return err
	}
	header(fmt.Sprintf("Figure 6b — run-time (virtual s) vs data size at p=%d", pts[0].P))
	fmt.Printf("%8s  %10s\n", "n", "time")
	for _, pt := range pts {
		fmt.Printf("%8d  %10.3f\n", pt.N, pt.Time.Seconds())
	}
	return nil
}

func fig7(sc experiments.Scale, seed int64) error {
	header("Figure 7 — pairs generated / processed / accepted vs data size")
	rows, err := experiments.Fig7(sc, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%8s  %12s  %12s  %12s\n", "n", "generated", "processed", "accepted")
	for _, r := range rows {
		fmt.Printf("%8d  %12d  %12d  %12d\n", r.N, r.Generated, r.Processed, r.Accepted)
	}
	return nil
}

func fig8(sc experiments.Scale, seed int64) error {
	header(fmt.Sprintf("Figure 8 — run-time (virtual s) vs batchsize (%d ESTs)", sc.ComponentN))
	rows, err := experiments.Fig8(sc, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%10s  %10s\n", "batchsize", "time")
	for _, r := range rows {
		fmt.Printf("%10d  %10.3f\n", r.Batch, r.Time.Seconds())
	}
	return nil
}

func ablations(sc experiments.Scale, seed int64) error {
	header(fmt.Sprintf("Ablations — design variants on %d ESTs", sc.ComponentN))
	rows, err := experiments.Ablations(sc.ComponentN, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-38s  %10s  %12s  %29s\n", "variant", "time", "alignments", "OQ OV UN CC (%)")
	for _, r := range rows {
		fmt.Printf("%-38s  %10.3f  %12d  %29s\n",
			r.Variant, r.Time.Seconds(), r.PairsProcessed, qualityCols(r.Quality))
	}
	return nil
}

// incrementalBench is the artifact -exp incremental writes next to stdout.
const incrementalBench = "BENCH_incremental.json"

func incrementalStudy(sc experiments.Scale, seed int64) error {
	header(fmt.Sprintf("Incremental ingest — 90%%+10%% of %d ESTs, from scratch vs session", sc.ComponentN))
	rows, err := experiments.IncrementalStudy(sc.ComponentN, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-26s  %8s  %12s  %12s  %10s  %29s\n",
		"variant", "n", "generated", "processed", "time", "OQ OV UN CC (%)")
	for _, r := range rows {
		q := ""
		if r.N == sc.ComponentN {
			q = qualityCols(r.Quality)
		}
		fmt.Printf("%-26s  %8d  %12d  %12d  %10.3f  %29s\n",
			r.Variant, r.N, r.PairsGenerated, r.PairsProcessed, r.Time.Seconds(), q)
	}
	incr := rows[len(rows)-1]
	fmt.Printf("incremental batch: buckets rebuilt=%d reused=%d, stale pairs suppressed=%d\n",
		incr.BucketsRebuilt, incr.BucketsReused, incr.StaleSuppressed)

	rep := &telemetry.RunReport{
		Tool: "incremental",
		Params: map[string]string{
			"scale": sc.Name,
			"n":     fmt.Sprintf("%d", sc.ComponentN),
			"seed":  fmt.Sprintf("%d", seed),
			"split": "90/10",
		},
		Procs:    1,
		Counters: map[string]float64{},
	}
	for _, r := range rows {
		rep.Phases = append(rep.Phases, telemetry.PhaseEntry{Name: r.Variant, Seconds: r.Time.Seconds()})
	}
	scratch := rows[1]
	rep.WallSeconds = scratch.Time.Seconds() + incr.Time.Seconds()
	rep.Counters["from_scratch_pairs_generated"] = float64(scratch.PairsGenerated)
	rep.Counters["from_scratch_pairs_processed"] = float64(scratch.PairsProcessed)
	rep.Counters["incremental_pairs_generated"] = float64(incr.PairsGenerated)
	rep.Counters["incremental_pairs_processed"] = float64(incr.PairsProcessed)
	rep.Counters["incremental_buckets_rebuilt"] = float64(incr.BucketsRebuilt)
	rep.Counters["incremental_buckets_reused"] = float64(incr.BucketsReused)
	rep.Counters["incremental_stale_suppressed"] = float64(incr.StaleSuppressed)
	rep.StampAt(repStamp)
	if err := rep.WriteJSON(incrementalBench); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "experiments: wrote incremental comparison to %s\n", incrementalBench)
	return nil
}

// repStamp mirrors the -stamp flag for study functions that write their own
// report files (the dispatch-table signature has no room to thread it).
var repStamp time.Time

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

func trimStudy(sc experiments.Scale, seed int64) error {
	header(fmt.Sprintf("Trim study — poly(A) tails vs trimmed, %d ESTs", sc.ComponentN))
	rows, err := experiments.TrimStudy(sc.ComponentN, seed)
	if err != nil {
		return err
	}
	fmt.Printf("%-24s  %12s  %12s  %10s  %29s\n",
		"variant", "generated", "processed", "time", "OQ OV UN CC (%)")
	for _, r := range rows {
		fmt.Printf("%-24s  %12d  %12d  %10.3f  %29s\n",
			r.Variant, r.PairsGenerated, r.PairsProcessed, r.Time.Seconds(), qualityCols(r.Quality))
	}
	return nil
}
