package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// RunReport is the machine-readable end-of-run artifact (BENCH_*.json) plus
// the paper-style text tables: the per-phase breakdown of Tables 2–3 (GST
// construction / pair generation / clustering) and the per-rank
// communication / wait / load-balance table behind Figure 4's speedup story.
type RunReport struct {
	// Tool identifies the producing command (pace, experiments, …).
	Tool string `json:"tool"`
	// Timestamp is RFC 3339 UTC at report creation.
	Timestamp string `json:"timestamp,omitempty"`
	// Dataset describes the input (file name, EST count, …).
	Dataset string `json:"dataset,omitempty"`
	// Params records the run's knobs as strings (w, psi, batch, …).
	Params map[string]string `json:"params,omitempty"`

	Procs     int  `json:"procs"`
	Simulated bool `json:"simulated"`

	// WallSeconds is real elapsed time; VirtualSeconds is the modeled
	// parallel run-time (max final rank clock) when Simulated.
	WallSeconds    float64 `json:"wall_seconds"`
	VirtualSeconds float64 `json:"virtual_seconds,omitempty"`

	NumESTs     int `json:"num_ests,omitempty"`
	NumClusters int `json:"num_clusters,omitempty"`

	// Phases is the Table-2/3-style component breakdown.
	Phases []PhaseEntry `json:"phases"`
	// Ranks is the per-rank load-balance table (parallel runs).
	Ranks []RankEntry `json:"ranks,omitempty"`
	// Counters is a flattened metrics-registry snapshot.
	Counters map[string]float64 `json:"counters,omitempty"`
}

// PhaseEntry is one row of the phase table.
type PhaseEntry struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// RankEntry is one row of the per-rank table.
type RankEntry struct {
	Rank int    `json:"rank"`
	Role string `json:"role"`

	PartitionSeconds float64 `json:"partition_seconds"`
	ConstructSeconds float64 `json:"construct_seconds"`
	PairgenSeconds   float64 `json:"pairgen_seconds"`
	AlignSeconds     float64 `json:"align_seconds"`
	TotalSeconds     float64 `json:"total_seconds"`

	MsgsSent  int64 `json:"msgs_sent"`
	BytesSent int64 `json:"bytes_sent"`
	MsgsRecv  int64 `json:"msgs_recv"`
	BytesRecv int64 `json:"bytes_recv"`

	// RecvWaitSeconds is time blocked in receives — idle time for the
	// master, load-imbalance signal for slaves.
	RecvWaitSeconds float64 `json:"recv_wait_seconds"`

	PairsGenerated int64 `json:"pairs_generated"`
	PairsProcessed int64 `json:"pairs_processed"`
	PairsAccepted  int64 `json:"pairs_accepted"`
}

// StampAt applies the report's stamp rule. A fixed t sets Timestamp and
// zeroes WallSeconds, so deterministic runs write byte-identical reports;
// the zero t stamps the current time and keeps WallSeconds.
func (r *RunReport) StampAt(t time.Time) {
	if !t.IsZero() {
		r.WallSeconds = 0
	}
	r.Timestamp = orNow(t).UTC().Format(time.RFC3339)
}

// orNow returns t, or the current time when t is zero.
func orNow(t time.Time) time.Time {
	if t.IsZero() {
		return NewWallClock().Now()
	}
	return t
}

// AttachCounters snapshots reg into Counters (nil reg is a no-op). The
// build-info gauge is excluded: its labels (VCS revision, module version)
// name the binary rather than the run, and would break the byte-identical
// contract of deterministic-sim reports across commits.
func (r *RunReport) AttachCounters(reg *Registry) {
	if reg == nil {
		return
	}
	snap := reg.Snapshot()
	for key := range snap {
		if strings.HasPrefix(key, BuildInfoMetric) {
			delete(snap, key)
		}
	}
	r.Counters = snap
}

// WriteJSON writes the report, indented, to path.
func (r *RunReport) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: encoding run report: %w", err)
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("telemetry: writing run report: %w", err)
	}
	return nil
}

// BenchFileName derives a BENCH_<tool>_<stamp>.json name for auto-named
// reports, stamped at t (the zero t means now).
func BenchFileName(tool string, t time.Time) string {
	return fmt.Sprintf("BENCH_%s_%s.json", tool, orNow(t).UTC().Format("20060102T150405Z"))
}

func fmtSeconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 0.001:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}

// FormatPhaseTable renders the phase breakdown with a percentage column,
// in the paper's component-table style.
func (r *RunReport) FormatPhaseTable() string {
	var b strings.Builder
	total := 0.0
	for _, p := range r.Phases {
		if strings.EqualFold(p.Name, "total") {
			total = p.Seconds
		}
	}
	clock := "wall"
	if r.Simulated {
		clock = "virtual"
	}
	fmt.Fprintf(&b, "phase breakdown (%s time, max over ranks)\n", clock)
	fmt.Fprintf(&b, "  %-24s %12s %8s\n", "phase", "time", "% total")
	for _, p := range r.Phases {
		pct := ""
		if total > 0 {
			pct = fmt.Sprintf("%6.1f%%", 100*p.Seconds/total)
		}
		fmt.Fprintf(&b, "  %-24s %12s %8s\n", p.Name, fmtSeconds(p.Seconds), pct)
	}
	return b.String()
}

// FormatRankTable renders the per-rank comm/wait/load table.
func (r *RunReport) FormatRankTable() string {
	if len(r.Ranks) == 0 {
		return ""
	}
	rows := append([]RankEntry(nil), r.Ranks...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Rank < rows[j].Rank })
	var b strings.Builder
	b.WriteString("per-rank load balance\n")
	fmt.Fprintf(&b, "  %4s %-7s %10s %10s %10s %10s %9s %11s %9s %11s %9s %9s %9s\n",
		"rank", "role", "construct", "pairgen", "align", "wait",
		"sent", "sentB", "recv", "recvB", "gen", "proc", "acc")
	for _, e := range rows {
		fmt.Fprintf(&b, "  %4d %-7s %10s %10s %10s %10s %9d %11d %9d %11d %9d %9d %9d\n",
			e.Rank, e.Role,
			fmtSeconds(e.ConstructSeconds), fmtSeconds(e.PairgenSeconds),
			fmtSeconds(e.AlignSeconds), fmtSeconds(e.RecvWaitSeconds),
			e.MsgsSent, e.BytesSent, e.MsgsRecv, e.BytesRecv,
			e.PairsGenerated, e.PairsProcessed, e.PairsAccepted)
	}
	return b.String()
}
