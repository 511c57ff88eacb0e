package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pace"
	"pace/internal/simulate"
)

// TestMain lets a test run the command itself: with ESTSIM_RUN_MAIN set,
// the test binary is estsim, parsing its own command line.
func TestMain(m *testing.M) {
	if os.Getenv("ESTSIM_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runEstsim(t *testing.T, args ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ESTSIM_RUN_MAIN=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("estsim %v: %v\n%s", args, err, out)
	}
}

// TestZeroErrorIsExact checks that -error 0 means no sequencing errors:
// every read is an exact substring of its source transcript or of that
// transcript's reverse complement.
func TestZeroErrorIsExact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ests.fa")
	runEstsim(t, "-n", "200", "-seed", "5", "-error", "0", "-out", path)

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := pace.ReadFASTA(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 200 {
		t.Fatalf("%d reads, want 200", len(recs))
	}

	// The genes come from the seed alone, ahead of any read sampling, so
	// regenerating them with the same seed recovers the source transcripts.
	cfg := simulate.DefaultConfig(200)
	cfg.Seed = 5
	ref, err := simulate.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		g, err := strconv.Atoi(strings.TrimPrefix(rec.Desc, "gene="))
		if err != nil || g < 0 || g >= len(ref.Genes) {
			t.Fatalf("%s: bad gene label %q", rec.ID, rec.Desc)
		}
		mrna := ref.Genes[g].MRNA
		if !strings.Contains(mrna.String(), rec.Seq) &&
			!strings.Contains(mrna.ReverseComplement().String(), rec.Seq) {
			t.Fatalf("%s (gene %d) is not an exact substring of its transcript or its reverse complement", rec.ID, g)
		}
	}
}
