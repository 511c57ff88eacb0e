package serve

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pace"
	"pace/internal/vfs"
)

// copyDir clones the regular files of src into a fresh directory, giving
// each sweep iteration its own pristine pre-crash state dir.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			t.Fatalf("unexpected non-regular entry %s in state dir", e.Name())
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCrashWindowSweep is the crash-window consistency gate: for EVERY
// filesystem-operation index k in a session save's write sequence, abort
// the save at op k (torn writes included) and require the state directory
// to be one of exactly three things:
//
//  1. the untouched pre-save state — resume it, re-add the lost batch,
//     labels match the never-crashed control;
//  2. the complete post-save state — its labels already match the control;
//  3. a detected inconsistency — LoadState fails wrapping ErrStateMismatch
//     with the re-add recovery hint, and following that hint (resume from
//     the checkpointed prefix, re-add the remainder) reaches the control.
//
// Anything else — a silent wrong resume, an unexplained error — fails the
// sweep. Op indices are learned from a zero-plan counting pass, so the
// sweep stays exhaustive as the write sequence evolves.
func TestCrashWindowSweep(t *testing.T) {
	opt := testOptions()
	batches := testCorpus(t, 60, 3, 30) // two batches of 30
	if len(batches) != 2 {
		t.Fatalf("corpus split into %d batches, want 2", len(batches))
	}
	control := fromScratchLabels(t, batches, opt)
	allRecs := append(append([]pace.Record{}, batches[0]...), batches[1]...)

	// Base state: batch 1 ingested and saved healthily.
	base := t.TempDir()
	sess1, err := pace.NewSession(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess1.Add(pace.Sequences(batches[0])); err != nil {
		t.Fatal(err)
	}
	if err := SaveState(vfs.OS{}, base, sess1, batches[0]); err != nil {
		t.Fatal(err)
	}

	// The session whose save the sweep crashes: batch 2 already clustered
	// in memory. SaveState only reads the session, so one instance serves
	// every iteration.
	st, err := LoadState(base, opt)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := st.Resume(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.AddContext(t.Context(), pace.Sequences(batches[1])); err != nil {
		t.Fatal(err)
	}

	// Counting pass: how many mutating fs ops does the save issue?
	countDir := copyDir(t, base)
	counter := vfs.NewFaulty(vfs.OS{}, vfs.Plan{})
	if err := SaveState(counter, countDir, sess, allRecs); err != nil {
		t.Fatalf("counting pass: %v", err)
	}
	nops := counter.Stats().Ops
	if nops < 5 {
		t.Fatalf("save issued only %d fs ops; the vfs seam lost coverage", nops)
	}
	t.Logf("session save issues %d mutating fs ops", nops)

	for k := 1; k <= nops; k++ {
		dir := copyDir(t, base)
		faulty := vfs.NewFaulty(vfs.OS{}, vfs.Plan{CrashOp: k})
		err := SaveState(faulty, dir, sess, allRecs)
		if !errors.Is(err, vfs.ErrCrashed) {
			t.Fatalf("crash at op %d: SaveState returned %v, want ErrCrashed", k, err)
		}

		st, lerr := LoadState(dir, opt)
		switch {
		case lerr == nil:
			switch len(st.Recs) {
			case len(batches[0]):
				// Pre-save state survived intact: re-add the lost batch.
				re, err := st.Resume(opt)
				if err != nil {
					t.Fatalf("crash at op %d: resume pre-state: %v", k, err)
				}
				if _, err := re.Add(pace.Sequences(batches[1])); err != nil {
					t.Fatalf("crash at op %d: re-add lost batch: %v", k, err)
				}
				if !samePartition(re.Labels(), control) {
					t.Fatalf("crash at op %d: pre-state + re-add diverges from control", k)
				}
			case len(allRecs):
				// Post-save state made it down before the crash.
				if !samePartition(st.Labels, control) {
					t.Fatalf("crash at op %d: post-state labels diverge from control", k)
				}
			default:
				t.Fatalf("crash at op %d: consistent state with %d records, want %d or %d",
					k, len(st.Recs), len(batches[0]), len(allRecs))
			}

		case errors.Is(lerr, ErrStateMismatch):
			// Only the recoverable window (store ahead of checkpoint) is
			// acceptable — the save order exists to rule the other out.
			if !strings.Contains(lerr.Error(), "re-add") {
				t.Fatalf("crash at op %d: mismatch lacks the re-add recovery hint: %v", k, lerr)
			}
			// Follow the hint: resume from the checkpointed prefix of the
			// store and re-add the remainder.
			ck, err := pace.LoadCheckpoint(dir)
			if err != nil {
				t.Fatalf("crash at op %d: load checkpoint for recovery: %v", k, err)
			}
			f, err := os.Open(filepath.Join(dir, FASTAFile))
			if err != nil {
				t.Fatalf("crash at op %d: open store for recovery: %v", k, err)
			}
			recs, err := pace.ReadFASTA(f)
			f.Close()
			if err != nil {
				t.Fatalf("crash at op %d: read store for recovery: %v", k, err)
			}
			if ck.NumESTs > len(recs) {
				t.Fatalf("crash at op %d: checkpoint ahead of store (%d > %d) — the unrecoverable window the write order must prevent",
					k, ck.NumESTs, len(recs))
			}
			re, err := pace.ResumeSession(opt, pace.Sequences(recs[:ck.NumESTs]), pace.ResumeLabels(ck))
			if err != nil {
				t.Fatalf("crash at op %d: resume checkpointed prefix: %v", k, err)
			}
			if _, err := re.Add(pace.Sequences(recs[ck.NumESTs:])); err != nil {
				t.Fatalf("crash at op %d: re-add remainder: %v", k, err)
			}
			if !samePartition(re.Labels(), control) {
				t.Fatalf("crash at op %d: hint recovery diverges from control", k)
			}

		default:
			// A crash can tear session.fasta's replacement only between
			// rename and dir sync on filesystems that reorder those; with
			// temp+rename the store file itself is always whole, so any
			// other load error is a sweep failure.
			t.Fatalf("crash at op %d: LoadState failed without ErrStateMismatch: %v", k, lerr)
		}
	}
}

// TestCrashWindowSweepTornFasta covers the window copyDir-based sweeps
// cannot reach on a POSIX filesystem: the EST store itself torn mid-write.
// The temp+rename protocol means a torn store never becomes session.fasta,
// so a hand-torn store models external corruption — it must fail loudly
// (parse error or mismatch), never resume silently wrong.
func TestCrashWindowSweepTornFasta(t *testing.T) {
	opt := testOptions()
	batches := testCorpus(t, 40, 9, 40)
	dir := t.TempDir()
	sess, err := pace.NewSession(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Add(pace.Sequences(batches[0])); err != nil {
		t.Fatal(err)
	}
	if err := SaveState(vfs.OS{}, dir, sess, batches[0]); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(dir, FASTAFile)
	data, err := os.ReadFile(store)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.25, 0.5, 0.9} {
		n := int(float64(len(data)) * frac)
		if err := os.WriteFile(store, data[:n], fs.FileMode(0o644)); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadState(dir, opt); err == nil {
			t.Fatalf("torn store at %.0f%% resumed without error", frac*100)
		}
	}
}
