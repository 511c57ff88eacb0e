package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pace"
	"pace/internal/serve"
)

func normalize(labels []int) []int {
	next := 0
	remap := make(map[int]int, len(labels))
	out := make([]int, len(labels))
	for i, l := range labels {
		m, ok := remap[l]
		if !ok {
			m = next
			remap[l] = next
			next++
		}
		out[i] = m
	}
	return out
}

func TestRunSessionRoundTrip(t *testing.T) {
	b, err := pace.Simulate(pace.SimOptions{NumESTs: 40, NumGenes: 3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]pace.Record, len(b.ESTs))
	for i := range b.ESTs {
		recs[i] = pace.Record{ID: fmt.Sprintf("est%03d", i), Seq: b.ESTs[i]}
	}
	opt := pace.DefaultOptions()
	dir := filepath.Join(t.TempDir(), "sess")
	cut := 30

	cl1, recs1, err := runSession(dir, false, recs[:cut], b.ESTs[:cut], opt)
	if err != nil {
		t.Fatalf("initialize session: %v", err)
	}
	if len(recs1) != cut || len(cl1.Labels) != cut {
		t.Fatalf("initial session covers %d recs / %d labels, want %d", len(recs1), len(cl1.Labels), cut)
	}
	if _, err := os.Stat(filepath.Join(dir, serve.FASTAFile)); err != nil {
		t.Fatalf("session store not written: %v", err)
	}

	cl2, recs2, err := runSession(dir, true, recs[cut:], b.ESTs[cut:], opt)
	if err != nil {
		t.Fatalf("add batch: %v", err)
	}
	if len(recs2) != len(recs) || len(cl2.Labels) != len(recs) {
		t.Fatalf("resumed session covers %d recs / %d labels, want %d", len(recs2), len(cl2.Labels), len(recs))
	}
	for i, rec := range recs2 {
		if rec.ID != recs[i].ID {
			t.Fatalf("record %d id %q, want %q", i, rec.ID, recs[i].ID)
		}
	}

	scratch, err := pace.Cluster(b.ESTs, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, want := normalize(cl2.Labels), normalize(scratch.Labels)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("incremental CLI labels differ from from-scratch at EST %d", i)
		}
	}
	if sum := cl1.Stats.PairsGenerated + cl2.Stats.PairsGenerated; sum != scratch.Stats.PairsGenerated {
		t.Errorf("session pair counts %d+%d != from-scratch %d",
			cl1.Stats.PairsGenerated, cl2.Stats.PairsGenerated, scratch.Stats.PairsGenerated)
	}

	// The updated store must cover the union, so a third batch resumes over
	// all 40 ESTs.
	f, err := os.Open(filepath.Join(dir, serve.FASTAFile))
	if err != nil {
		t.Fatal(err)
	}
	stored, err := pace.ReadFASTA(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != len(recs) {
		t.Fatalf("session store holds %d records, want %d", len(stored), len(recs))
	}

	// Mismatched options must be rejected by the checkpoint fingerprint.
	bad := opt
	bad.Window = opt.Window - 2
	bad.MinMatch = opt.MinMatch - 2
	if _, _, err := runSession(dir, true, recs[:1], b.ESTs[:1], bad); err == nil {
		t.Error("add with mismatched window/psi: want error")
	}

	// -add against a directory that was never initialized fails cleanly.
	_, _, err = runSession(filepath.Join(t.TempDir(), "nope"), true, recs[:1], b.ESTs[:1], opt)
	if err == nil || !strings.Contains(err.Error(), "did you initialize with -session without -add?") {
		t.Errorf("add without initialized session: err = %v, want the initialization hint", err)
	}
}
