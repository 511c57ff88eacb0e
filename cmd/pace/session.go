package main

// Session mode: -session names a directory that persists clustering state
// across command invocations, so new sequencing batches can be ingested
// incrementally instead of re-clustering the whole collection.
//
// The directory holds two files, managed by internal/serve's state
// machinery (shared with the paced server):
//
//	session.fasta — every EST the session has ingested, in ingest order
//	pace.ckpt     — the engine checkpoint of the current partition
//
//	pace -session dir -in first.fasta        # initialize with a first batch
//	pace -session dir -in batch2.fasta -add  # ingest a new batch incrementally
//
// Both forms emit the TSV for every EST the session holds, not just the
// latest batch. The pair is written in crash-safe order (store first, then
// checkpoint) and cross-checked at resume: a directory whose store and
// checkpoint disagree fails with serve.ErrStateMismatch and a recovery
// hint instead of a confusing downstream error.

import (
	"errors"
	"fmt"
	"io/fs"
	"os"

	"pace"
	"pace/internal/serve"
)

// runSession clusters via a persistent session directory. It returns the
// clustering plus the full record list it covers (old batches first, then
// recs).
func runSession(dir string, add bool, recs []pace.Record, seqs []string, opt pace.Options) (*pace.Clustering, []pace.Record, error) {
	if !add {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		sess, err := pace.NewSession(opt)
		if err != nil {
			return nil, nil, err
		}
		cl, err := sess.Add(seqs)
		if err != nil {
			return nil, nil, err
		}
		if err := saveSession(dir, sess, recs, seqs); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "pace: session %s initialized with %d ESTs\n", dir, len(seqs))
		return cl, recs, nil
	}

	st, err := serve.LoadState(dir, opt)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil, fmt.Errorf("open session store (did you initialize with -session without -add?): %w", err)
		}
		return nil, nil, err
	}
	oldRecs := st.Recs
	oldSeqs := pace.Sequences(oldRecs)
	sess, err := st.Resume(opt)
	if err != nil {
		return nil, nil, err
	}
	cl, err := sess.Add(seqs)
	if err != nil {
		return nil, nil, err
	}
	allRecs := append(oldRecs, recs...)
	allSeqs := append(oldSeqs, seqs...)
	if err := saveSession(dir, sess, allRecs, allSeqs); err != nil {
		return nil, nil, err
	}
	inc := cl.Stats.Incremental
	fmt.Fprintf(os.Stderr, "pace: session %s: %d + %d ESTs, buckets rebuilt=%d reused=%d, fresh pairs=%d, stale pairs suppressed=%d\n",
		dir, len(oldRecs), len(recs), inc.BucketsRebuilt, inc.BucketsReused, inc.FreshPairs, inc.StaleSuppressed)
	return cl, allRecs, nil
}

// saveSession persists the session's EST store and partition checkpoint in
// crash-safe order (store first — see serve.SaveState). The stored
// sequences are the clustered ones — post-trim when -trim is on — so a
// later -add resumes over exactly the strings the partition describes.
func saveSession(dir string, sess *pace.Session, recs []pace.Record, seqs []string) error {
	out := make([]pace.Record, len(recs))
	for i, rec := range recs {
		out[i] = pace.Record{ID: rec.ID, Desc: rec.Desc, Seq: seqs[i]}
	}
	return serve.SaveState(pace.OSFS(), dir, sess, out)
}
