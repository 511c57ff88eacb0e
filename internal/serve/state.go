// Package serve turns the pace.Session API into a system that serves
// traffic: a session manager owning many concurrent sessions behind
// per-session serialization, tenant quotas and a bounded admission queue
// (generalizing the engine's WORKBUF grant accounting to HTTP requests),
// an HTTP handler exposing the session lifecycle, and a crash-consistent
// per-session state directory shared with the pace CLI's -session mode.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pace"
	"pace/internal/vfs"
)

// A session state directory holds the pair of files that together encode a
// session: the EST store and the partition checkpoint over exactly those
// ESTs. They cannot be replaced in one atomic step, so the write order is
// chosen to keep every crash window recoverable (see SaveState) and
// LoadState verifies the pair's consistency before resuming.
const (
	// FASTAFile is the EST store: every sequence the session has ingested,
	// in ingest order (the order the checkpoint's labels index).
	FASTAFile = "session.fasta"
	// CheckpointFile is the engine checkpoint of the current partition.
	CheckpointFile = "pace.ckpt"
	// MetaFile is optional server-side session metadata (tenant, name);
	// the CLI's -session mode does not write it.
	MetaFile = "session.json"
)

// ErrStateMismatch reports a session directory whose EST store and
// checkpoint disagree — they describe different EST counts or parameters,
// so resuming would produce labels that do not cover the stored sequences.
// Errors wrapping it explain which side is ahead and how to recover.
var ErrStateMismatch = errors.New("session state mismatch between EST store and checkpoint")

// Meta is the server-side session metadata persisted next to the state
// pair. The zero value is valid for CLI-created directories.
type Meta struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant,omitempty"`
}

// State is a loaded, consistency-checked session directory.
type State struct {
	// Recs are the stored ESTs in ingest order.
	Recs []pace.Record
	// Labels is the checkpointed partition, one label per record.
	Labels []int
	// Meta is the server metadata; zero when MetaFile is absent.
	Meta Meta
}

// SaveState persists a session's state pair into dir through the given
// filesystem seam (vfs.OS{} for the real disk, a vfs.Faulty for chaos and
// crash-window tests): the EST store first, then the partition checkpoint,
// each a vfs.WriteAtomic (temp, fsync, rename, directory fsync). recs must be
// the sequences the session actually clustered — post-trim if trimming was
// applied — in ingest order.
//
// The order is the crash-safe one. A crash between the two writes leaves
// the store ahead of the checkpoint: the checkpointed labels still cover a
// prefix of the stored ESTs, so the failed batch can simply be re-added.
// The opposite order would leave labels referencing sequences that were
// never persisted — unrecoverable. LoadState tells the two cases apart.
func SaveState(fsys vfs.FS, dir string, sess *pace.Session, recs []pace.Record) error {
	if n := sess.NumESTs(); n != len(recs) {
		return fmt.Errorf("serve: saving %d records for a session holding %d ESTs", len(recs), n)
	}
	err := vfs.WriteAtomic(fsys, dir, FASTAFile, func(w io.Writer) error {
		return pace.WriteFASTA(w, recs)
	})
	if err != nil {
		return err
	}
	return sess.SaveCheckpointFS(fsys, dir)
}

// WriteMeta durably persists server-side session metadata (vfs.WriteAtomic).
func WriteMeta(fsys vfs.FS, dir string, m Meta) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return vfs.WriteAtomic(fsys, dir, MetaFile, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}

// LoadState reads and cross-checks a session directory against the run
// parameters in opt. It fails with an error wrapping ErrStateMismatch when
// the EST store and checkpoint disagree on the EST count, naming which
// side is ahead:
//
//   - store ahead of checkpoint: the crash window of SaveState — the last
//     batch was stored but never clustered durably; re-add it (or restore
//     the previous store) and resume.
//   - checkpoint ahead of store: the directory was hand-edited or the
//     store truncated; the labels reference sequences that no longer
//     exist, so the state is not trustworthy.
func LoadState(dir string, opt pace.Options) (*State, error) {
	f, err := os.Open(filepath.Join(dir, FASTAFile))
	if err != nil {
		return nil, fmt.Errorf("serve: open session store: %w", err)
	}
	recs, err := pace.ReadFASTA(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("serve: read session store: %w", err)
	}
	ck, err := pace.LoadCheckpoint(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: load session checkpoint: %w", err)
	}
	if ck.NumESTs != len(recs) {
		if ck.NumESTs < len(recs) {
			return nil, fmt.Errorf(
				"serve: %w in %s: store holds %d ESTs but checkpoint covers %d — "+
					"likely a crash between state writes; re-add the last %d sequence(s) after resuming",
				ErrStateMismatch, dir, len(recs), ck.NumESTs, len(recs)-ck.NumESTs)
		}
		return nil, fmt.Errorf(
			"serve: %w in %s: checkpoint covers %d ESTs but store holds only %d — "+
				"the store was truncated or edited; restore it before resuming",
			ErrStateMismatch, dir, ck.NumESTs, len(recs))
	}
	if err := ck.Validate(len(recs), opt.Window, opt.MinMatch); err != nil {
		return nil, fmt.Errorf("serve: %w in %s: %w", ErrStateMismatch, dir, err)
	}
	st := &State{Recs: recs, Labels: pace.ResumeLabels(ck)}
	if data, err := os.ReadFile(filepath.Join(dir, MetaFile)); err == nil {
		if err := json.Unmarshal(data, &st.Meta); err != nil {
			return nil, fmt.Errorf("serve: session metadata in %s: %w", dir, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	return st, nil
}

// Resume rebuilds a live Session from a loaded state.
func (st *State) Resume(opt pace.Options) (*pace.Session, error) {
	return pace.ResumeSession(opt, pace.Sequences(st.Recs), st.Labels)
}
