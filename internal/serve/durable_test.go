package serve

import (
	"fmt"
	"path/filepath"
	"testing"

	"pace"
	"pace/internal/vfs"
)

// fsEvent is one mutating filesystem operation: op on path (and, for a
// rename, the path it was renamed to).
type fsEvent struct {
	op, path, to string
}

// recordingFS logs the durable-write operations the state writers issue,
// in order. The writers run on one goroutine, so the log needs no lock.
type recordingFS struct {
	vfs.FS
	log []fsEvent
}

func (r *recordingFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	f, err := r.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	r.log = append(r.log, fsEvent{op: "create", path: f.Name()})
	return &recordingFile{File: f, fs: r}, nil
}

func (r *recordingFS) Rename(oldpath, newpath string) error {
	r.log = append(r.log, fsEvent{op: "rename", path: oldpath, to: newpath})
	return r.FS.Rename(oldpath, newpath)
}

func (r *recordingFS) SyncDir(dir string) error {
	r.log = append(r.log, fsEvent{op: "syncdir", path: dir})
	return r.FS.SyncDir(dir)
}

type recordingFile struct {
	vfs.File
	fs *recordingFS
}

func (f *recordingFile) Write(p []byte) (int, error) {
	f.fs.log = append(f.fs.log, fsEvent{op: "write", path: f.Name()})
	return f.File.Write(p)
}

func (f *recordingFile) Sync() error {
	f.fs.log = append(f.fs.log, fsEvent{op: "sync", path: f.Name()})
	return f.File.Sync()
}

// checkDurable requires that the file renamed into place as final was
// fsynced after its last write and before the rename, and that the
// directory was fsynced after the rename.
func checkDurable(log []fsEvent, final string) error {
	for i, ev := range log {
		if ev.op != "rename" || filepath.Base(ev.to) != final {
			continue
		}
		synced := false
		for _, prev := range log[:i] {
			if prev.path != ev.path {
				continue
			}
			switch prev.op {
			case "write":
				synced = false
			case "sync":
				synced = true
			}
		}
		if !synced {
			return fmt.Errorf("%s renamed into place without an fsync after its last write", final)
		}
		for _, next := range log[i+1:] {
			if next.op == "syncdir" && next.path == filepath.Dir(ev.to) {
				return nil
			}
		}
		return fmt.Errorf("%s renamed into place but its directory was never fsynced", final)
	}
	return fmt.Errorf("%s was never renamed into place", final)
}

// TestStateWritersSyncBeforeRename: each of the three state writers (the EST
// store, the checkpoint and the metadata) fsyncs its temp file before the
// rename that publishes it, so a power loss cannot leave a renamed but empty
// or torn file beside a durable one.
func TestStateWritersSyncBeforeRename(t *testing.T) {
	opt := testOptions()
	recs := testCorpus(t, 30, 7, 30)[0]
	sess, err := pace.NewSession(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Add(pace.Sequences(recs)); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	fsys := &recordingFS{FS: vfs.OS{}}
	if err := SaveState(fsys, dir, sess, recs); err != nil {
		t.Fatal(err)
	}
	if err := WriteMeta(fsys, dir, Meta{ID: "s1"}); err != nil {
		t.Fatal(err)
	}
	for _, final := range []string{FASTAFile, CheckpointFile, MetaFile} {
		if err := checkDurable(fsys.log, final); err != nil {
			t.Error(err)
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmps) > 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
	if _, err := LoadState(dir, opt); err != nil {
		t.Fatalf("state written through the recorder does not load: %v", err)
	}
}
