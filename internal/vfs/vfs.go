// Package vfs is the filesystem seam under every durable write the serving
// stack performs: the session EST store, session metadata, and the PACECKPT
// checkpoint all go through an FS value instead of calling package os
// directly (the pacelint vfsonly analyzer enforces this for the state
// machinery). Production code uses OS, a thin passthrough; tests and chaos
// runs substitute a Faulty FS whose seeded, op-count-indexed fault plan
// injects the failures real disks produce — ENOSPC, failed fsyncs, torn
// short writes, rename failures — and whose CrashOp mode aborts a write
// sequence at an exact operation index, turning "every crash window is
// recoverable" from an argument into a swept assertion.
//
// WriteAtomic is the one durable write: every state file is replaced through
// it, so each gets the same temp, fsync, rename and directory-sync sequence.
package vfs

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is the writable-file subset the durable write paths need: write,
// fsync, close. Name reports the path the file was created under so callers
// can rename it into place.
type File interface {
	io.Writer
	// Name returns the file's path.
	Name() string
	// Sync flushes the file's contents to stable storage.
	Sync() error
	// Close closes the file.
	Close() error
}

// FS is the mutating-filesystem interface the durable write paths run on.
// Read-side calls (Open, ReadFile, Stat) stay on package os: faults on the
// write path are what tear state; reads either succeed or fail loudly.
type FS interface {
	// CreateTemp creates a new temporary file in dir (pattern as in
	// os.CreateTemp), open for writing.
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm fs.FileMode) error
	// SyncDir best-effort fsyncs a directory, making renames inside it
	// durable. Implementations may ignore failures from filesystems that
	// reject directory fsync, but must still count the operation.
	SyncDir(dir string) error
}

// OS is the production FS: a direct passthrough to package os.
type OS struct{}

// CreateTemp implements FS.
func (OS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error {
	return os.Rename(oldpath, newpath)
}

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// MkdirAll implements FS.
func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

// SyncDir implements FS. Failure is ignored past the open: some filesystems
// reject directory fsync, and the renames inside are already atomic with
// respect to crashes.
func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	_ = d.Sync()
	return d.Close()
}

// WriteAtomic durably replaces dir/name with what write produces: it writes
// a fresh temp file in dir, fsyncs and closes it, renames it over name and
// fsyncs dir. On failure it removes the temp file and returns the error, so
// a crash or power loss leaves either the old dir/name or the new one, whole.
func WriteAtomic(fsys FS, dir, name string, write func(io.Writer) error) error {
	tmp, err := fsys.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		// Best effort: the write has already failed, and nothing reads a
		// leftover temp file.
		_ = fsys.Remove(tmp.Name())
		return err
	}
	return fsys.SyncDir(dir)
}
