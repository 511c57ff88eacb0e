// Fixtures for the vfsonly analyzer. The test points VfsonlyScope at this
// package; in the real tree the scope is the state-persisting packages
// (internal/serve, internal/cluster).
package vfsonly

import "os"

// FS is the fixture's stand-in for the vfs seam.
type FS interface {
	Rename(oldpath, newpath string) error
	Remove(name string) error
}

func bad(dir string) {
	_ = os.WriteFile(dir+"/f", nil, 0o644) // want "os.WriteFile mutates the filesystem outside the vfs seam"
	_ = os.Rename(dir+"/a", dir+"/b")      // want "os.Rename mutates the filesystem outside the vfs seam"
	_, _ = os.CreateTemp(dir, "t*")        // want "os.CreateTemp mutates the filesystem outside the vfs seam"
	_ = os.MkdirAll(dir+"/d", 0o755)       // want "os.MkdirAll mutates the filesystem outside the vfs seam"
	_ = os.Remove(dir + "/f")              // want "os.Remove mutates the filesystem outside the vfs seam"
	_ = os.RemoveAll(dir + "/d")           // want "os.RemoveAll mutates the filesystem outside the vfs seam"
}

func badSync(f *os.File) {
	_ = f.Sync() // want "Sync fsyncs outside the vfs seam"
}

// Conforming: reads never need the seam — fault plans cover mutation only.
func legalReads(dir string) {
	_, _ = os.ReadFile(dir + "/f")
	_, _ = os.Open(dir + "/f")
	_, _ = os.ReadDir(dir)
	_, _ = os.Stat(dir + "/f")
}

// Conforming: writes routed through the injected seam.
func legalSeam(fsys FS, dir string) {
	_ = fsys.Rename(dir+"/a", dir+"/b")
	_ = fsys.Remove(dir + "/f")
}

// Conforming: methods named like the forbidden package functions are fine —
// only package os entry points (and *os.File fsyncs) are the seam's leaks.
func legalMethodNames(fsys FS) {
	_ = fsys.Remove("f")
}

// Conforming: annotated — e.g. removing a dead session's directory is not
// on the durability path a fault plan must cover.
func allowedInline(dir string) {
	_ = os.RemoveAll(dir) //pacelint:allow vfsonly session teardown is not a durability path
}

func allowedAbove(dir string) error {
	//pacelint:allow vfsonly the bootstrap mkdir predates any injected FS
	return os.MkdirAll(dir, 0o755)
}
