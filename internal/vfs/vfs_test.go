package vfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// writeBytes is a WriteAtomic body that writes data.
func writeBytes(data string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, data)
		return err
	}
}

// writeSequence performs two durable writes (temp + write + fsync + rename
// + dir sync each) against fsys, the shape serve.SaveState uses for the EST
// store and the checkpoint. It returns the first error.
func writeSequence(fsys FS, dir string) error {
	if err := WriteAtomic(fsys, dir, "data", writeBytes("hello crash windows")); err != nil {
		return err
	}
	return WriteAtomic(fsys, dir, "meta", writeBytes(`{"ok":true}`))
}

// tempFile creates a temp file through fsys, failing the test on error.
func tempFile(t *testing.T, fsys FS) File {
	t.Helper()
	f, err := fsys.CreateTemp(t.TempDir(), "x-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	if err := writeSequence(OS{}, dir); err != nil {
		t.Fatalf("writeSequence: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "data"))
	if err != nil || string(got) != "hello crash windows" {
		t.Fatalf("data = %q, %v", got, err)
	}
}

func TestFaultyZeroPlanIsPassthrough(t *testing.T) {
	dir := t.TempDir()
	f := NewFaulty(OS{}, Plan{})
	if err := writeSequence(f, dir); err != nil {
		t.Fatalf("writeSequence: %v", err)
	}
	if f.Stats().Ops == 0 {
		t.Fatal("op counter did not advance")
	}
	if st := f.Stats(); st.Injected != 0 || st.Crashed {
		t.Fatalf("zero plan injected faults: %+v", st)
	}
}

// TestCrashEveryOp verifies the sticky-crash contract: for each op index
// k in the sequence, the run fails with ErrCrashed at or after op k, and
// no operation past the crash succeeds.
func TestCrashEveryOp(t *testing.T) {
	n := func() int {
		f := NewFaulty(OS{}, Plan{})
		if err := writeSequence(f, t.TempDir()); err != nil {
			t.Fatalf("counting pass failed: %v", err)
		}
		return f.Stats().Ops
	}()
	if n < 6 {
		t.Fatalf("sequence too short to sweep: %d ops", n)
	}
	for k := 1; k <= n; k++ {
		f := NewFaulty(OS{}, Plan{CrashOp: k})
		err := writeSequence(f, t.TempDir())
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("crash at op %d: err = %v, want ErrCrashed", k, err)
		}
		if got := f.Stats(); !got.Crashed {
			t.Fatalf("crash at op %d: stats = %+v", k, got)
		}
		if f.Stats().Ops < k {
			t.Fatalf("crash at op %d: only %d ops attempted", k, f.Stats().Ops)
		}
	}
}

// TestCrashWriteIsTorn checks that a crash landing on a temp file's Write
// leaves a half-written file behind rather than nothing.
func TestCrashWriteIsTorn(t *testing.T) {
	f := NewFaulty(OS{}, Plan{CrashOp: 2}) // op 1 creates the temp file
	tmp := tempFile(t, f)
	data := []byte("0123456789")
	_, err := tmp.Write(data)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	got, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatalf("torn file missing: %v", err)
	}
	if len(got) != len(data)/2 {
		t.Fatalf("torn file has %d bytes, want %d", len(got), len(data)/2)
	}
}

func TestDeterministicInjection(t *testing.T) {
	plan := Plan{Seed: 42, PWriteErr: 0.3, PSyncErr: 0.3, PRenameErr: 0.3}
	// Record, per sequence, whether a fault fired and at which op index;
	// paths differ between runs so error strings are not comparable.
	run := func() (trace []int) {
		f := NewFaulty(OS{}, plan)
		for i := 0; i < 20; i++ {
			if err := writeSequence(f, t.TempDir()); err != nil {
				if !errors.Is(err, ErrInjected) {
					t.Fatalf("unexpected error class: %v", err)
				}
				trace = append(trace, f.Stats().Ops)
			} else {
				trace = append(trace, 0)
			}
		}
		return trace
	}
	a, b := run(), run()
	inject := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at iteration %d: op %d vs op %d", i, a[i], b[i])
		}
		if a[i] != 0 {
			inject++
		}
	}
	if inject == 0 {
		t.Fatal("plan with p=0.3 injected nothing in 20 sequences")
	}
}

func TestInjectedWrapsENOSPC(t *testing.T) {
	_, err := tempFile(t, NewFaulty(OS{}, Plan{PWriteErr: 1})).Write([]byte("x"))
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ErrInjected wrapping ENOSPC", err)
	}
}

func TestMaxFaultsCap(t *testing.T) {
	tmp := tempFile(t, NewFaulty(OS{}, Plan{PWriteErr: 1, MaxFaults: 2}))
	fails := 0
	for i := 0; i < 10; i++ {
		if _, err := tmp.Write([]byte("x")); err != nil {
			fails++
		}
	}
	if fails != 2 {
		t.Fatalf("injected %d faults, want 2 (capped)", fails)
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("seed=7, crash=3, pwrite=0.1, ptorn=0.2, psync=0.3, prename=0.4, max=5")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	want := Plan{Seed: 7, CrashOp: 3, PWriteErr: 0.1, PTorn: 0.2, PSyncErr: 0.3, PRenameErr: 0.4, MaxFaults: 5}
	if p != want {
		t.Fatalf("plan = %+v, want %+v", p, want)
	}
	if p, err := ParsePlan(""); err != nil || p.enabled() {
		t.Fatalf("empty spec: %+v, %v", p, err)
	}
	for _, bad := range []string{"x", "seed", "seed=x", "crash=-1", "pwrite=2", "zzz=1"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Fatalf("ParsePlan(%q) accepted", bad)
		}
	}
}
