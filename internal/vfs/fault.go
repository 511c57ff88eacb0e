package vfs

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// ErrCrashed is the sticky error a Faulty FS returns once its CrashOp
// index is reached: the process is modeled as dead, so every later
// operation fails too. Crash-window sweeps key on it to distinguish "the
// injected crash" from an unexpected failure.
var ErrCrashed = errors.New("vfs: simulated crash")

// ErrInjected wraps every probabilistic fault a Faulty FS injects, so
// callers (and tests) can tell planned chaos from real disk trouble.
var ErrInjected = errors.New("vfs: injected fault")

// Plan is a deterministic filesystem fault plan. Faults are decided by a
// PRNG seeded with Seed and indexed by the FS-wide operation count, so the
// same plan over the same write sequence injects the same faults — the
// filesystem analogue of mp.FaultPlan.
//
// CrashOp is the crash-window control: when > 0, operation number CrashOp
// (1-indexed across all mutating ops) and every operation after it fail
// with ErrCrashed. If the crash lands on a Write, a prefix of the data is
// written first so the sweep exercises torn-file windows, not just
// missing-file ones.
type Plan struct {
	Seed int64 // PRNG seed for the probabilistic faults

	CrashOp int // 1-indexed op at which the "process" dies; 0 = disabled

	PWriteErr  float64 // P(write fails with ENOSPC, nothing written)
	PTorn      float64 // P(write is torn: prefix lands, then ENOSPC)
	PSyncErr   float64 // P(fsync fails with EIO)
	PRenameErr float64 // P(rename fails with EIO)

	MaxFaults int // cap on probabilistic faults injected; 0 = unlimited
}

// ParsePlan parses a -chaos-fs spec of comma-separated key=value pairs:
//
//	seed=N, crash=OP, pwrite=P, ptorn=P, psync=P, prename=P, max=N
//
// Probabilities are in [0,1]. An empty spec returns a zero plan.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return p, fmt.Errorf("vfs: bad plan term %q (want key=value)", part)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return p, fmt.Errorf("vfs: bad seed %q: %w", val, err)
			}
			p.Seed = n
		case "crash":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return p, fmt.Errorf("vfs: bad crash op %q", val)
			}
			p.CrashOp = n
		case "max":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return p, fmt.Errorf("vfs: bad max %q", val)
			}
			p.MaxFaults = n
		case "pwrite", "ptorn", "psync", "prename":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 || f > 1 {
				return p, fmt.Errorf("vfs: bad probability %q=%q (want [0,1])", key, val)
			}
			switch key {
			case "pwrite":
				p.PWriteErr = f
			case "ptorn":
				p.PTorn = f
			case "psync":
				p.PSyncErr = f
			case "prename":
				p.PRenameErr = f
			}
		default:
			return p, fmt.Errorf("vfs: unknown plan key %q", key)
		}
	}
	return p, nil
}

// enabled reports whether the plan can inject anything at all.
func (p Plan) enabled() bool {
	return p.CrashOp > 0 || p.PWriteErr > 0 || p.PTorn > 0 || p.PSyncErr > 0 || p.PRenameErr > 0
}

// Stats counts what a Faulty FS actually did, for logs and assertions.
type Stats struct {
	Ops      int  // mutating operations attempted
	Injected int  // probabilistic faults injected
	Crashed  bool // the CrashOp threshold was reached
}

// Faulty wraps an FS with a Plan. All mutating operations share one
// op counter; the zero-value plan makes Faulty a pure passthrough.
type Faulty struct {
	under FS
	plan  Plan

	mu    sync.Mutex
	rng   *rand.Rand
	stats Stats
}

// NewFaulty wraps under with plan. The wrapped FS is safe for concurrent
// use if under is.
func NewFaulty(under FS, plan Plan) *Faulty {
	return &Faulty{under: under, plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// Stats returns a snapshot of the fault counters. A counting pass (zero
// plan) over a write sequence yields in Ops the op-index space a crash sweep
// iterates over.
func (f *Faulty) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// step advances the op counter and decides this operation's fate:
// crashed=true means the sticky crash has tripped; inject=true means the
// probabilistic fault drawn with probability p fires.
func (f *Faulty) step(p float64) (crashed, inject bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Ops++
	if f.plan.CrashOp > 0 && f.stats.Ops >= f.plan.CrashOp {
		f.stats.Crashed = true
		return true, false
	}
	if p > 0 && (f.plan.MaxFaults == 0 || f.stats.Injected < f.plan.MaxFaults) && f.rng.Float64() < p {
		f.stats.Injected++
		return false, true
	}
	return false, false
}

// tornFrac returns the fraction of a torn write that lands, in [0,1).
func (f *Faulty) tornFrac() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64()
}

func injected(op string, errno error) error {
	return fmt.Errorf("%w: %s: %w", ErrInjected, op, errno)
}

// CreateTemp implements FS. A crash here fails the creation outright.
func (f *Faulty) CreateTemp(dir, pattern string) (File, error) {
	if crashed, _ := f.step(0); crashed {
		return nil, fmt.Errorf("%w: create %s", ErrCrashed, pattern)
	}
	file, err := f.under.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultyFile{File: file, fs: f}, nil
}

// Rename implements FS.
func (f *Faulty) Rename(oldpath, newpath string) error {
	crashed, inject := f.step(f.plan.PRenameErr)
	if crashed {
		return fmt.Errorf("%w: rename %s", ErrCrashed, newpath)
	}
	if inject {
		return injected("rename "+newpath, syscall.EIO)
	}
	return f.under.Rename(oldpath, newpath)
}

// Remove implements FS. Remove is cleanup, not durability: it counts an op
// (so crash indices cover it) but never draws a probabilistic fault.
func (f *Faulty) Remove(name string) error {
	if crashed, _ := f.step(0); crashed {
		return fmt.Errorf("%w: remove %s", ErrCrashed, name)
	}
	return f.under.Remove(name)
}

// MkdirAll implements FS.
func (f *Faulty) MkdirAll(path string, perm fs.FileMode) error {
	if crashed, _ := f.step(0); crashed {
		return fmt.Errorf("%w: mkdir %s", ErrCrashed, path)
	}
	return f.under.MkdirAll(path, perm)
}

// SyncDir implements FS.
func (f *Faulty) SyncDir(dir string) error {
	crashed, inject := f.step(f.plan.PSyncErr)
	if crashed {
		return fmt.Errorf("%w: syncdir %s", ErrCrashed, dir)
	}
	if inject {
		return injected("syncdir "+dir, syscall.EIO)
	}
	return f.under.SyncDir(dir)
}

// faultyFile threads the plan through a temp file's Write and Sync.
type faultyFile struct {
	File
	fs *Faulty
}

func (t *faultyFile) Write(p []byte) (int, error) {
	crashed, inject := t.fs.step(t.fs.plan.PWriteErr + t.fs.plan.PTorn)
	if crashed {
		n, _ := t.File.Write(p[:len(p)/2])
		return n, fmt.Errorf("%w: write %s", ErrCrashed, t.Name())
	}
	if inject {
		// Split the combined draw between clean-fail and torn.
		if t.fs.plan.PTorn > 0 && t.fs.tornFrac() < t.fs.plan.PTorn/(t.fs.plan.PWriteErr+t.fs.plan.PTorn) {
			n, _ := t.File.Write(p[:len(p)/2])
			return n, injected("torn write "+t.Name(), syscall.ENOSPC)
		}
		return 0, injected("write "+t.Name(), syscall.ENOSPC)
	}
	return t.File.Write(p)
}

func (t *faultyFile) Sync() error {
	crashed, inject := t.fs.step(t.fs.plan.PSyncErr)
	if crashed {
		return fmt.Errorf("%w: fsync %s", ErrCrashed, t.Name())
	}
	if inject {
		return injected("fsync "+t.Name(), syscall.EIO)
	}
	return t.File.Sync()
}
