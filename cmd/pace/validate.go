package main

import (
	"errors"
	"fmt"
	"time"
)

// flagValues collects the command-line knobs that need cross-checking before
// any input is read, so misuse fails fast with a usage error instead of deep
// inside the pipeline.
type flagValues struct {
	in          string
	procs       int
	sim         bool
	window      int
	psi         int
	batch       int
	minOverlap  int
	minIdentity float64

	ckptDir      string
	ckptInterval time.Duration
	ckptEvery    int
	slaveTimeout time.Duration
	resume       bool

	session string
	add     bool

	simDeterministic bool
	stamp            string
}

// validateFlags performs the up-front sanity checks. Deeper consistency
// (psi >= w, WORKBUF bounds, …) is still validated by the engine config.
func validateFlags(v flagValues) error {
	if v.in == "" {
		return errors.New("-in is required")
	}
	if v.procs < 1 {
		return fmt.Errorf("-p must be >= 1, got %d", v.procs)
	}
	if v.sim && v.procs < 2 {
		return fmt.Errorf("-sim requires -p >= 2 (the simulated machine needs a master and at least one slave), got -p %d", v.procs)
	}
	if v.window < 1 {
		return fmt.Errorf("-w must be positive, got %d", v.window)
	}
	if v.psi < 1 {
		return fmt.Errorf("-psi must be positive, got %d", v.psi)
	}
	if v.psi < v.window {
		return fmt.Errorf("-psi %d must be >= -w %d (pairs anchor on window-length matches)", v.psi, v.window)
	}
	if v.batch < 1 {
		return fmt.Errorf("-batch must be positive, got %d", v.batch)
	}
	if v.minOverlap < 1 {
		return fmt.Errorf("-min-overlap must be positive, got %d", v.minOverlap)
	}
	if v.minIdentity <= 0 || v.minIdentity > 1 {
		return fmt.Errorf("-min-identity must be in (0,1], got %g", v.minIdentity)
	}
	if v.ckptInterval < 0 {
		return fmt.Errorf("-checkpoint-interval must be >= 0, got %v", v.ckptInterval)
	}
	if v.ckptEvery < 0 {
		return fmt.Errorf("-checkpoint-every must be >= 0, got %d", v.ckptEvery)
	}
	if v.slaveTimeout < 0 {
		return fmt.Errorf("-slave-timeout must be >= 0, got %v", v.slaveTimeout)
	}
	if (v.ckptInterval > 0 || v.ckptEvery > 0) && v.ckptDir == "" {
		return errors.New("-checkpoint-interval/-checkpoint-every need -checkpoint-dir")
	}
	if v.resume && v.ckptDir == "" {
		return errors.New("-resume needs -checkpoint-dir")
	}
	if v.add && v.session == "" {
		return errors.New("-add needs -session")
	}
	if v.session != "" && v.resume {
		return errors.New("-session and -resume are mutually exclusive (a session seeds from its own checkpoint)")
	}
	if v.session != "" && v.ckptDir != "" {
		return errors.New("-session and -checkpoint-dir are mutually exclusive (the session directory holds its own checkpoint)")
	}
	if v.simDeterministic && !v.sim {
		return errors.New("-sim-deterministic needs -sim (the real transport cannot replay time)")
	}
	if v.stamp != "" {
		if _, err := time.Parse(time.RFC3339, v.stamp); err != nil {
			return fmt.Errorf("-stamp must be RFC 3339 (e.g. 2002-08-20T00:00:00Z): %v", err)
		}
	}
	return nil
}
