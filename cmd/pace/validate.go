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
	in string

	ckptDir      string
	ckptInterval time.Duration
	ckptEvery    int
	resume       bool

	session string
	add     bool

	stamp string
}

// validateFlags performs the checks no library call can make: that -in is
// set, that -stamp parses, and the rules between flags. Whether each value
// is in range is the library's to say (pace.NewSession).
func validateFlags(v flagValues) error {
	if v.in == "" {
		return errors.New("-in is required")
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
	if v.stamp != "" {
		if _, err := time.Parse(time.RFC3339, v.stamp); err != nil {
			return fmt.Errorf("-stamp must be RFC 3339 (e.g. 2002-08-20T00:00:00Z): %v", err)
		}
	}
	return nil
}
