package main

import (
	"errors"
	"strings"
	"testing"
	"time"

	"pace"
)

func okFlags() flagValues {
	return flagValues{in: "ests.fasta"}
}

func TestValidateFlags(t *testing.T) {
	if err := validateFlags(okFlags()); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*flagValues)
		want string
	}{
		{"missing in", func(v *flagValues) { v.in = "" }, "-in is required"},
		{"interval without dir", func(v *flagValues) { v.ckptInterval = time.Second }, "-checkpoint-interval needs -checkpoint-dir"},
		{"resume without dir", func(v *flagValues) { v.resume = true }, "-resume needs -checkpoint-dir"},
		{"add without session", func(v *flagValues) { v.add = true }, "-add needs -session"},
		{"session with resume", func(v *flagValues) {
			v.session = "s"
			v.resume = true
			v.ckptDir = "c"
		}, "-session and -resume"},
		{"session with checkpoint dir", func(v *flagValues) {
			v.session = "s"
			v.ckptDir = "c"
		}, "-session and -checkpoint-dir"},
	}
	for _, tc := range cases {
		v := okFlags()
		tc.mut(&v)
		err := validateFlags(v)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestErrLine: a CLI error carries exactly one "pace: " prefix, whether it
// comes from the library (which already prefixes) or from the command.
func TestErrLine(t *testing.T) {
	opt := pace.DefaultOptions()
	opt.Simulated = true
	_, libErr := pace.NewSession(opt)
	if libErr == nil {
		t.Fatal("-sim -p 1 accepted")
	}
	for _, err := range []error{libErr, errors.New("no records in x.fasta")} {
		got := errLine(err)
		if !strings.HasPrefix(got, "pace: ") || strings.HasPrefix(got, "pace: pace:") {
			t.Errorf("errLine(%q) = %q, want one \"pace: \" prefix", err, got)
		}
	}
}
