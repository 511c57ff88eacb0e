package main

import (
	"strings"
	"testing"
)

func okFlags() flagValues {
	return flagValues{in: "ests.fasta"}
}

func TestValidateFlags(t *testing.T) {
	if err := validateFlags(okFlags()); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	simOK := okFlags()
	simOK.sim = true
	if err := validateFlags(simOK); err != nil {
		t.Fatalf("valid -sim flags rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*flagValues)
		want string
	}{
		{"missing in", func(v *flagValues) { v.in = "" }, "-in is required"},
		{"cadence without dir", func(v *flagValues) { v.ckptEvery = 5 }, "need -checkpoint-dir"},
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
