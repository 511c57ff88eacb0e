package main

import (
	"strings"
	"testing"
)

func okFlags() flagValues {
	return flagValues{
		in: "ests.fasta", procs: 1, window: 8, psi: 20, batch: 60,
		minOverlap: 40, minIdentity: 0.9, retries: 3,
	}
}

func TestValidateFlags(t *testing.T) {
	if err := validateFlags(okFlags()); err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	simOK := okFlags()
	simOK.sim = true
	simOK.procs = 2
	if err := validateFlags(simOK); err != nil {
		t.Fatalf("valid -sim flags rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*flagValues)
		want string
	}{
		{"missing in", func(v *flagValues) { v.in = "" }, "-in is required"},
		{"zero procs", func(v *flagValues) { v.procs = 0 }, "-p must be"},
		{"sim without ranks", func(v *flagValues) { v.sim = true; v.procs = 1 }, "-sim requires -p >= 2"},
		{"zero window", func(v *flagValues) { v.window = 0 }, "-w must be positive"},
		{"zero psi", func(v *flagValues) { v.psi = 0 }, "-psi must be positive"},
		{"psi below window", func(v *flagValues) { v.psi = 4 }, "must be >= -w"},
		{"zero batch", func(v *flagValues) { v.batch = 0 }, "-batch must be positive"},
		{"zero overlap", func(v *flagValues) { v.minOverlap = 0 }, "-min-overlap must be positive"},
		{"zero identity", func(v *flagValues) { v.minIdentity = 0 }, "-min-identity must be in (0,1]"},
		{"identity above one", func(v *flagValues) { v.minIdentity = 1.5 }, "-min-identity must be in (0,1]"},
		{"zero retries", func(v *flagValues) { v.retries = 0 }, "-retries must be >= 1"},
		{"negative checkpoint interval", func(v *flagValues) { v.ckptInterval = -1 }, "-checkpoint-interval must be >= 0"},
		{"negative checkpoint every", func(v *flagValues) { v.ckptEvery = -1 }, "-checkpoint-every must be >= 0"},
		{"negative slave timeout", func(v *flagValues) { v.slaveTimeout = -1 }, "-slave-timeout must be >= 0"},
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
