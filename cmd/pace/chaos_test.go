package main

import (
	"strings"
	"testing"
	"time"
)

func TestParseChaos(t *testing.T) {
	plan, err := parseChaos("crash=2:5,delay=0.1:2ms,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 7 {
		t.Errorf("Seed = %d", plan.Seed)
	}
	if plan.CrashRank != 2 || plan.CrashAfter != 5 || plan.CrashTag != 1 {
		t.Errorf("crash: %+v", plan)
	}
	if plan.DelayProb != 0.1 || plan.Delay != 2*time.Millisecond {
		t.Errorf("delay: %+v", plan)
	}
}

func TestParseChaosExplicitTag(t *testing.T) {
	plan, err := parseChaos("crash=1:3:0")
	if err != nil {
		t.Fatal(err)
	}
	if plan.CrashRank != 1 || plan.CrashAfter != 3 || plan.CrashTag != 0 {
		t.Errorf("crash: %+v", plan)
	}
}

func TestParseChaosRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"crash",          // no value
		"crash=2",        // missing after
		"crash=a:b",      // non-numeric
		"crash=1:2:3:4",  // too many fields
		"delay=1.5:1ms",  // probability out of range
		"delay=-0.1:1ms", // negative probability
		"delay=0.1",      // missing duration
		"delay=0.1:xx",   // bad duration
		"warp=0.5",       // unknown directive
		"seed=abc",       // bad seed
	} {
		if _, err := parseChaos(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

// TestParseChaosRejectsUnreliableDelivery: the engine's protocol assumes
// reliable delivery, so lost, duplicated and transiently failed messages are
// not fault classes the spec can ask for.
func TestParseChaosRejectsUnreliableDelivery(t *testing.T) {
	for _, spec := range []string{"drop=0.1", "dup=0.1", "transient=0.1"} {
		_, err := parseChaos(spec)
		if err == nil || !strings.Contains(err.Error(), "unknown chaos directive") {
			t.Errorf("spec %q: want the unknown-directive error, got %v", spec, err)
		}
	}
}

func TestParseChaosEmptyPartsIgnored(t *testing.T) {
	plan, err := parseChaos("delay=0.1:1ms,, ,")
	if err != nil {
		t.Fatal(err)
	}
	if plan.DelayProb != 0.1 {
		t.Errorf("delay: %+v", plan)
	}
}
