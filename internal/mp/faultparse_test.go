package mp

import (
	"strings"
	"testing"
	"time"
)

func TestParsePlan(t *testing.T) {
	plan, err := ParsePlan("crash=2:5,delay=0.1:2ms,seed=7")
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

func TestParsePlanExplicitTag(t *testing.T) {
	plan, err := ParsePlan("crash=1:3:0")
	if err != nil {
		t.Fatal(err)
	}
	if plan.CrashRank != 1 || plan.CrashAfter != 3 || plan.CrashTag != 0 {
		t.Errorf("crash: %+v", plan)
	}
}

func TestParsePlanRejectsBadSpecs(t *testing.T) {
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
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

// TestParsePlanRejectsUnreliableDelivery: the engine's protocol assumes
// reliable delivery, so lost, duplicated and transiently failed messages are
// not fault classes the spec can ask for.
func TestParsePlanRejectsUnreliableDelivery(t *testing.T) {
	for _, spec := range []string{"drop=0.1", "dup=0.1", "transient=0.1"} {
		_, err := ParsePlan(spec)
		if err == nil || !strings.Contains(err.Error(), "unknown chaos directive") {
			t.Errorf("spec %q: want the unknown-directive error, got %v", spec, err)
		}
	}
}

func TestParsePlanEmptyPartsIgnored(t *testing.T) {
	plan, err := ParsePlan("delay=0.1:1ms,, ,")
	if err != nil {
		t.Fatal(err)
	}
	if plan.DelayProb != 0.1 {
		t.Errorf("delay: %+v", plan)
	}
}
