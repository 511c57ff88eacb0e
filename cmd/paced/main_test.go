package main

import (
	"strings"
	"testing"

	"pace"
	"pace/internal/serve"
)

// TestBootRefusesSimulatedSequential follows paced's boot with -sim -p 1:
// the manager validates the session options before anything is served, and
// the sequential engine has no simulated machine, so boot fails with the
// library's refusal rather than serving wall-clock phases as virtual ones.
func TestBootRefusesSimulatedSequential(t *testing.T) {
	opt := pace.DefaultOptions()
	opt.Processors = 1
	opt.Simulated = true
	_, err := serve.NewManager(serve.Config{Options: opt})
	if err == nil || !strings.Contains(err.Error(), "pace: Simulated needs Processors >= 2") {
		t.Fatalf("-sim -p 1: error %v, want the pace: refusal", err)
	}
	opt.Processors = 2
	if _, err := serve.NewManager(serve.Config{Options: opt}); err != nil {
		t.Fatalf("-sim -p 2 refused: %v", err)
	}
}
