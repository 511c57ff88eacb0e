package main

import (
	"strings"
	"testing"
)

func TestCheckMergeShards(t *testing.T) {
	for _, k := range []int{0, 1} {
		if err := checkMergeShards(k); err != nil {
			t.Errorf("-merge-shards %d rejected: %v", k, err)
		}
	}
	for _, k := range []int{-1, 2, 16} {
		err := checkMergeShards(k)
		if err == nil || !strings.Contains(err.Error(), "-merge-shards must be 0") || !strings.Contains(err.Error(), "removed") {
			t.Errorf("-merge-shards %d: error %v, want a refusal naming the removal", k, err)
		}
	}
}
