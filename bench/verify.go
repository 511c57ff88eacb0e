package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"pace/internal/metrics"
)

// digest is the canonical form of a partition: clusters are renumbered in
// order of first occurrence and the renumbered labels are hashed, so two
// label vectors digest alike exactly when they describe the same partition.
func digest(labels []int) string {
	relabel := make(map[int]uint32, len(labels))
	h := sha256.New()
	var b [4]byte
	for _, l := range labels {
		c, ok := relabel[l]
		if !ok {
			c = uint32(len(relabel))
			relabel[l] = c
		}
		binary.LittleEndian.PutUint32(b[:], c)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// adjustedRand scores a partition against the simulator's truth. Where the
// truth is all singletons the index is 0/0; internal/metrics then returns 1
// if the partition is all singletons too and 0 otherwise.
func adjustedRand(labels, truth []int) (float64, error) {
	q, err := metrics.Compare(toInt32(labels), toInt32(truth))
	if err != nil {
		return 0, err
	}
	return q.AdjustedRand(), nil
}

func toInt32(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

// checks counts the operations a run attempted and the ones that failed: a
// call that errors, a non-2xx response and a partition that fails
// verification each count once.
type checks struct {
	Attempted int
	Failed    int
	Failures  []string
}

func (c *checks) ok() { c.Attempted++ }

func (c *checks) fail(format string, args ...any) {
	c.Attempted++
	c.Failed++
	c.Failures = append(c.Failures, fmt.Sprintf(format, args...))
}

// same records one verification: got must equal want.
func (c *checks) same(what, got, want string) {
	if got == want {
		c.ok()
		return
	}
	c.fail("%s: digest %.12s, want %.12s", what, got, want)
}

// goldenSeed is the seed whose partitions are committed in golden.json.
const goldenSeed = 1

// loadGolden reads the committed digests: workload name to partition digest
// at goldenSeed and full size.
func loadGolden(path string) (map[string]string, error) {
	var g map[string]string
	err := readJSON(path, &g)
	return g, err
}
