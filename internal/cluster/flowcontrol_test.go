package cluster

// Tests for the paper's §3.3 flow-control formula E = min(α·δ·batchsize,
// nfree/p) and for the WORKBUF bound it is supposed to guarantee. The seed
// engine had three deviations that these tests lock in:
//
//   - an all-redundant batch (reported > 0, added == 0) fell back to the raw
//     batch length as α's numerator, inflating E without bound;
//   - nfree was divided by the slave count instead of the paper's p;
//   - the never-starve floor e = 1 was applied even with zero free space.

import (
	"fmt"
	"testing"

	"pace/internal/mp"
)

func grantCfg() Config {
	cfg := DefaultConfig(4)
	cfg.BatchSize = 60
	return cfg
}

// An entirely redundant incoming batch must fall back to the α cap, not to
// the raw batch length: with the seed behavior a slave reporting 5000
// redundant pairs would be granted E ≈ 5000·δ·batchsize.
func TestGrantEAllRedundantBatchClamped(t *testing.T) {
	cfg := grantCfg()
	const hugeFree = 1 << 20
	e := grantE(cfg, 5000, 0, 3, 3, 4, hugeFree)
	want := int(alphaMax * 1 * float64(cfg.BatchSize)) // α=cap, δ=1
	if e != want {
		t.Errorf("all-redundant grant = %d, want α_max·δ·batchsize = %d", e, want)
	}
	// And it must not scale with how many redundant pairs were reported.
	if e2 := grantE(cfg, 50000, 0, 3, 3, 4, hugeFree); e2 != e {
		t.Errorf("grant scales with redundant batch size: %d vs %d", e2, e)
	}
}

// A merely high ratio (not division by zero) is clamped the same way.
func TestGrantEAlphaRatioClamped(t *testing.T) {
	cfg := grantCfg()
	const hugeFree = 1 << 20
	// 900 reported, 3 useful → α would be 300; must clamp to 4.
	e := grantE(cfg, 900, 3, 3, 3, 4, hugeFree)
	want := int(alphaMax * 1 * float64(cfg.BatchSize))
	if e != want {
		t.Errorf("high-ratio grant = %d, want clamped %d", e, want)
	}
}

// The free-space bound divides by p (paper §3.3), not by the slave count.
func TestGrantEFreeSpaceDividedByP(t *testing.T) {
	cfg := grantCfg()
	const p, slaves = 8, 7
	e := grantE(cfg, 60, 60, slaves, slaves, p, 80)
	if want := 80 / p; e != want {
		t.Errorf("free-space-bounded grant = %d, want nfree/p = %d", e, want)
	}
}

// With no free space the grant must be zero — the seed's unconditional
// e = 1 floor could overrun a full WORKBUF by one pair per slave.
func TestGrantEZeroWhenNoFreeSpace(t *testing.T) {
	cfg := grantCfg()
	for _, nfree := range []int{0, -5} {
		if e := grantE(cfg, 60, 60, 3, 3, 4, nfree); e != 0 {
			t.Errorf("nfree=%d: grant = %d, want 0", nfree, e)
		}
	}
}

// The never-starve floor still applies when there is free space but the
// division rounds to zero.
func TestGrantEFloorWithinFreeSpace(t *testing.T) {
	cfg := grantCfg()
	// nfree/p = 3/8 = 0, but 3 slots are genuinely free.
	if e := grantE(cfg, 60, 60, 7, 7, 8, 3); e != 1 {
		t.Errorf("grant = %d, want floor of 1 within free space", e)
	}
}

// δ spreads the finished slaves' generation load over the active ones.
func TestGrantEDeltaScalesWithInactive(t *testing.T) {
	cfg := grantCfg()
	const hugeFree = 1 << 20
	allActive := grantE(cfg, 60, 60, 6, 6, 7, hugeFree)
	oneActive := grantE(cfg, 60, 60, 1, 6, 7, hugeFree)
	if oneActive != 6*allActive {
		t.Errorf("δ scaling: 1-active grant %d, want 6× all-active grant %d", oneActive, allActive)
	}
}

// The master must keep WORKBUF within WorkBufCap at every step of a real
// run; WorkBufHighWater records the maximum it ever held. A deliberately
// tiny buffer makes any accounting leak overflow immediately.
func TestWorkBufHighWaterBounded(t *testing.T) {
	b := benchSet(t, 90, 6, 5)
	for _, mpCfg := range parallelModes(4) {
		mode := "real"
		if mpCfg.Mode == mp.ModeSim {
			mode = "sim"
		}
		t.Run(fmt.Sprintf("p4_%s", mode), func(t *testing.T) {
			cfg := DefaultConfig(4)
			cfg.Window, cfg.Psi = 6, 18
			cfg.BatchSize = 8
			cfg.WorkBufCap = 16
			cfg.MP = mpCfg
			res, err := Run(b.ESTs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			hw := res.Stats.WorkBufHighWater
			if hw <= 0 {
				t.Errorf("high-water mark not recorded: %d", hw)
			}
			if hw > cfg.WorkBufCap {
				t.Errorf("WORKBUF overflowed: high water %d > cap %d", hw, cfg.WorkBufCap)
			}
		})
	}
}
