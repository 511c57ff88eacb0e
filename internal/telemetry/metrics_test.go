package telemetry

import (
	"sync"
	"testing"
)

// TestConcurrentUpdates hammers one counter, gauge and histogram from many
// goroutines; run under -race this is the registry's thread-safety proof,
// and the totals prove no update is lost.
func TestConcurrentUpdates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("pace_test_ops_total")
	g := reg.Gauge("pace_test_depth")
	h := reg.Histogram("pace_test_latency", []int64{1, 10, 100, 1000})

	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.SetMax(int64(w*perWorker + i))
				h.Observe(int64(i % 2000))
				// Interleave get-or-create with updates: same pointers
				// must come back.
				if reg.Counter("pace_test_ops_total") != c {
					t.Error("counter identity changed")
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker-1 {
		t.Errorf("gauge high-water = %d, want %d", got, workers*perWorker-1)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := h.Max(); got != 1999 {
		t.Errorf("histogram max = %d, want 1999", got)
	}
	_, counts := h.Buckets()
	var sum int64
	for _, n := range counts {
		sum += n
	}
	if sum != h.Count() {
		t.Errorf("bucket sum %d != count %d", sum, h.Count())
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	h := NewHistogram([]int64{10, 20, 40})
	for v := int64(1); v <= 50; v++ {
		h.Observe(v)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 4 || len(counts) != 4 {
		t.Fatalf("want 4 buckets, got %d/%d", len(bounds), len(counts))
	}
	want := []int64{10, 10, 20, 10} // (..10] (10..20] (20..40] (40..]
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, counts[i], w)
		}
	}
	if h.Max() != 50 || h.Sum() != 1275 || h.Count() != 50 {
		t.Errorf("max/sum/count = %d/%d/%d, want 50/1275/50", h.Max(), h.Sum(), h.Count())
	}
}

func TestExpBoundsMonotone(t *testing.T) {
	b := ExpBounds(1, 1.3, 20)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %v", i, b)
		}
	}
	// Must be accepted by NewHistogram.
	NewHistogram(b)
}

func TestFloatGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.FloatGauge("pace_test_skew")
	g.Set(1.25)
	if v := g.Value(); v != 1.25 {
		t.Errorf("float gauge = %v, want 1.25", v)
	}
}

func TestSnapshotFlattens(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pace_c", Label{Key: "rank", Value: "2"}).Add(7)
	reg.Histogram("pace_h", []int64{10}).Observe(4)
	snap := reg.Snapshot()
	if snap[`pace_c{rank="2"}`] != 7 {
		t.Errorf("snapshot counter = %v", snap[`pace_c{rank="2"}`])
	}
	if snap["pace_h_count"] != 1 || snap["pace_h_sum"] != 4 {
		t.Errorf("snapshot histogram = %v", snap)
	}
}

// TestNilSinkIsOff: a nil registry, handle or trace writer is a disabled
// sink. Every update is a no-op, every read is 0, and the per-pair updates
// allocate nothing, so call sites carry no guards.
func TestNilSinkIsOff(t *testing.T) {
	var reg *Registry
	reg.Help("pace_x", "ignored")
	c, g := reg.Counter("pace_c"), reg.Gauge("pace_g")
	f, h := reg.FloatGauge("pace_f"), reg.Histogram("pace_h", []int64{1})
	if c != nil || g != nil || f != nil || h != nil {
		t.Fatalf("nil registry handed out live handles: %v %v %v %v", c, g, f, h)
	}
	var tw *TraceWriter
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"Counter.Add", func() { c.Add(3) }},
		{"Counter.Inc", func() { c.Inc() }},
		{"Gauge.Set", func() { g.Set(3) }},
		{"Gauge.Add", func() { g.Add(3) }},
		{"Gauge.SetMax", func() { g.SetMax(3) }},
		{"FloatGauge.Set", func() { f.Set(3) }},
		{"Histogram.Observe", func() { h.Observe(3) }},
		{"TraceWriter.Span", func() { tw.Span(0, 1, "s", "c", 0, 1) }},
		{"TraceWriter.SpanArgs", func() { tw.SpanArgs(0, 1, "s", "c", 0, 1, nil) }},
		{"TraceWriter.Counter", func() { tw.Counter(0, "c", 0, 1) }},
		{"TraceWriter.ThreadName", func() { tw.ThreadName(0, 1, "t") }},
		{"TraceWriter.ProcessName", func() { tw.ProcessName(0, "p") }},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.op() })
	}
	if c.Value() != 0 || g.Value() != 0 || f.Value() != 0 {
		t.Errorf("nil handles read %d/%d/%v, want 0", c.Value(), g.Value(), f.Value())
	}
	for name, op := range map[string]func(){
		"Counter.Add":       func() { c.Add(1) },
		"Gauge.SetMax":      func() { g.SetMax(7) },
		"Histogram.Observe": func() { h.Observe(7) },
	} {
		if a := testing.AllocsPerRun(100, op); a != 0 {
			t.Errorf("%s on a nil handle: %v allocs, want 0", name, a)
		}
	}
}
