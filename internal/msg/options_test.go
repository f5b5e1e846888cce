package msg

import (
	"testing"

	"repro/internal/core"
	"repro/internal/via"
)

// TestChooseBoundaries pins the Auto protocol switch points at their
// exact edges under the default thresholds.
func TestChooseBoundaries(t *testing.T) {
	cases := []struct {
		size int
		want Protocol
	}{
		{1, Eager},
		{EagerMax - 1, Eager},
		{EagerMax, Eager},
		{EagerMax + 1, OneCopy},
		{OneCopyMax - 1, OneCopy},
		{OneCopyMax, OneCopy},
		{OneCopyMax + 1, ZeroCopy},
		{1 << 20, ZeroCopy},
	}
	for _, c := range cases {
		if got := Choose(c.size); got != c.want {
			t.Errorf("Choose(%d) = %v, want %v", c.size, got, c.want)
		}
	}
}

// TestOptionsChooseCustom checks the thresholds move with the options,
// again at the exact edges.
func TestOptionsChooseCustom(t *testing.T) {
	o := Options{EagerMax: 256, OneCopyMax: 4096}
	cases := []struct {
		size int
		want Protocol
	}{
		{256, Eager},
		{257, OneCopy},
		{4096, OneCopy},
		{4097, ZeroCopy},
	}
	for _, c := range cases {
		if got := o.Choose(c.size); got != c.want {
			t.Errorf("Options%+v.Choose(%d) = %v, want %v", o, c.size, got, c.want)
		}
	}
}

// TestOptionsWithDefaults checks zero fields pick up the package
// defaults while set fields survive.
func TestOptionsWithDefaults(t *testing.T) {
	d := Options{}.withDefaults()
	want := Options{
		EagerMax:      EagerMax,
		InlineMax:     via.MaxInlineData,
		OneCopyMax:    OneCopyMax,
		PipelineDepth: DefaultPipelineDepth,
		PipelineChunk: DefaultPipelineChunk,
		RingSlots:     RingSlots,
		SlotBytes:     SlotSize,
	}
	if d != want {
		t.Errorf("Options{}.withDefaults() = %+v, want %+v", d, want)
	}
	set := Options{EagerMax: 1, InlineMax: 64, OneCopyMax: 2, PipelineDepth: 1,
		PipelineChunk: 4096, RingSlots: 2, SlotBytes: 4096}
	if got := set.withDefaults(); got != set {
		t.Errorf("withDefaults clobbered set fields: %+v → %+v", set, got)
	}
	// A negative InlineMax means "no inline fast path", normalized to 0
	// so the size comparison in sendInline is a plain <=.
	if got := (Options{InlineMax: -1}).withDefaults().InlineMax; got != 0 {
		t.Errorf("InlineMax -1 normalized to %d, want 0", got)
	}
}

// TestEndpointOptionsSteerAuto proves a configured endpoint routes Auto
// sends by its own thresholds, not the package defaults: with
// OneCopyMax pulled below a message that would default to OneCopy, the
// send goes zero-copy (and, being multi-chunk with the default depth,
// pipelined).
func TestEndpointOptionsSteerAuto(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0, Options{
		EagerMax:   512,
		OneCopyMax: 64 * 1024,
	})
	c.transfer(t, 1024, Auto, 1) // default: eager; here: one-copy
	c.transfer(t, 96*1024, Auto, 2)
	st := c.epA.Stats()
	if st.EagerSends != 0 {
		t.Errorf("eager sends = %d, want 0 (EagerMax lowered to 512)", st.EagerSends)
	}
	if st.OneCopies != 1 {
		t.Errorf("one-copy sends = %d, want 1", st.OneCopies)
	}
	if st.ZeroCopies != 1 {
		t.Errorf("zero-copy sends = %d, want 1", st.ZeroCopies)
	}
}

// TestEndpointOptionsPipelineChunk checks the chunk size drives the
// rendezvous shape: a smaller chunk sets the chunk count, and a chunk
// at least as large as the message runs the serialized rendezvous —
// one chunk, no pipelined-send stats.
func TestEndpointOptionsPipelineChunk(t *testing.T) {
	const size = 256 * 1024
	cases := []struct {
		name      string
		chunk     int
		sends     uint64
		chunks    uint64
		cacheMiss uint64
	}{
		{"chunked", 32 * 1024, 1, 8, 8},
		{"serialized", size, 0, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, core.StrategyKiobuf, 0, Options{PipelineChunk: tc.chunk})
			c.transfer(t, size, ZeroCopy, 4)
			st := c.epA.Stats()
			if st.ZeroCopies != 1 {
				t.Errorf("zero-copy sends = %d, want 1", st.ZeroCopies)
			}
			if st.PipelinedSends != tc.sends || st.PipelineChunks != tc.chunks {
				t.Errorf("pipelined sends/chunks = %d/%d, want %d/%d",
					st.PipelinedSends, st.PipelineChunks, tc.sends, tc.chunks)
			}
			for _, ep := range []*Endpoint{c.epA, c.epB} {
				if m := ep.Cache().Stats().Misses; m != tc.cacheMiss {
					t.Errorf("%s registrations = %d, want %d", ep.name, m, tc.cacheMiss)
				}
			}
		})
	}
}
