package msg

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/proc"
	"repro/internal/via"
)

// eagerSizes are the steady-state eager shapes: one inline descriptor,
// and one bounce-slot chunk below and at the slot size.
var eagerSizes = []int{64, 4 << 10, SlotSize}

// newMuxPair builds an endpoint pair whose completions go through one
// shared-CQ mux, plus a source and a destination buffer of size bytes.
func newMuxPair(tb testing.TB, size int) (*cluster, *proc.Buffer, *proc.Buffer) {
	tb.Helper()
	mux := via.NewCQMux(via.DefaultCQDepth)
	tb.Cleanup(mux.Close)
	c := newCluster(tb, core.StrategyKiobuf, 0, Options{Mux: mux})
	src, err := c.procA.Malloc(size)
	if err != nil {
		tb.Fatal(err)
	}
	dst, err := c.procB.Malloc(size)
	if err != nil {
		tb.Fatal(err)
	}
	if err := src.FillPattern(3); err != nil {
		tb.Fatal(err)
	}
	return c, src, dst
}

// eagerRoundTrip moves one eager message from A to B on the calling
// goroutine: the send completes against B's pre-posted ring, so it does
// not need B to be receiving.
func eagerRoundTrip(tb testing.TB, c *cluster, src, dst *proc.Buffer) {
	if _, err := c.epA.Send(src, Eager); err != nil {
		tb.Fatal(err)
	}
	if n, err := c.epB.Recv(dst); err != nil || n != src.Bytes {
		tb.Fatalf("recv: n=%d err=%v", n, err)
	}
}

// TestEagerSendRecvZeroAllocs pins the allocation-free eager path over a
// shared CQ: once the endpoints are warm, a Send and its Recv put
// nothing on the heap, inline-sized or chunked.  That covers the ring
// reposts, the reused chunk descriptor, the copy scratch and the mux
// wait.
func TestEagerSendRecvZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	for _, size := range eagerSizes {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			c, src, dst := newMuxPair(t, size)
			// Warm up a whole ring cycle: every slot descriptor has been
			// reposted once and both scratch slices exist.
			for i := 0; i < 2*c.epB.ringSlots; i++ {
				eagerRoundTrip(t, c, src, dst)
			}
			allocs := testing.AllocsPerRun(100, func() { eagerRoundTrip(t, c, src, dst) })
			if allocs != 0 {
				t.Errorf("%d B eager send+recv: %.2f allocs per message, want 0", size, allocs)
			}
			got, want := make([]byte, size), make([]byte, size)
			if err := src.Read(0, want); err != nil {
				t.Fatal(err)
			}
			if err := dst.Read(0, got); err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatal("payload corrupted")
			}
		})
	}
}

// BenchmarkEagerSendRecvMux is the wall cost of one eager message over a
// shared-CQ mux, Send and Recv on one goroutine.  sim-µs/op is the
// modelled cost of the same message.
func BenchmarkEagerSendRecvMux(b *testing.B) {
	for _, size := range eagerSizes {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			c, src, dst := newMuxPair(b, size)
			for i := 0; i < 2*c.epB.ringSlots; i++ {
				eagerRoundTrip(b, c, src, dst)
			}
			b.ReportAllocs()
			b.ResetTimer()
			simStart := c.meter.Now()
			for i := 0; i < b.N; i++ {
				eagerRoundTrip(b, c, src, dst)
			}
			b.ReportMetric((c.meter.Now()-simStart).Micros()/float64(b.N), "sim-µs/op")
		})
	}
}
