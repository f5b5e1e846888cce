package msg

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kagent"
	"repro/internal/mm"
	"repro/internal/phys"
	"repro/internal/proc"
	"repro/internal/simtime"
	"repro/internal/via"
	"repro/internal/vipl"
)

// cluster is a two-node test fabric with one endpoint pair.
type cluster struct {
	meter            *simtime.Meter
	kernelA, kernelB *mm.Kernel
	procA, procB     *proc.Process
	epA, epB         *Endpoint
	nw               *via.Network
	nicA, nicB       *via.NIC
	agentA, agentB   *kagent.Agent
}

func newCluster(t testing.TB, strategy core.Strategy, cacheRegions int, opts ...Options) *cluster {
	t.Helper()
	meter := simtime.NewMeter()
	cfg := mm.Config{RAMPages: 2048, SwapPages: 4096, ClockBatch: 128, SwapBatch: 32}
	c := &cluster{
		meter:   meter,
		kernelA: mm.NewKernel(cfg, meter),
		kernelB: mm.NewKernel(cfg, meter),
	}
	nw := via.NewNetwork()
	nicA := via.NewNIC("nodeA", c.kernelA.Phys(), meter, 1024)
	nicB := via.NewNIC("nodeB", c.kernelB.Phys(), meter, 1024)
	c.nw, c.nicA, c.nicB = nw, nicA, nicB
	if err := nw.Attach(nicA); err != nil {
		t.Fatal(err)
	}
	if err := nw.Attach(nicB); err != nil {
		t.Fatal(err)
	}
	agentA := kagent.New(c.kernelA, nicA, core.MustNew(strategy))
	agentB := kagent.New(c.kernelB, nicB, core.MustNew(strategy))
	c.agentA, c.agentB = agentA, agentB
	c.procA = proc.New(c.kernelA, "sender", false)
	c.procB = proc.New(c.kernelB, "receiver", false)
	var err error
	if c.epA, err = NewEndpoint("A", vipl.OpenNic(agentA, c.procA), meter, cacheRegions, opts...); err != nil {
		t.Fatal(err)
	}
	if c.epB, err = NewEndpoint("B", vipl.OpenNic(agentB, c.procB), meter, cacheRegions, opts...); err != nil {
		t.Fatal(err)
	}
	if err := Pair(nw, c.epA, c.epB); err != nil {
		t.Fatal(err)
	}
	return c
}

// transfer runs one Send/Recv pair across goroutines and verifies the
// payload pattern arrives intact.
func (c *cluster) transfer(t *testing.T, size int, p Protocol, seed byte) {
	t.Helper()
	src, err := c.procA.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := c.procB.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.FillPattern(seed); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		n, err := c.epA.Send(src, p)
		if err == nil && n != size {
			err = fmt.Errorf("sent %d of %d", n, size)
		}
		errc <- err
	}()
	n, err := c.epB.Recv(dst)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if n != size {
		t.Fatalf("received %d of %d", n, size)
	}
	if err := <-errc; err != nil {
		t.Fatalf("send: %v", err)
	}
	bad, err := dst.VerifyPattern(seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 {
		t.Fatalf("%s %dB: corrupted pages %v", p, size, bad)
	}
	if err := c.procA.Free(src); err != nil {
		t.Fatal(err)
	}
	if err := c.procB.Free(dst); err != nil {
		t.Fatal(err)
	}
}

func TestEagerSmall(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0)
	c.transfer(t, 100, Eager, 1)
	if c.epA.Stats().EagerSends != 1 {
		t.Fatalf("stats: %+v", c.epA.Stats())
	}
}

func TestEagerMultiChunk(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0)
	c.transfer(t, 3*SlotSize+123, Eager, 2)
}

func TestEagerManyMessages(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0)
	for i := 0; i < 2*RingSlots+3; i++ {
		c.transfer(t, 512, Eager, byte(i))
	}
	if got := c.epA.Stats().SentMsgs; got != 2*RingSlots+3 {
		t.Fatalf("sent = %d", got)
	}
}

func TestOneCopy(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0)
	c.transfer(t, 48*1024, OneCopy, 3)
	if c.epA.Stats().OneCopies != 1 {
		t.Fatalf("stats: %+v", c.epA.Stats())
	}
	// The sender's user buffer was registered through the cache.
	if c.epA.Cache().Stats().Misses == 0 {
		t.Fatal("one-copy did not use the registration cache")
	}
}

func TestZeroCopy(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0)
	c.transfer(t, 256*1024, ZeroCopy, 4)
	if c.epA.Stats().ZeroCopies != 1 {
		t.Fatalf("stats: %+v", c.epA.Stats())
	}
	// Both sides registered their user buffers.
	if c.epA.Cache().Stats().Misses == 0 || c.epB.Cache().Stats().Misses == 0 {
		t.Fatal("zero-copy skipped registration")
	}
}

func TestAutoSelection(t *testing.T) {
	if Choose(100) != Eager || Choose(EagerMax) != Eager {
		t.Fatal("small sizes must be eager")
	}
	if Choose(EagerMax+1) != OneCopy || Choose(OneCopyMax) != OneCopy {
		t.Fatal("mid sizes must be one-copy")
	}
	if Choose(OneCopyMax+1) != ZeroCopy {
		t.Fatal("large sizes must be zero-copy")
	}
	c := newCluster(t, core.StrategyKiobuf, 0)
	c.transfer(t, 200*1024, Auto, 5)
	if c.epA.Stats().ZeroCopies != 1 {
		t.Fatalf("auto picked %+v", c.epA.Stats())
	}
}

func TestAllProtocolsAllSizes(t *testing.T) {
	sizes := []int{1, 1000, phys.PageSize, SlotSize, SlotSize + 1, 5 * SlotSize}
	for _, p := range []Protocol{Eager, OneCopy, ZeroCopy} {
		for _, size := range sizes {
			t.Run(fmt.Sprintf("%s/%d", p, size), func(t *testing.T) {
				c := newCluster(t, core.StrategyKiobuf, 0)
				c.transfer(t, size, p, byte(size%251))
			})
		}
	}
}

func TestRegistrationCacheHitsOnReuse(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0)
	src, _ := c.procA.Malloc(256 * 1024)
	dst, _ := c.procB.Malloc(256 * 1024)
	const rounds = 5
	for i := 0; i < rounds; i++ {
		if err := src.FillPattern(byte(i)); err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() {
			_, err := c.epA.Send(src, ZeroCopy)
			errc <- err
		}()
		if _, err := c.epB.Recv(dst); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	// The pipelined rendezvous acquires one registration per chunk, so
	// the first send misses nchunks times and every later send hits
	// nchunks times.
	nchunks := (256*1024 + DefaultPipelineChunk - 1) / DefaultPipelineChunk
	st := c.epA.Cache().Stats()
	if st.Misses != uint64(nchunks) || st.Hits != uint64((rounds-1)*nchunks) {
		t.Fatalf("sender cache stats: %+v (want %d misses, %d hits)", st, nchunks, (rounds-1)*nchunks)
	}
}

// TestRecvBufferTooSmall checks a receive buffer shorter than the
// message is refused with ErrTooSmall and, for a one-chunk rendezvous,
// that the receiver declines the grant so the sender completes through
// its one-copy fallback (one ring slot) instead of waiting forever.
func TestRecvBufferTooSmall(t *testing.T) {
	cases := []struct {
		p        Protocol
		src, dst int
		sendEnds bool
	}{
		{Eager, 8 * 1024, 1024, false},
		{ZeroCopy, DefaultPipelineChunk, 4096, true},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/%d", tc.p, tc.src), func(t *testing.T) {
			c := newCluster(t, core.StrategyKiobuf, 0)
			src, _ := c.procA.Malloc(tc.src)
			dst, _ := c.procB.Malloc(tc.dst)
			errc := make(chan error, 1)
			go func() {
				_, err := c.epA.Send(src, tc.p)
				errc <- err
			}()
			if _, err := c.epB.Recv(dst); !errors.Is(err, ErrTooSmall) {
				t.Fatalf("recv: %v, want ErrTooSmall", err)
			}
			if !tc.sendEnds {
				return
			}
			select {
			case err := <-errc:
				if err != nil {
					t.Fatalf("send: %v, want success (degraded one-copy)", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("sender still waiting for a grant 5 s after the receiver refused")
			}
		})
	}
}

func TestSendEmptyRejected(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0)
	b := &proc.Buffer{}
	if _, err := c.epA.Send(b, Eager); err != ErrEmptyMessage {
		t.Fatalf("err = %v", err)
	}
}

func TestUnpairedEndpointRejected(t *testing.T) {
	meter := simtime.NewMeter()
	k := mm.NewKernel(mm.Config{RAMPages: 512, SwapPages: 512, ClockBatch: 64, SwapBatch: 16}, meter)
	nic := via.NewNIC("solo", k.Phys(), meter, 256)
	agent := kagent.New(k, nic, core.MustNew(core.StrategyKiobuf))
	p := proc.New(k, "solo", false)
	ep, err := NewEndpoint("solo", vipl.OpenNic(agent, p), meter, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf, _ := p.Malloc(64)
	if _, err := ep.Send(buf, Eager); err != ErrNotPaired {
		t.Fatalf("err = %v", err)
	}
	if _, err := ep.Recv(buf); err != ErrNotPaired {
		t.Fatalf("err = %v", err)
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0)
	// A→B then B→A, several rounds, alternating protocols.
	for i := 0; i < 4; i++ {
		c.transfer(t, 2048, Eager, byte(i))
		// Reverse direction.
		src, _ := c.procB.Malloc(64 * 1024)
		dst, _ := c.procA.Malloc(64 * 1024)
		if err := src.FillPattern(byte(100 + i)); err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() {
			_, err := c.epB.Send(src, OneCopy)
			errc <- err
		}()
		if _, err := c.epA.Recv(dst); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		bad, err := dst.VerifyPattern(byte(100 + i))
		if err != nil {
			t.Fatal(err)
		}
		if len(bad) != 0 {
			t.Fatalf("reverse transfer corrupted pages %v", bad)
		}
		_ = c.procB.Free(src)
		_ = c.procA.Free(dst)
	}
}

func TestVirtualTimeScalesWithSize(t *testing.T) {
	c := newCluster(t, core.StrategyKiobuf, 0)
	timeFor := func(size int, p Protocol) simtime.Duration {
		src, _ := c.procA.Malloc(size)
		dst, _ := c.procB.Malloc(size)
		start := c.meter.Now()
		errc := make(chan error, 1)
		go func() { _, err := c.epA.Send(src, p); errc <- err }()
		if _, err := c.epB.Recv(dst); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		_ = c.procA.Free(src)
		_ = c.procB.Free(dst)
		return c.meter.Now() - start
	}
	small := timeFor(1024, Eager)
	large := timeFor(1024*1024, ZeroCopy)
	if large <= small {
		t.Fatalf("1MiB zero-copy (%v) not slower than 1KiB eager (%v)", large, small)
	}
}

func TestZeroCopyColdVsWarm(t *testing.T) {
	// The E6/E7 shape in miniature: the second zero-copy over the same
	// buffers must be faster (registration amortized by the cache).
	c := newCluster(t, core.StrategyKiobuf, 0)
	src, _ := c.procA.Malloc(512 * 1024)
	dst, _ := c.procB.Malloc(512 * 1024)
	round := func() simtime.Duration {
		start := c.meter.Now()
		errc := make(chan error, 1)
		go func() { _, err := c.epA.Send(src, ZeroCopy); errc <- err }()
		if _, err := c.epB.Recv(dst); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		return c.meter.Now() - start
	}
	cold := round()
	warm := round()
	if warm >= cold {
		t.Fatalf("warm round (%v) not faster than cold (%v)", warm, cold)
	}
}
