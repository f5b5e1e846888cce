package msg

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/kagent"
	"repro/internal/phys"
	"repro/internal/via"
)

// Rendezvous placements as FuzzRendezvousAbort picks them.
const (
	fuzzAcquire  = iota // ZeroCopy into Recv: per-chunk acquires
	fuzzHeld            // ZeroCopy into a PersistentRecv
	fuzzHeldPair        // PersistentSend into a PersistentRecv
	fuzzDonated         // Remap into Recv: donated frames
	fuzzPlacements
)

// Faults FuzzRendezvousAbort injects, one per input.
const (
	fuzzNoFault   = iota
	fuzzSenderReg // the sender's nth registration fails
	fuzzRecvReg   // the receiver's nth registration fails
	fuzzData      // the nth RDMA write (DMA gather on the sender) fails
	fuzzFaults
)

// FuzzRendezvousAbort runs one rendezvous per input with at most one
// fault: the fuzzer picks the size, the chunk size, the placement, the
// fault and the chunk it hits.  Every input must end on both sides
// within a deadline in one of three ways: a delivery (possibly through
// the one-copy fallback) that verifies byte for byte, a typed
// ErrTransport on both sides, or a sender registration fault before the
// announcement, which the receiver sees as ErrRecvTimeout.  Afterwards
// no registration is held on either side and no donated frame is
// orphaned.
func FuzzRendezvousAbort(f *testing.F) {
	for place := 0; place < fuzzPlacements; place++ {
		for fault := 0; fault < fuzzFaults; fault++ {
			f.Add(uint32(40*phys.PageSize+37), uint8(4), uint8(place), uint8(fault), uint8(1))
		}
	}
	f.Fuzz(func(t *testing.T, sizeSeed uint32, chunkPages, place, fault, nth uint8) {
		size := 1 + int(sizeSeed)%(48*phys.PageSize)
		chunk := (1 + int(chunkPages)%16) * phys.PageSize
		runRendezvousFault(t, size, chunk, int(place)%fuzzPlacements, int(fault)%fuzzFaults, uint64(nth)%8+1)
	})
}

// runRendezvousFault plays one FuzzRendezvousAbort input.
func runRendezvousFault(t *testing.T, size, chunk, place, fault int, nth uint64) {
	c := newCluster(t, core.StrategyKiobuf, 0, Options{PipelineChunk: chunk, RecvTimeout: 20 * time.Millisecond})
	regsA, regsB := c.agentA.Registrations(), c.agentB.Registrations()
	src, err := c.procA.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := c.procB.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.FillPattern(0x3c); err != nil {
		t.Fatal(err)
	}

	send := func() (int, error) { return c.epA.Send(src, ZeroCopy) }
	recv := func() (int, error) { return c.epB.Recv(dst) }
	var freeAll []func() error
	if place == fuzzDonated {
		send = func() (int, error) { return c.epA.Send(src, Remap) }
	}
	if place == fuzzHeld || place == fuzzHeldPair {
		pr, err := c.epB.RecvInit(dst)
		if err != nil {
			t.Fatal(err)
		}
		recv, freeAll = pr.Start, append(freeAll, pr.Free)
	}
	if place == fuzzHeldPair {
		ps, err := c.epA.SendInit(src)
		if err != nil {
			t.Fatal(err)
		}
		send, freeAll = ps.Start, append(freeAll, ps.Free)
	}

	inj := faultinject.New(1)
	switch fault {
	case fuzzSenderReg:
		inj.FailNth(kagent.SiteRegister, nth, nil)
		c.agentA.SetFaultInjector(inj)
	case fuzzRecvReg:
		inj.FailNth(kagent.SiteRegister, nth, nil)
		c.agentB.SetFaultInjector(inj)
	case fuzzData:
		inj.FailNth(via.SiteDMA, nth, nil)
		c.nicA.SetFaultInjector(inj)
	}

	type result struct {
		n   int
		err error
	}
	sent, got := make(chan result, 1), make(chan result, 1)
	go func() {
		n, err := send()
		sent <- result{n, err}
	}()
	go func() {
		// A timed-out receive consumed nothing.  Try again while the
		// sender runs, and once more after it ended, so anything it
		// announced is seen.
		for ended := false; ; {
			n, err := recv()
			if !errors.Is(err, ErrRecvTimeout) || ended {
				got <- result{n, err}
				return
			}
			select {
			case s := <-sent:
				sent <- s
				ended = true
			default:
			}
		}
	}()
	deadline := time.After(10 * time.Second)
	var s, r result
	select {
	case r = <-got:
	case <-deadline:
		t.Fatalf("size %d chunk %d place %d fault %d nth %d: receive did not end", size, chunk, place, fault, nth)
	}
	select {
	case s = <-sent:
	case <-deadline:
		t.Fatalf("size %d chunk %d place %d fault %d nth %d: send did not end", size, chunk, place, fault, nth)
	}
	c.agentA.SetFaultInjector(nil)
	c.agentB.SetFaultInjector(nil)
	c.nicA.SetFaultInjector(nil)

	desc := fmt.Sprintf("size %d chunk %d place %d fault %d nth %d: send (%d, %v), recv (%d, %v)",
		size, chunk, place, fault, nth, s.n, s.err, r.n, r.err)
	switch {
	case s.err == nil && r.err == nil:
		if s.n != size || r.n != size {
			t.Fatalf("%s: short delivery", desc)
		}
		if bad, err := dst.VerifyPattern(0x3c); err != nil || len(bad) != 0 {
			t.Fatalf("%s: corrupt delivery, bad pages %v, %v", desc, bad, err)
		}
	case errors.Is(s.err, ErrTransport) && errors.Is(r.err, ErrTransport):
		if fault != fuzzData {
			t.Fatalf("%s: transport failure without a data fault", desc)
		}
	case errors.Is(s.err, faultinject.ErrInjected) && errors.Is(r.err, ErrRecvTimeout):
		if fault != fuzzSenderReg {
			t.Fatalf("%s: sender registration failed without a registration fault", desc)
		}
	default:
		t.Fatalf("%s: untyped or mismatched outcome", desc)
	}

	for _, free := range freeAll {
		if err := free(); err != nil {
			t.Fatal(err)
		}
	}
	for _, ep := range []*Endpoint{c.epA, c.epB} {
		if _, err := ep.Cache().Flush(); err != nil {
			t.Fatal(err)
		}
		if n := ep.Cache().Len(); n != 0 {
			t.Fatalf("%s: %s cache holds %d registrations still in use", desc, ep.name, n)
		}
	}
	if a, b := c.agentA.Registrations(), c.agentB.Registrations(); a != regsA || b != regsB {
		t.Fatalf("%s: %d/%d registrations, want %d/%d", desc, a, b, regsA, regsB)
	}
	if n := c.kernelB.OrphanFrames(); n != 0 {
		t.Fatalf("%s: %d orphaned donated frames", desc, n)
	}
	for _, k := range []interface{ CheckInvariants() error }{c.kernelA, c.kernelB} {
		if err := k.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
	}
}
