// The ownership-transfer protocol (Options.Protocol Remap/ProtectSend),
// after Power's "Using Memory-Protection to Simplify Zero-copy
// Operations": the send side revokes write permission on the payload for
// the transfer's duration (an mm write guard — concurrent stores fault
// typed or degrade copy-on-touch), and the receive side delivers
// page-aligned payloads by frame exchange — the kernel donates staging
// frames, the NIC DMAs into them, and delivery swaps them into the
// receiver's page table.  One PTE update per page instead of one page
// copy per page.
//
// Transfer: one rendezvous chunk into the donated placement (rndv.go).
// Payloads under one page skip the rendezvous and one-copy under the
// guard; a declined grant (no staging memory, no TPT room, an injected
// registration fault, a destination still registered) degrades the
// sender to the reliable one-copy path, still under the write guard, so
// the ownership semantics hold either way.  An unaligned tail shorter
// than a page is scatter-copied from the last staged frame.  A failed
// data phase is a typed ErrTransport on both sides, never a retransmit
// (DESIGN.md §13).
package msg

import (
	"repro/internal/mm"
	"repro/internal/pgtable"
	"repro/internal/phys"
	"repro/internal/proc"
	"repro/internal/regcache"
	"repro/internal/trace"
	"repro/internal/via"
	"repro/internal/vipl"
)

// sendRemap is the ownership-transfer send.
func (e *Endpoint) sendRemap(b *proc.Buffer) (int, error) {
	size := b.Bytes
	kern := e.nic.Process().Kernel()
	as := e.nic.Process().AS()

	// Pin the payload before revoking: the registration's kiobuf pin
	// faults pages present and must resolve against the frames the guard
	// will freeze, not trip the guard itself.
	reg, err := e.cache.Acquire(b, 0, size, e.payloadAttrs(false), regcache.ClassUser)
	if err != nil {
		return 0, err
	}
	defer func() { _ = e.cache.Release(reg) }()

	policy := mm.GuardFailFast
	if e.opts.ScribblePolicy == ScribbleCopy {
		policy = mm.GuardCopyOnTouch
	}
	guard, err := kern.RevokeWrite(as, b.Addr, b.Pages(), policy, func(page int) {
		// Runs under the kernel lock on the faulting goroutine: count
		// and trace, nothing that re-enters the kernel.
		e.scribbles.Add(1)
		if obs := e.obs.Load(); obs != nil {
			obs.event(trace.KindScribbleDetected, uint64(page), uint64(size))
		}
	})
	if err != nil {
		return 0, err
	}
	defer func() { _ = kern.RestoreWrite(guard) }()

	// Sub-page payloads cannot move by frame exchange; one-copy them
	// under the guard (the ownership semantics hold, only the delivery
	// mechanism degrades).
	if size < phys.PageSize {
		return e.sendReliable(b, false)
	}

	return e.sendRndv(b, placeDonated, size, reg)
}

// stageFrames is the donated placement's grant: drop this side's idle
// cached registrations of the destination, donate staging frames and
// register them as one RDMA-writable region.  Adopting frames changes
// the pages behind the destination, so a cached registration left in
// place would make the next zero-copy receive DMA into the old frames;
// one still in use cannot be dropped, so the grant fails and the
// one-copy fallback delivers.
func (e *Endpoint) stageFrames(b *proc.Buffer, size int) (*vipl.MemRegion, []phys.PFN, error) {
	if _, err := e.cache.InvalidateRange(b.Addr, size); err != nil {
		return nil, nil, err
	}
	kern := e.nic.Process().Kernel()
	pfns, err := kern.DonateFrames((size + phys.PageSize - 1) / phys.PageSize)
	if err != nil {
		return nil, nil, err
	}
	addrs := make([]phys.Addr, len(pfns))
	for i, p := range pfns {
		addrs[i] = p.Addr()
	}
	sreg, err := e.nic.RegisterFrames(addrs, size, via.MemAttrs{EnableRDMAWrite: true})
	if err != nil {
		_ = kern.ReleaseDonated(pfns)
		return nil, nil, err
	}
	return sreg, pfns, nil
}

// adoptStaged commits a remap receive once the payload landed in the
// staged frames: the staging region leaves the TPT, every full frame is
// adopted into the destination buffer's page table, and the unaligned
// tail (if any) is the scatter fallback, one copy out of the last
// staged frame.
func (e *Endpoint) adoptStaged(b *proc.Buffer, sreg *vipl.MemRegion, pfns []phys.PFN, size int) error {
	kern := e.nic.Process().Kernel()
	as := e.nic.Process().AS()
	// The staged frames must leave the TPT before they can belong to the
	// application.
	if err := e.nic.DeregisterMem(sreg); err != nil {
		_ = kern.ReleaseDonated(pfns)
		return err
	}
	nfull := size / phys.PageSize
	tail := size - nfull*phys.PageSize
	for i := 0; i < nfull; i++ {
		if err := kern.AdoptFrame(as, b.Addr+pgtable.VAddr(i*phys.PageSize), pfns[i]); err != nil {
			_ = kern.ReleaseDonated(pfns[i:])
			return err
		}
	}
	if tail > 0 {
		// Scatter fallback for the unaligned tail: one copy out of the
		// last staged frame, which returns to the free list either way.
		tmp := make([]byte, tail)
		err := kern.Phys().ReadPhys(pfns[nfull].Addr(), tmp)
		if err == nil {
			err = b.Write(nfull*phys.PageSize, tmp)
			e.meter.Charge(e.meter.Costs.PageCopy)
		}
		if rerr := kern.ReleaseDonated(pfns[nfull:]); err == nil {
			err = rerr
		}
		if err != nil {
			return err
		}
	}
	e.stats.RemapRecvs++
	e.stats.RemapPages += uint64(nfull)
	e.stats.RemapTailBytes += uint64(tail)
	if obs := e.obs.Load(); obs != nil {
		obs.event(trace.KindRemapRecv, uint64(size), uint64(nfull))
	}
	return nil
}
