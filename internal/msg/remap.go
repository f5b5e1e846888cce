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
// Degradation rules: payloads under one page, and any send the receiver
// declines (kRemapNak: no staging memory, no TPT room, an injected
// registration fault), fall back to the reliable one-copy path — still
// under the write guard, so the ownership semantics hold either way.
// An unaligned tail shorter than a page is scatter-copied from the last
// staged frame.
//
// The remap data phase sits OUTSIDE the reliability domain (like the
// rendezvous and the stripe rails — DESIGN.md §13): a failed RDMA write
// surfaces as a typed ErrTransport on the sender and an ErrTransport
// ("peer aborted") on the receiver, never a retransmit.  The one-copy
// fallback, by contrast, rides the reliability layer as usual.
package msg

import (
	"errors"
	"fmt"

	"repro/internal/mm"
	"repro/internal/pgtable"
	"repro/internal/phys"
	"repro/internal/proc"
	"repro/internal/regcache"
	"repro/internal/trace"
	"repro/internal/via"
)

// errRemapDegraded is the internal signal that the receiver declined a
// remap grant; the sender degrades to one-copy and Recv's loop keeps
// receiving, expecting that fallback's announcement.
var errRemapDegraded = errors.New("msg: remap receive degraded")

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

	e.sendCtrl(ctrlMsg{kind: kRemapRTS, size: size})
	g := <-e.ctrl
	switch g.kind {
	case kRemapGrant:
	case kRemapNak:
		e.stats.RemapFallbacks++
		if obs := e.obs.Load(); obs != nil {
			obs.event(trace.KindRemapFallback, uint64(size), 0)
		}
		return e.sendReliable(b, false)
	default:
		return 0, fmt.Errorf("msg: expected remap grant, got kind %d", g.kind)
	}

	// The data phase honors the VI's per-descriptor bound: payloads
	// larger than MaxTransferSize move as a train of page-aligned RDMA
	// writes into the granted staging region.  Still one guard window,
	// one grant, one fin — and still outside the reliability domain:
	// the first failed chunk aborts the whole transfer, never retries.
	chunk := e.vi.MaxTransferSize()
	chunk -= chunk % phys.PageSize
	for off := 0; off < size; off += chunk {
		n := size - off
		if n > chunk {
			n = chunk
		}
		d := via.NewDescriptor(via.OpRDMAWrite, reg.Seg(off, n))
		d.Remote = via.RemoteSegment{Handle: g.handle, Offset: off}
		if err := e.vi.PostSend(d); err != nil {
			e.sendCtrl(ctrlMsg{kind: kRemapAbort})
			return 0, fmt.Errorf("%w: remap post: %w", ErrTransport, err)
		}
		if st := e.waitDesc(d); st != via.StatusSuccess {
			// Tell the receiver to release its staging and surface the
			// failure typed.
			e.sendCtrl(ctrlMsg{kind: kRemapAbort})
			return 0, fmt.Errorf("%w: remap RDMA write failed: %v", ErrTransport, st)
		}
	}
	e.sendCtrl(ctrlMsg{kind: kRemapFin, size: size})
	e.stats.SentMsgs++
	e.stats.SentBytes += uint64(size)
	e.stats.RemapSends++
	if obs := e.obs.Load(); obs != nil {
		obs.event(trace.KindRemapSend, uint64(size), uint64(b.Pages()))
	}
	return size, nil
}

// recvRemap is the frame-exchange receive: donate staging frames, grant
// them to the sender as a TPT region, and once the payload lands adopt
// every full frame into the destination buffer's page table.  The
// unaligned tail (if any) is the scatter fallback: one copy out of the
// last staged frame.
func (e *Endpoint) recvRemap(b *proc.Buffer, m ctrlMsg) (int, error) {
	kern := e.nic.Process().Kernel()
	as := e.nic.Process().AS()
	if m.size > b.Bytes {
		// Decline so the sender is not left waiting; the one-copy
		// fallback announcement then reports the same ErrTooSmall
		// taxonomy the other protocols produce.
		e.sendCtrl(ctrlMsg{kind: kRemapNak})
		return 0, fmt.Errorf("%w: message %d, buffer %d", ErrTooSmall, m.size, b.Bytes)
	}
	nak := func() (int, error) {
		e.sendCtrl(ctrlMsg{kind: kRemapNak})
		return 0, errRemapDegraded
	}
	nfull := m.size / phys.PageSize
	tail := m.size - nfull*phys.PageSize
	if nfull == 0 {
		// The sender degrades sub-page messages itself; decline if one
		// slips through anyway.
		return nak()
	}
	// Adopting frames changes the pages behind the destination, so this
	// side's idle cached registrations of them must go first: the next
	// zero-copy receive would otherwise hit them and DMA into the old
	// frames.  A registration still in use cannot be dropped; decline,
	// and the one-copy fallback delivers.
	if _, err := e.cache.InvalidateRange(b.Addr, m.size); err != nil {
		return nak()
	}
	nstage := nfull
	if tail > 0 {
		nstage++
	}
	pfns, err := kern.DonateFrames(nstage)
	if err != nil {
		return nak()
	}
	addrs := make([]phys.Addr, nstage)
	for i, p := range pfns {
		addrs[i] = p.Addr()
	}
	sreg, err := e.nic.RegisterFrames(addrs, m.size, via.MemAttrs{EnableRDMAWrite: true})
	if err != nil {
		_ = kern.ReleaseDonated(pfns)
		return nak()
	}
	e.sendCtrl(ctrlMsg{kind: kRemapGrant, handle: sreg.Handle()})
	fin := <-e.ctrl
	if fin.kind != kRemapFin {
		_ = e.nic.DeregisterMem(sreg)
		_ = kern.ReleaseDonated(pfns)
		if fin.kind == kRemapAbort {
			return 0, fmt.Errorf("%w: peer aborted remap transfer", ErrTransport)
		}
		return 0, fmt.Errorf("msg: expected remap fin, got kind %d", fin.kind)
	}
	// The staged frames must leave the TPT before they can belong to the
	// application.
	if err := e.nic.DeregisterMem(sreg); err != nil {
		_ = kern.ReleaseDonated(pfns)
		return 0, err
	}
	for i := 0; i < nfull; i++ {
		if err := kern.AdoptFrame(as, b.Addr+pgtable.VAddr(i*phys.PageSize), pfns[i]); err != nil {
			_ = kern.ReleaseDonated(pfns[i:])
			return i * phys.PageSize, err
		}
	}
	if tail > 0 {
		// Scatter fallback for the unaligned tail: one copy out of the
		// last staged frame, which is then returned to the free list.
		tmp := make([]byte, tail)
		if err := kern.Phys().ReadPhys(pfns[nfull].Addr(), tmp); err != nil {
			_ = kern.ReleaseDonated(pfns[nfull:])
			return nfull * phys.PageSize, err
		}
		if err := b.Write(nfull*phys.PageSize, tmp); err != nil {
			_ = kern.ReleaseDonated(pfns[nfull:])
			return nfull * phys.PageSize, err
		}
		e.meter.Charge(e.meter.Costs.PageCopy)
		if err := kern.ReleaseDonated(pfns[nfull:]); err != nil {
			return m.size, err
		}
	}
	e.stats.RecvMsgs++
	e.stats.RecvBytes += uint64(m.size)
	e.stats.RemapRecvs++
	e.stats.RemapPages += uint64(nfull)
	e.stats.RemapTailBytes += uint64(tail)
	if obs := e.obs.Load(); obs != nil {
		obs.event(trace.KindRemapRecv, uint64(m.size), uint64(nfull))
	}
	return m.size, nil
}
