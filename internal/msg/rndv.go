package msg

import (
	"errors"
	"fmt"

	"repro/internal/phys"
	"repro/internal/proc"
	"repro/internal/regcache"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/via"
	"repro/internal/vipl"
)

// The rendezvous (DESIGN.md §9) is the one handshake behind every
// zero-copy transfer: plain zero-copy sends, persistent requests and the
// remap protocol.  The sender announces the message (kRTS, carrying the
// size, the chunking and the requested placement).  For each chunk the
// receiver grants a placement (kGrant), the sender moves the chunk as a
// train of RDMA writes of at most MaxTransferSize each and reports it
// (kFin).  Either side unwinds with kRndvAbort, which says what the other
// side does next: a degrade abort (a registration or grant failed before
// the chunk's data moved) sends the payload through the one-copy path
// instead; a fail abort (the data phase failed) surfaces as ErrTransport
// on both sides.  The data phase is outside the reliability domain
// (DESIGN.md §13) and is never retried.

// placement names the receiver-side memory a rendezvous grant exposes.
type placement uint8

const (
	// placeAcquire acquires a regcache registration of the user buffer
	// per chunk.
	placeAcquire placement = iota
	// placeHeld grants windows of the registration a PersistentRecv
	// holds.
	placeHeld
	// placeDonated grants kernel-donated staging frames, adopted into
	// the destination's page table on commit (the remap receive).
	placeDonated
)

// errDegrade is the internal signal that a rendezvous unwound before its
// data moved.  The sender falls back to the one-copy path; the
// receiver's Recv loop keeps receiving, expecting that fallback's
// announcement.
var errDegrade = errors.New("msg: rendezvous degraded to one-copy")

// sendZeroCopy sends b by rendezvous into per-chunk registrations of the
// destination, PipelineChunk bytes per chunk.  A message of one chunk
// registers the whole buffer before the RTS, so a registration fault
// leaves the peer untouched and the two sides' registrations are charged
// serially, never overlapped.
func (e *Endpoint) sendZeroCopy(b *proc.Buffer) (int, error) {
	if chunk := e.opts.PipelineChunk; b.Bytes > chunk {
		return e.sendRndv(b, placeAcquire, chunk, nil)
	}
	reg, err := e.cache.Acquire(b, 0, b.Bytes, e.payloadAttrs(false), regcache.ClassUser)
	if err != nil {
		return 0, err
	}
	defer func() { _ = e.cache.Release(reg) }()
	return e.sendRndv(b, placeAcquire, b.Bytes, reg)
}

// sendRndv runs the rendezvous send of b in chunks of chunk bytes and,
// if either side unwound it before the data moved, degrades to the
// one-copy path, which rides the reliability layer.  src is a held
// registration of the whole buffer, or nil to acquire each chunk upon
// its grant.
func (e *Endpoint) sendRndv(b *proc.Buffer, place placement, chunk int, src *vipl.MemRegion) (int, error) {
	nchunks := (b.Bytes + chunk - 1) / chunk
	n, err := e.sendChunks(b, place, chunk, nchunks, src)
	if !errors.Is(err, errDegrade) {
		return n, err
	}
	kind, fallbacks := trace.KindPipeFallback, &e.stats.PipelineFallbacks
	if place == placeDonated {
		kind, fallbacks = trace.KindRemapFallback, &e.stats.RemapFallbacks
	}
	*fallbacks++
	if obs := e.obs.Load(); obs != nil {
		obs.event(kind, uint64(b.Bytes), uint64(nchunks))
	}
	return e.sendReliable(b, false)
}

// sendChunks is the sender loop.  With two or more chunks it is the
// pipeline: while chunk i's RDMA write is in flight the receiver
// acquires chunk i+1's registration, and the sender acquires its own
// upon the grant.  The shared virtual clock is a total-work meter, so
// with PipelineDepth >= 2 the overlap is modelled explicitly: each side
// rewinds by the cost the incoming control message reports (the work the
// peer did "during" the same window), times its own work, and the sender
// closes every window by charging the deficit up to max(transfer, peer
// registration, own registration).  Trace spans (KindChunkReg /
// KindChunkXfer) carry the rewound timestamps.  A single chunk runs
// strictly serialized and emits no chunk spans.
func (e *Endpoint) sendChunks(b *proc.Buffer, place placement, chunk, nchunks int, src *vipl.MemRegion) (int, error) {
	size := b.Bytes
	overlap := nchunks >= 2 && e.opts.PipelineDepth >= 2
	e.sendCtrl(ctrlMsg{kind: kRTS, size: size, nchunks: nchunks, chunk: chunk, place: place})

	var (
		reg      *vipl.MemRegion // the live chunk registration when src is nil
		prevXfer simtime.Duration
	)
	defer func() {
		if reg != nil {
			_ = e.cache.Release(reg)
		}
	}()
	for i := 0; i < nchunks; i++ {
		g, err := e.awaitRndv(kGrant, i)
		if err != nil {
			return 0, err
		}
		off := i * chunk
		n := min(chunk, size-off)
		from, base := src, off
		if src == nil {
			// Overlap window: the receiver's registration (g.cost) and the
			// previous chunk's transfer (prevXfer) were concurrent with
			// the acquire below; rewind to the window start, do the
			// acquire, then close the window at the maximum of the three.
			if overlap {
				e.meter.Retreat(g.cost)
			}
			obs, sp := e.chunkSpanBegin(trace.KindChunkReg, i, n, nchunks)
			sw := e.meter.Start()
			creg, err := e.cache.Acquire(b, off, n, e.payloadAttrs(false), regcache.ClassUser)
			regCost := sw.Elapsed()
			e.chunkSpanEnd(obs, sp, trace.KindChunkReg, err == nil, i)
			if err != nil {
				e.sendCtrl(ctrlMsg{kind: kRndvAbort, idx: i, degrade: true})
				return 0, fmt.Errorf("%w: chunk %d registration: %w", errDegrade, i, err)
			}
			if overlap {
				e.meter.Charge(max(prevXfer, g.cost, regCost) - regCost)
			}
			if reg != nil {
				_ = e.cache.Release(reg)
			}
			reg = creg
			from, base = reg, 0
		}

		obs, sp := e.chunkSpanBegin(trace.KindChunkXfer, i, n, nchunks)
		sw := e.meter.Start()
		err = e.writeChunk(from, base, n, g)
		e.chunkSpanEnd(obs, sp, trace.KindChunkXfer, err == nil, i)
		if err != nil {
			// Tell the receiver to release its grant instead of waiting
			// for a fin that will never come.
			e.sendCtrl(ctrlMsg{kind: kRndvAbort, idx: i})
			return 0, fmt.Errorf("%w: rendezvous chunk %d/%d: %w", ErrTransport, i, nchunks, err)
		}
		fin := ctrlMsg{kind: kFin, idx: i, size: n}
		if overlap {
			prevXfer = sw.Elapsed()
			fin.cost = prevXfer
		}
		e.sendCtrl(fin)
	}
	e.stats.SentMsgs++
	e.stats.SentBytes += uint64(size)
	obs := e.obs.Load()
	if place == placeDonated {
		e.stats.RemapSends++
		if obs != nil {
			obs.event(trace.KindRemapSend, uint64(size), uint64(b.Pages()))
		}
	} else {
		e.stats.ZeroCopies++
	}
	if nchunks >= 2 {
		e.stats.PipelinedSends++
		e.stats.PipelineChunks += uint64(nchunks)
		if obs != nil {
			obs.pipeline(nchunks)
		}
	}
	return size, nil
}

// writeChunk RDMA-writes n bytes of from, starting at base, into the
// region g grants, as a train of writes within the VI's MaxTransferSize.
func (e *Endpoint) writeChunk(from *vipl.MemRegion, base, n int, g ctrlMsg) error {
	limit := e.vi.MaxTransferSize()
	for k := 0; k < n; k += limit {
		d := via.NewDescriptor(via.OpRDMAWrite, from.Seg(base+k, min(limit, n-k)))
		d.Remote = via.RemoteSegment{Handle: g.handle, Offset: g.offset + k}
		if err := e.vi.PostSend(d); err != nil {
			return err
		}
		if st := e.waitDesc(d); st != via.StatusSuccess {
			return fmt.Errorf("RDMA write failed: %v", st)
		}
	}
	return nil
}

// awaitRndv waits for the peer's grant or fin (want) of chunk idx.  A
// kRndvAbort becomes errDegrade or ErrTransport, as the abort says.
func (e *Endpoint) awaitRndv(want ctrlKind, idx int) (ctrlMsg, error) {
	m := <-e.ctrl
	switch {
	case m.kind == want && m.idx == idx:
		return m, nil
	case m.kind == kRndvAbort && m.degrade:
		return m, fmt.Errorf("%w: peer unwound at chunk %d", errDegrade, m.idx)
	case m.kind == kRndvAbort:
		return m, fmt.Errorf("%w: peer aborted the rendezvous at chunk %d", ErrTransport, m.idx)
	default:
		return m, fmt.Errorf("msg: rendezvous expected kind %d for chunk %d, got kind %d for chunk %d", want, idx, m.kind, m.idx)
	}
}

// rndvRecv is one rendezvous receive: the destination, the RTS and the
// placement its grants name.
type rndvRecv struct {
	e     *Endpoint
	b     *proc.Buffer
	rts   ctrlMsg
	place placement
	held  *vipl.MemRegion
	pfns  []phys.PFN // placeDonated: the staged frames
}

// recvRndv is the receiver loop for the RTS m: grant each chunk once the
// previous chunk's fin arrived, release the previous grant only after
// the next one (at most two are live at once), and commit after the
// last fin.  held, when non-nil, is a PersistentRecv's registration and
// overrides the requested placement.  A grant that fails is declined
// with a degrade abort and returns errDegrade.
func (e *Endpoint) recvRndv(b *proc.Buffer, m ctrlMsg, held *vipl.MemRegion) (int, error) {
	if m.size > b.Bytes {
		// Decline so the sender is not left waiting; its one-copy
		// fallback then meets the same ErrTooSmall the other protocols
		// report.
		e.sendCtrl(ctrlMsg{kind: kRndvAbort, degrade: true})
		return 0, fmt.Errorf("%w: message %d, buffer %d", ErrTooSmall, m.size, b.Bytes)
	}
	r := rndvRecv{e: e, b: b, rts: m, place: m.place, held: held}
	if held != nil {
		r.place = placeHeld
	}
	var (
		cur *vipl.MemRegion
		fin ctrlMsg
	)
	for i := 0; i < m.nchunks; i++ {
		next, err := r.grant(i, fin.cost)
		r.release(cur)
		if err != nil {
			return 0, err
		}
		cur = next
		if fin, err = e.awaitRndv(kFin, i); err != nil {
			r.release(cur)
			return 0, err
		}
	}
	return r.commit(cur)
}

// grant exposes chunk idx's placement to the sender and returns the
// region it names.  prevCost is the transfer the previous fin reported:
// an acquire rewinds by it first, so the registration's span overlaps
// the transfer it hides behind (the sender's deficit charge closes the
// window).
func (r *rndvRecv) grant(idx int, prevCost simtime.Duration) (reg *vipl.MemRegion, err error) {
	e, m := r.e, r.rts
	off := idx * m.chunk
	g := ctrlMsg{kind: kGrant, idx: idx}
	switch r.place {
	case placeHeld:
		// Already registered: the grant costs nothing, and the sender's
		// own acquires pace the pipeline.
		reg, g.offset = r.held, off
	case placeDonated:
		reg, r.pfns, err = e.stageFrames(r.b, m.size)
	default:
		n := min(m.chunk, m.size-off)
		e.meter.Retreat(prevCost)
		obs, sp := e.chunkSpanBegin(trace.KindChunkReg, idx, n, m.nchunks)
		sw := e.meter.Start()
		reg, err = e.cache.Acquire(r.b, off, n, e.payloadAttrs(true), regcache.ClassUser)
		g.cost = sw.Elapsed()
		e.chunkSpanEnd(obs, sp, trace.KindChunkReg, err == nil, idx)
	}
	if err != nil {
		e.sendCtrl(ctrlMsg{kind: kRndvAbort, idx: idx, degrade: true})
		return nil, fmt.Errorf("%w: chunk %d grant: %w", errDegrade, idx, err)
	}
	g.handle = reg.Handle()
	e.sendCtrl(g)
	return reg, nil
}

// release drops a grant (nil: none) that the transfer no longer needs
// or that an abort unwound.  A held registration stays with its
// PersistentRecv.
func (r *rndvRecv) release(reg *vipl.MemRegion) {
	switch {
	case reg == nil:
	case r.place == placeAcquire:
		_ = r.e.cache.Release(reg)
	case r.place == placeDonated:
		_ = r.e.nic.DeregisterMem(reg)
		_ = r.e.nic.Process().Kernel().ReleaseDonated(r.pfns)
	}
}

// commit completes the receive once the last chunk landed.
func (r *rndvRecv) commit(reg *vipl.MemRegion) (int, error) {
	size := r.rts.size
	if r.place != placeDonated {
		r.release(reg)
	} else if err := r.e.adoptStaged(r.b, reg, r.pfns, size); err != nil {
		return 0, err
	}
	r.e.stats.RecvMsgs++
	r.e.stats.RecvBytes += uint64(size)
	return size, nil
}
