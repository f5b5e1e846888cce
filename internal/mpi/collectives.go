package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/proc"
)

// The collectives, mapped onto point-to-point transfers as the
// device-independent layer of the CHEMPI design does.  All of them are
// called collectively: every rank must invoke the operation, each from
// its own goroutine.
//
// Each collective runs one of the classic logarithmic algorithms (MPICH
// lineage): dissemination barrier, binomial broadcast and reduce,
// recursive-doubling allreduce with the non-power-of-two fold, ring
// reduce-scatter + allgather for long vectors, and pairwise alltoall.
//
// Failure semantics: a transport error inside a collective aborts the
// whole operation.  The failing rank broadcasts an epoch-stamped abort
// token to every connected peer (best effort), every rank that sees the
// token for its current epoch aborts too, and all of them return an
// error wrapping ErrCollectiveAborted — a collective-wide clean error
// instead of a hung world.

// barrierTag and friends live in a reserved negative-adjacent tag space
// (the collection's articles reserve special tags for system messages).
const (
	barrierTag  = 1 << 30
	bcastTag    = barrierTag + 1
	reduceTag   = barrierTag + 2
	gatherTag   = barrierTag + 3
	alltoallTag = barrierTag + 4
	abortTag    = barrierTag + 5
)

// ErrCollectiveAborted reports a collective torn down after a transport
// fault on some rank.  Unwrap for the original cause.
var ErrCollectiveAborted = errors.New("mpi: collective aborted")

// beginColl opens a new collective epoch on this rank.  Ranks call the
// same collectives in the same order, so epochs agree world-wide.
func (r *Rank) beginColl() { r.epoch++ }

// abortColl is the single exit point for collective failures: cascade
// the abort token once per epoch, then wrap the cause.
func (r *Rank) abortColl(peer int, cause error) error {
	if r.cascaded < r.epoch {
		r.cascaded = r.epoch
		r.cascadeAbort()
	}
	if errors.Is(cause, ErrCollectiveAborted) {
		return cause
	}
	return fmt.Errorf("%w: rank %d epoch %d (peer %d): %w",
		ErrCollectiveAborted, r.id, r.epoch, peer, cause)
}

// cascadeAbort rings every connected peer's urgent doorbell with this
// rank's epoch.  The doorbell is out of band from the data path (no
// credits, no ring slots), so cascading can never deadlock against a
// collective wedged mid-transfer.  A peer blocked inside a receive
// notices the flag when its RecvTimeout fires — worlds running with
// fault injection should set msg.Options.RecvTimeout.
func (r *Rank) cascadeAbort() {
	for j, ep := range r.world.connectedPeers(r) {
		if ep == nil || j == r.id {
			continue
		}
		_ = ep.Notify(r.epoch)
	}
}

// sendColl is a collective send: transport errors abort the epoch.
func (r *Rank) sendColl(dst, tag int, buf *proc.Buffer) error {
	if err := r.Send(dst, tag, buf); err != nil {
		return r.abortColl(dst, err)
	}
	return nil
}

// recvColl is a collective receive: transport errors and incoming abort
// tokens both abort the epoch.
func (r *Rank) recvColl(src, tag int, buf *proc.Buffer) (int, error) {
	n, err := r.recvCollRaw(src, tag, buf)
	if err != nil {
		return n, r.abortColl(src, err)
	}
	return n, nil
}

// recvCollRaw is Recv plus abort-token interception, without the
// cascade (exchange runs it concurrently with a send and cascades only
// after both halves have joined).  A token stamped with this epoch or
// later returns ErrCollectiveAborted; stale tokens from a previous
// epoch are dropped.
func (r *Rank) recvCollRaw(src, tag int, buf *proc.Buffer) (int, error) {
	if ae := r.abortEpoch.Load(); ae >= r.epoch {
		return 0, fmt.Errorf("%w: rank %d epoch %d: abort doorbell (epoch %d)",
			ErrCollectiveAborted, r.id, r.epoch, ae)
	}
	ep, err := r.peer(src)
	if err != nil {
		return 0, err
	}
	// Serve the unexpected queue: current-epoch abort tokens win, then
	// the matching tag.
	keep := r.unexpected[src][:0]
	var hit *pending
	var aborted bool
	for i := range r.unexpected[src] {
		p := r.unexpected[src][i]
		switch {
		case p.tag == abortTag:
			var e int64
			if tmp := make([]byte, 8); p.data.Read(0, tmp) == nil {
				e = int64(binary.LittleEndian.Uint64(tmp))
			}
			_ = r.proc.Free(p.data)
			if uint64(e) >= r.epoch {
				aborted = true
			}
		case p.tag == tag && hit == nil && !aborted:
			cp := p
			hit = &cp
		default:
			keep = append(keep, p)
		}
	}
	r.unexpected[src] = keep
	if aborted {
		if hit != nil {
			_ = r.proc.Free(hit.data)
		}
		return 0, fmt.Errorf("%w: rank %d epoch %d: abort token from rank %d",
			ErrCollectiveAborted, r.id, r.epoch, src)
	}
	if hit != nil {
		return r.copyOut(*hit, buf)
	}
	for {
		gotTag, size, err := r.recvHeader(ep)
		if err != nil {
			return 0, err
		}
		if gotTag == abortTag {
			// The 8-byte token fits the 16-byte header scratch buffer.
			if _, err := ep.Recv(r.hdrRecv); err != nil {
				return 0, err
			}
			var b [8]byte
			if err := r.hdrRecv.Read(0, b[:]); err != nil {
				return 0, err
			}
			if e := int64(binary.LittleEndian.Uint64(b[:])); uint64(e) >= r.epoch {
				return 0, fmt.Errorf("%w: rank %d epoch %d: abort token from rank %d (epoch %d)",
					ErrCollectiveAborted, r.id, r.epoch, src, e)
			}
			continue // stale token from a finished epoch
		}
		if gotTag == tag {
			return r.recvPayload(ep, size, buf)
		}
		if err := r.stash(ep, src, gotTag, size); err != nil {
			return 0, err
		}
	}
}

// exchange sends sbuf to dst and receives from src into rbuf under one
// tag.  Distinct partners run the two halves concurrently (they use
// different endpoints); a mirrored partner (dst == src, as in
// recursive-doubling steps) runs an ordered exchange — the lower rank
// sends first — because one endpoint must not carry a send and a
// receive from two goroutines at once.
func (r *Rank) exchange(dst, src, tag int, sbuf, rbuf *proc.Buffer) error {
	if dst == src {
		if r.id < dst {
			if err := r.sendColl(dst, tag, sbuf); err != nil {
				return err
			}
			_, err := r.recvColl(src, tag, rbuf)
			return err
		}
		if _, err := r.recvColl(src, tag, rbuf); err != nil {
			return err
		}
		return r.sendColl(dst, tag, sbuf)
	}
	errc := make(chan error, 1)
	go func() { errc <- r.sendDetached(dst, tag, sbuf) }()
	_, rerr := r.recvCollRaw(src, tag, rbuf)
	serr := <-errc
	if rerr != nil {
		return r.abortColl(src, rerr)
	}
	if serr != nil {
		return r.abortColl(dst, serr)
	}
	return nil
}

// Barrier blocks until every rank has entered it: the dissemination
// barrier, ceil(log2 n) rounds, each rank signalling (id + 2^k) and
// waiting on (id - 2^k), any world size.
func (r *Rank) Barrier() error {
	r.beginColl()
	n := len(r.world.ranks)
	tok, err := r.getScratch(8)
	if err != nil {
		return err
	}
	defer r.putScratch(tok)
	rtok, err := r.getScratch(8)
	if err != nil {
		return err
	}
	defer r.putScratch(rtok)
	for k := 1; k < n; k <<= 1 {
		dst := (r.id + k) % n
		src := (r.id - k + n) % n
		if err := r.exchange(dst, src, barrierTag, tok, rtok); err != nil {
			return fmt.Errorf("mpi: barrier round %d: %w", k, err)
		}
	}
	return nil
}

// Bcast distributes root's buffer contents to every rank's buffer over
// the binomial tree on virtual ranks (id - root mod n): each round
// doubles the informed set, ceil(log2 n) rounds total.
func (r *Rank) Bcast(root int, buf *proc.Buffer) error {
	r.beginColl()
	n := len(r.world.ranks)
	if root < 0 || root >= n {
		return fmt.Errorf("%w: root %d", ErrRank, root)
	}
	vr := (r.id - root + n) % n
	mask := 1
	for mask < n {
		if vr&mask != 0 {
			src := (r.id - mask + n) % n
			if _, err := r.recvColl(src, bcastTag, buf); err != nil {
				return fmt.Errorf("mpi: bcast recv from %d: %w", src, err)
			}
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if vr+mask < n {
			dst := (r.id + mask) % n
			if err := r.sendColl(dst, bcastTag, buf); err != nil {
				return fmt.Errorf("mpi: bcast send to %d: %w", dst, err)
			}
		}
	}
	return nil
}

// ReduceOp combines two int64 values.  The collectives additionally
// assume the operator is associative and commutative (as MPI's
// predefined operators are); FuzzReduceOps pins that property for the
// built-ins.
type ReduceOp func(a, b int64) int64

// Standard reduction operators.
var (
	OpSum ReduceOp = func(a, b int64) int64 { return a + b }
	OpMax ReduceOp = func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}
	OpMin ReduceOp = func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}
)

// Reduce combines each rank's contribution at the root over a binomial
// tree and returns the result there; non-root ranks return their
// partial accumulation, which is only meaningful at the root (like
// MPI_Reduce's recvbuf).
func (r *Rank) Reduce(root int, contrib int64, op ReduceOp) (int64, error) {
	r.beginColl()
	n := len(r.world.ranks)
	if root < 0 || root >= n {
		return 0, fmt.Errorf("%w: root %d", ErrRank, root)
	}
	cell, err := r.getScratch(8)
	if err != nil {
		return 0, err
	}
	defer r.putScratch(cell)
	vr := (r.id - root + n) % n
	acc := contrib
	for mask := 1; mask < n; mask <<= 1 {
		if vr&mask != 0 {
			dst := (r.id - mask + n) % n
			if err := putI64(cell, 0, acc); err != nil {
				return 0, err
			}
			if err := r.sendColl(dst, reduceTag, cell); err != nil {
				return 0, err
			}
			break
		}
		if vr|mask < n {
			src := (r.id + mask) % n
			if _, err := r.recvColl(src, reduceTag, cell); err != nil {
				return 0, err
			}
			v, err := getI64(cell, 0)
			if err != nil {
				return 0, err
			}
			acc = op(acc, v)
		}
	}
	return acc, nil
}

// Allreduce combines each rank's contribution with op and returns the
// result on every rank, by recursive doubling on a one-element vector.
func (r *Rank) Allreduce(contrib int64, op ReduceOp) (int64, error) {
	r.beginColl()
	r.scalar[0] = contrib
	if err := r.allreduceRD(r.scalar[:], r.scalarTmp[:], op); err != nil {
		return 0, err
	}
	return r.scalar[0], nil
}

// ringMinPerRank is the element count per rank below which AllreduceVec
// falls back to recursive doubling over the whole vector: the ring's
// 2(n-1) latency terms only pay off once the segments amortize them.
const ringMinPerRank = 2

// AllreduceVec elementwise-combines each rank's vector and returns the
// full result on every rank.  Large vectors run the bandwidth-optimal
// ring (reduce-scatter then allgather, 2(n-1) steps moving ~2·len/n
// elements each); short ones run recursive doubling over the whole
// vector.  Every rank must pass the same length.
func (r *Rank) AllreduceVec(vals []int64, op ReduceOp) ([]int64, error) {
	r.beginColl()
	n := len(r.world.ranks)
	acc := append([]int64(nil), vals...)
	if len(vals) == 0 {
		return acc, nil
	}
	var err error
	if len(vals) < ringMinPerRank*n {
		err = r.allreduceRD(acc, make([]int64, len(acc)), op)
	} else {
		err = r.allreduceVecRing(acc, op)
	}
	if err != nil {
		return nil, err
	}
	return acc, nil
}

// allreduceRD is recursive doubling over the whole vector acc, with tmp
// (the same length) as the landing area for partners' values: fold the
// rem = n - 2^⌊log2 n⌋ extra ranks into their odd neighbours, run log2
// rounds of pairwise exchange over the power-of-two core, then unfold.
func (r *Rank) allreduceRD(acc, tmp []int64, op ReduceOp) error {
	n := len(r.world.ranks)
	nb := 8 * len(acc)
	cell, err := r.getScratch(nb)
	if err != nil {
		return err
	}
	defer r.putScratch(cell)
	rcell, err := r.getScratch(nb)
	if err != nil {
		return err
	}
	defer r.putScratch(rcell)

	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2
	newid := -1
	switch {
	case r.id < 2*rem && r.id%2 == 0:
		// Fold: even extras hand their values to the odd neighbour and
		// sit out the core rounds.
		if err := putVec(cell, acc); err != nil {
			return err
		}
		if err := r.sendColl(r.id+1, reduceTag, cell); err != nil {
			return err
		}
	case r.id < 2*rem:
		if _, err := r.recvColl(r.id-1, reduceTag, rcell); err != nil {
			return err
		}
		if err := getVec(rcell, tmp); err != nil {
			return err
		}
		reduceInto(acc, tmp, op)
		newid = r.id / 2
	default:
		newid = r.id - rem
	}
	if newid >= 0 {
		for mask := 1; mask < pof2; mask <<= 1 {
			pn := newid ^ mask
			partner := pn + rem
			if pn < rem {
				partner = pn*2 + 1
			}
			if err := putVec(cell, acc); err != nil {
				return err
			}
			if err := r.exchange(partner, partner, reduceTag, cell, rcell); err != nil {
				return err
			}
			if err := getVec(rcell, tmp); err != nil {
				return err
			}
			reduceInto(acc, tmp, op)
		}
	}
	// Unfold: odd folded ranks return the result to their even partner.
	if r.id < 2*rem {
		if r.id%2 != 0 {
			if err := putVec(cell, acc); err != nil {
				return err
			}
			return r.sendColl(r.id-1, reduceTag, cell)
		}
		if _, err := r.recvColl(r.id+1, reduceTag, rcell); err != nil {
			return err
		}
		return getVec(rcell, acc)
	}
	return nil
}

// allreduceVecRing is the ring allreduce: n-1 reduce-scatter steps
// leave rank id owning the fully reduced segment (id+1) mod n, then n-1
// allgather steps circulate the reduced segments.
func (r *Rank) allreduceVecRing(acc []int64, op ReduceOp) error {
	n := len(r.world.ranks)
	right := (r.id + 1) % n
	left := (r.id - 1 + n) % n
	xfer := func(seg []int64, recvLo, recvHi int, reduce bool) error {
		sbuf, err := r.getScratch(8 * len(seg))
		if err != nil {
			return err
		}
		defer r.putScratch(sbuf)
		rbuf, err := r.getScratch(8 * (recvHi - recvLo))
		if err != nil {
			return err
		}
		defer r.putScratch(rbuf)
		if err := putVec(sbuf, seg); err != nil {
			return err
		}
		if err := r.exchange(right, left, reduceTag, sbuf, rbuf); err != nil {
			return err
		}
		got := make([]int64, recvHi-recvLo)
		if err := getVec(rbuf, got); err != nil {
			return err
		}
		if reduce {
			reduceInto(acc[recvLo:recvHi], got, op)
		} else {
			copy(acc[recvLo:recvHi], got)
		}
		return nil
	}
	for t := 0; t < n-1; t++ {
		sendSeg := (r.id - t + n) % n
		recvSeg := (r.id - t - 1 + n) % n
		sLo, sHi := segBounds(len(acc), n, sendSeg)
		rLo, rHi := segBounds(len(acc), n, recvSeg)
		if err := xfer(acc[sLo:sHi], rLo, rHi, true); err != nil {
			return fmt.Errorf("mpi: ring reduce-scatter step %d: %w", t, err)
		}
	}
	for t := 0; t < n-1; t++ {
		sendSeg := (r.id + 1 - t + 2*n) % n
		recvSeg := (r.id - t + 2*n) % n
		sLo, sHi := segBounds(len(acc), n, sendSeg)
		rLo, rHi := segBounds(len(acc), n, recvSeg)
		if err := xfer(acc[sLo:sHi], rLo, rHi, false); err != nil {
			return fmt.Errorf("mpi: ring allgather step %d: %w", t, err)
		}
	}
	return nil
}

// Gather collects every rank's buffer at the root: root receives rank
// i's payload into dsts[i] (dsts[root] is filled from the root's own
// buf); non-roots pass dsts == nil.
func (r *Rank) Gather(root int, buf *proc.Buffer, dsts []*proc.Buffer) error {
	r.beginColl()
	n := len(r.world.ranks)
	if root < 0 || root >= n {
		return fmt.Errorf("%w: root %d", ErrRank, root)
	}
	if r.id != root {
		return r.sendColl(root, gatherTag, buf)
	}
	if len(dsts) != n {
		return fmt.Errorf("mpi: gather needs %d destination buffers, got %d", n, len(dsts))
	}
	// Root's own contribution.
	tmp := make([]byte, buf.Bytes)
	if err := buf.Read(0, tmp); err != nil {
		return err
	}
	if err := dsts[root].Write(0, tmp); err != nil {
		return err
	}
	for src := 0; src < n; src++ {
		if src == root {
			continue
		}
		if _, err := r.recvColl(src, gatherTag, dsts[src]); err != nil {
			return fmt.Errorf("mpi: gather from %d: %w", src, err)
		}
	}
	return nil
}

// Alltoall exchanges one block with every rank: sendBufs[j] goes to
// rank j, and rank j's block for us lands in recvBufs[j].  It runs the
// pairwise exchange: step k pairs rank id with (id+k) for the send and
// (id-k) for the receive, so every step is a perfect matching and the
// two halves overlap.
func (r *Rank) Alltoall(sendBufs, recvBufs []*proc.Buffer) error {
	r.beginColl()
	n := len(r.world.ranks)
	if len(sendBufs) != n || len(recvBufs) != n {
		return fmt.Errorf("mpi: alltoall needs %d send and recv buffers", n)
	}
	// Local copy, held to the same size rule as a peer's block.
	if own, dst := sendBufs[r.id].Bytes, recvBufs[r.id].Bytes; own > dst {
		return r.abortColl(r.id, fmt.Errorf("%w: own block %d, buffer %d", ErrTooSmall, own, dst))
	}
	tmp := make([]byte, sendBufs[r.id].Bytes)
	if err := sendBufs[r.id].Read(0, tmp); err != nil {
		return err
	}
	if err := recvBufs[r.id].Write(0, tmp); err != nil {
		return err
	}
	for k := 1; k < n; k++ {
		dst := (r.id + k) % n
		src := (r.id - k + n) % n
		if err := r.exchange(dst, src, alltoallTag, sendBufs[dst], recvBufs[src]); err != nil {
			return fmt.Errorf("mpi: alltoall step %d: %w", k, err)
		}
	}
	return nil
}

// --- pure helpers (shared with the fuzz target) ---

// segBounds splits total elements into n contiguous ring segments and
// returns segment s's [lo, hi) element range.  Segments cover the
// vector exactly, sizes differing by at most one.
func segBounds(total, n, s int) (lo, hi int) {
	return s * total / n, (s + 1) * total / n
}

// reduceInto folds src into dst elementwise.
func reduceInto(dst, src []int64, op ReduceOp) {
	for i := range src {
		dst[i] = op(dst[i], src[i])
	}
}

// putI64 / getI64 move one little-endian int64 through a sim buffer.
func putI64(b *proc.Buffer, off int, v int64) error {
	var raw [8]byte
	binary.LittleEndian.PutUint64(raw[:], uint64(v))
	return b.Write(off, raw[:])
}

func getI64(b *proc.Buffer, off int) (int64, error) {
	var raw [8]byte
	if err := b.Read(off, raw[:]); err != nil {
		return 0, err
	}
	return int64(binary.LittleEndian.Uint64(raw[:])), nil
}

// putVec / getVec move little-endian int64 vectors through sim buffers.
func putVec(b *proc.Buffer, vals []int64) error {
	if len(vals) == 1 {
		return putI64(b, 0, vals[0])
	}
	raw := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(raw[8*i:], uint64(v))
	}
	return b.Write(0, raw)
}

func getVec(b *proc.Buffer, out []int64) error {
	if len(out) == 1 {
		var err error
		out[0], err = getI64(b, 0)
		return err
	}
	raw := make([]byte, 8*len(out))
	if err := b.Read(0, raw); err != nil {
		return err
	}
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return nil
}
