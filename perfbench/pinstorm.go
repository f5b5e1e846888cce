package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/kagent"
	"repro/internal/mm"
	"repro/internal/pgtable"
	"repro/internal/phys"
	"repro/internal/pressure"
	"repro/internal/proc"
	"repro/internal/via"
)

// markOffset is where in the first registered page the DMA mark lands.
const markOffset = 64

// pinEnv runs the locktest loop on one small-RAM node with the kiobuf
// strategy, all on the driver goroutine.
type pinEnv struct {
	plan plan
	c    *cluster.Cluster
	node *cluster.Node
	p    *proc.Process
	tag  via.ProtectionTag
	pool []*proc.Buffer
	// golden holds each pool buffer's pattern as filled at set-up.
	golden [][]byte
	mark   [16]byte
	got    []byte

	// probe sums ConsistentPages and counts nested ops, for the kagent
	// per-layer metrics.
	probe counters
}

func setupPinstorm(p plan) (env, error) {
	kcfg := mm.DefaultConfig()
	kcfg.RAMPages, kcfg.SwapPages = pinRAMPages, pinSwapPages
	c, err := cluster.New(cluster.Config{Nodes: 1, Kernel: kcfg})
	if err != nil {
		return nil, err
	}
	node := c.Nodes[0]
	pr := node.NewProcess("pinstorm", false)
	e := &pinEnv{plan: p, c: c, node: node, p: pr, tag: via.ProtectionTag(pr.ID()),
		got: make([]byte, pinBufPages*phys.PageSize)}
	for b := 0; b < pinPoolBufs; b++ {
		buf, err := pr.Malloc(pinBufPages * phys.PageSize)
		if err != nil {
			return nil, err
		}
		if err := buf.FillPattern(byte(b + 1)); err != nil {
			return nil, err
		}
		g := make([]byte, buf.Bytes)
		if err := buf.Read(0, g); err != nil {
			return nil, err
		}
		e.pool, e.golden = append(e.pool, buf), append(e.golden, g)
	}
	return e, nil
}

func (e *pinEnv) register(buf *proc.Buffer, off, pages, id, parent int, tr *tracer) (*kagent.Registration, error) {
	sp := tr.begin("kagent.register", id, laneDriver, parent)
	defer tr.end(sp)
	return e.node.Agent.RegisterMem(e.p.AS(), buf.Addr+pgtable.VAddr(off*phys.PageSize),
		pages*phys.PageSize, e.tag, via.MemAttrs{})
}

func (e *pinEnv) deregister(reg *kagent.Registration, id, parent int, tr *tracer) error {
	sp := tr.begin("kagent.deregister", id, laneDriver, parent)
	defer tr.end(sp)
	return e.node.Agent.DeregisterMem(reg)
}

func (e *pinEnv) do(i, id int, tr *tracer) (cost, error) {
	o := e.plan.ops[i]
	buf := e.pool[o.slot]
	first := o.off * phys.PageSize
	binary.LittleEndian.PutUint64(e.mark[:8], 0x4b52414d2d414d44) // "DMA-MARK"
	binary.LittleEndian.PutUint64(e.mark[8:], uint64(id))
	got := e.got[:len(e.mark)]

	w0, s0 := time.Now(), e.c.Meter.Now()
	root := tr.begin("op", id, laneDriver, -1)
	c, total, err := e.cycle(buf, o, id, root, tr, got)
	tr.end(root)
	cst := cost{wall: time.Since(w0), sim: e.c.Meter.Now() - s0}
	if err != nil {
		return cst, err
	}

	e.probe[consistentPages] += uint64(c)
	e.probe[probedPages] += uint64(total)
	if o.kind == opPinNested {
		e.probe[nestedOps]++
	}
	if c != total {
		return cst, fmt.Errorf("%d of %d pages TPT-consistent", c, total)
	}
	if !bytes.Equal(got, e.mark[:]) {
		return cst, fmt.Errorf("DMA mark not visible after deregistration")
	}
	// Put the pattern back under the mark, then check the whole
	// registered block (and the nested range) against it.
	golden := e.golden[o.slot]
	if err := buf.Write(first+markOffset, golden[first+markOffset:first+markOffset+len(e.mark)]); err != nil {
		return cst, err
	}
	lo, hi := first, (o.off+o.pages)*phys.PageSize
	if o.kind == opPinNested {
		hi = max(hi, (o.off2+o.pages2)*phys.PageSize)
	}
	if err := buf.Read(lo, e.got[:hi-lo]); err != nil {
		return cst, err
	}
	if !bytes.Equal(e.got[:hi-lo], golden[lo:hi]) {
		return cst, fmt.Errorf("buffer %d pages [%d,%d) lost their pattern", o.slot, lo/phys.PageSize, hi/phys.PageSize)
	}
	return cst, nil
}

// cycle is one op: register (and nest), apply pressure, DMA through the
// handle, probe TPT coherence, deregister, read the mark back.  A failed
// op still deregisters what it registered.
func (e *pinEnv) cycle(buf *proc.Buffer, o op, id, root int, tr *tracer, got []byte) (consistent, total int, err error) {
	var reg, nested *kagent.Registration
	defer func() {
		for _, r := range []*kagent.Registration{nested, reg} {
			if err != nil && r != nil {
				_ = e.node.Agent.DeregisterMem(r)
			}
		}
	}()
	if reg, err = e.register(buf, o.off, o.pages, id, root, tr); err != nil {
		return 0, 0, err
	}
	if o.kind == opPinNested {
		if nested, err = e.register(buf, o.off2, o.pages2, id, root, tr); err != nil {
			return 0, 0, err
		}
	}

	sp := tr.begin("mm.pressure", id, laneDriver, root)
	res, err := pressure.Allocator(e.node.Kernel, o.pressure)
	tr.end(sp)
	if err != nil {
		return 0, 0, err
	}
	if res.HitOOM {
		return 0, 0, fmt.Errorf("pressure allocator hit OOM")
	}

	sp = tr.begin("via.dma_write", id, laneDriver, root)
	err = e.node.NIC.DMAWriteLocal(reg.Handle, markOffset, e.mark[:], e.tag)
	tr.end(sp)
	if err != nil {
		return 0, 0, err
	}

	sp = tr.begin("kagent.consistent", id, laneDriver, root)
	consistent, total, err = e.node.Agent.ConsistentPages(reg)
	tr.end(sp)
	if err != nil {
		return 0, 0, err
	}

	if nested != nil {
		err, nested = e.deregister(nested, id, root, tr), nil
		if err != nil {
			return 0, 0, err
		}
	}
	err, reg = e.deregister(reg, id, root, tr), nil
	if err != nil {
		return 0, 0, err
	}

	sp = tr.begin("mm.verify", id, laneDriver, root)
	err = buf.Read(o.off*phys.PageSize+markOffset, got)
	tr.end(sp)
	return consistent, total, err
}

func (e *pinEnv) cluster() *cluster.Cluster { return e.c }

func (e *pinEnv) counters() counters { return nodeCounters(e.c).plus(e.probe) }

func (e *pinEnv) close() error { return nil }
