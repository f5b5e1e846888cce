package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/msg"
	"repro/internal/phys"
	"repro/internal/proc"
)

// bulkEnv sends from node 0 to node 1 over one endpoint pair.  The
// driver goroutine is the sender; one receiver goroutine calls Recv.
//
// A slot has two destinations: dst takes the msg.Auto receives and rdst
// the msg.Remap ones.  A remap receive into a buffer that an earlier
// zero-copy receive left in the receiver's registration cache leaves
// that cache entry stale, and the next zero-copy receive into the buffer
// is lost (NOTES.md, "Known defect"; TestRemapAfterZeroCopyDelivers
// reproduces it).  Keeping the two apart measures both protocols on ops
// that the program gets right.
type bulkEnv struct {
	plan           plan
	c              *cluster.Cluster
	tx, rx         *msg.Endpoint
	src, dst, rdst []*proc.Buffer
	// golden[slot] is the source slot's content; got is read-back space.
	golden [][]byte
	got    []byte
	rxCmd  chan rxCmd
	rxDone chan rxResult
	waiter waiter
	stamp  [8]byte
}

type rxCmd struct {
	dst        *proc.Buffer
	id, parent int
	tr         *tracer
}

type rxResult struct {
	n   int
	err error
}

// sendSpan names the span of a send by the protocol it takes; msg.Auto
// resolves to msg.Choose's pick for the size.
var sendSpan = map[msg.Protocol]string{
	msg.Eager:    "msg.send_eager",
	msg.OneCopy:  "msg.send_onecopy",
	msg.ZeroCopy: "msg.send_zerocopy",
	msg.Remap:    "msg.send_remap",
}

func setupBulk(p plan) (env, error) {
	c, err := cluster.New(cluster.Config{Nodes: 2, TPTSlots: 8192})
	if err != nil {
		return nil, err
	}
	tx, rx, err := c.EndpointPair(0, 1, bulkCacheRegions)
	if err != nil {
		return nil, err
	}
	e := &bulkEnv{plan: p, c: c, tx: tx, rx: rx, got: make([]byte, bulkMaxBytes),
		rxCmd: make(chan rxCmd), rxDone: make(chan rxResult), waiter: newWaiter()}
	touched := func(n int) (*proc.Buffer, error) {
		b, err := rx.Process().Malloc(n)
		if err != nil {
			return nil, err
		}
		return b, b.Touch()
	}
	for s, n := range p.slotBytes {
		src, err := tx.Process().Malloc(n)
		if err != nil {
			return nil, err
		}
		if err := src.FillPattern(byte(s + 1)); err != nil {
			return nil, err
		}
		g := make([]byte, n)
		if err := src.Read(0, g); err != nil {
			return nil, err
		}
		e.golden = append(e.golden, g)
		dst, err := touched(n)
		if err != nil {
			return nil, err
		}
		var rdst *proc.Buffer
		if n >= bulkRemapMin {
			if rdst, err = touched(n); err != nil {
				return nil, err
			}
		}
		e.src, e.dst, e.rdst = append(e.src, src), append(e.dst, dst), append(e.rdst, rdst)
	}
	go e.receive()
	return e, nil
}

// receive is the receiver process: one Recv per command until close.
func (e *bulkEnv) receive() {
	for cmd := range e.rxCmd {
		sp := cmd.tr.begin("msg.recv", cmd.id, laneReceiver, cmd.parent)
		n, err := e.rx.Recv(cmd.dst)
		cmd.tr.end(sp)
		e.rxDone <- rxResult{n, err}
	}
}

func (e *bulkEnv) do(i, id int, tr *tracer) (cost, error) {
	o := e.plan.ops[i]
	src, dst := e.src[o.slot], e.dst[o.slot]
	proto, name := msg.Auto, sendSpan[msg.Choose(src.Bytes)]
	if o.kind == opSendRemap {
		proto, name, dst = msg.Remap, sendSpan[msg.Remap], e.rdst[o.slot]
	}

	w0, s0 := time.Now(), e.c.Meter.Now()
	root := tr.begin("op", id, laneDriver, -1)
	e.rxCmd <- rxCmd{dst: dst, id: id, parent: root, tr: tr}
	sp := tr.begin(name, id, laneDriver, root)
	n, sendErr := e.tx.Send(src, proto)
	tr.end(sp)
	r, err := wait(e.waiter, e.rxDone, "bulk receive")
	if err != nil {
		return cost{}, err
	}
	tr.end(root)
	c := cost{wall: time.Since(w0), sim: e.c.Meter.Now() - s0}

	switch {
	case sendErr != nil:
		return c, fmt.Errorf("send: %w", sendErr)
	case r.err != nil:
		return c, fmt.Errorf("recv: %w", r.err)
	case n != src.Bytes || r.n != src.Bytes:
		return c, fmt.Errorf("sent %d, received %d of %d bytes", n, r.n, src.Bytes)
	}
	// The destination must hold the source's pattern, byte for byte.
	got := e.got[:dst.Bytes]
	if err := dst.Read(0, got); err != nil {
		return c, err
	}
	if bad := badPages(got, e.golden[o.slot]); bad > 0 {
		return c, fmt.Errorf("slot %d: %d of %d pages differ from the source", o.slot, bad, dst.Pages())
	}
	// Stamp every page of the destination so the next message into this
	// slot must overwrite all of it to pass verification.
	binary.LittleEndian.PutUint64(e.stamp[:], uint64(id)+1)
	for off := 0; off < dst.Bytes; off += phys.PageSize {
		if err := dst.Write(off, e.stamp[:]); err != nil {
			return c, err
		}
	}
	return c, nil
}

func (e *bulkEnv) cluster() *cluster.Cluster { return e.c }

func (e *bulkEnv) counters() counters {
	out := nodeCounters(e.c)
	for _, ep := range []*msg.Endpoint{e.tx, e.rx} {
		out.addCache(ep.Cache().Stats())
		out.addEndpoint(ep.Stats())
	}
	return out
}

func (e *bulkEnv) close() error {
	close(e.rxCmd)
	return nil
}
