package msg

import (
	"errors"

	"repro/internal/proc"
	"repro/internal/regcache"
	"repro/internal/via"
	"repro/internal/vipl"
)

// Persistent requests are the MPI pattern the companion articles single
// out as the natural fit for registration caching: "it is profitable to
// use registered buffers again like in the MPI persistent
// communication".  SendInit/RecvInit acquire the registration once
// (class persistent, so the cache evicts it last) and hold it across
// any number of Start calls; Free releases it.  Both sides run the
// ordinary rendezvous (rndv.go) with the held registration as its
// placement.

// ErrFreed reports a Start on a freed persistent request.
var ErrFreed = errors.New("msg: persistent request freed")

// persistent is what both request kinds hold: the endpoint, the buffer
// and the buffer's registration (nil once freed).
type persistent struct {
	ep  *Endpoint
	buf *proc.Buffer
	reg *vipl.MemRegion
}

// PersistentSend is a reusable zero-copy send request over one buffer.
type PersistentSend struct{ persistent }

// PersistentRecv is a reusable zero-copy receive request.
type PersistentRecv struct{ persistent }

// initPersistent validates the buffer and acquires its held registration.
func (e *Endpoint) initPersistent(b *proc.Buffer, attrs via.MemAttrs) (persistent, error) {
	if e.peer == nil {
		return persistent{}, ErrNotPaired
	}
	if b.Bytes <= 0 {
		return persistent{}, ErrEmptyMessage
	}
	reg, err := e.cache.Acquire(b, 0, b.Bytes, attrs, regcache.ClassPersistent)
	if err != nil {
		return persistent{}, err
	}
	return persistent{ep: e, buf: b, reg: reg}, nil
}

// SendInit registers the buffer once and returns the reusable request.
func (e *Endpoint) SendInit(b *proc.Buffer) (*PersistentSend, error) {
	p, err := e.initPersistent(b, via.MemAttrs{})
	if err != nil {
		return nil, err
	}
	return &PersistentSend{p}, nil
}

// RecvInit registers the buffer (RDMA-write enabled) once.
func (e *Endpoint) RecvInit(b *proc.Buffer) (*PersistentRecv, error) {
	p, err := e.initPersistent(b, via.MemAttrs{EnableRDMAWrite: true})
	if err != nil {
		return nil, err
	}
	return &PersistentRecv{p}, nil
}

// Start performs one zero-copy send of the whole buffer, one rendezvous
// chunk from the held registration: no kernel call, no pinning, no TPT
// update on this path.
func (p *PersistentSend) Start() (int, error) {
	if p.reg == nil {
		return 0, ErrFreed
	}
	return p.ep.sendRndv(p.buf, placeAcquire, p.buf.Bytes, p.reg)
}

// Start receives one message into the held buffer.  A rendezvous (a
// ZeroCopy or persistent send) lands straight in the held registration,
// whatever chunking the sender chose; any other message, including the
// one-copy fallback of a degraded rendezvous, is received as Recv would.
func (p *PersistentRecv) Start() (int, error) {
	if p.reg == nil {
		return 0, ErrFreed
	}
	return p.ep.recv(p.buf, p.reg)
}

// Free releases the held registration back to the cache.
func (p *persistent) Free() error {
	if p.reg == nil {
		return ErrFreed
	}
	reg := p.reg
	p.reg = nil
	return p.ep.cache.Release(reg)
}
