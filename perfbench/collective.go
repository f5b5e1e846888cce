package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/phys"
	"repro/internal/proc"
)

// collEnv drives a 4-rank world.  Each rank is a goroutine that plays
// one simulated MPI process; the driver hands every rank the same op and
// waits for all of them.
type collEnv struct {
	plan  plan
	c     *cluster.Cluster
	w     *mpi.World
	ranks []*mpi.Rank
	// bufs[r][class] is rank r's stable bcast buffer of that class; all
	// start with the class's pattern.
	bufs [][]*proc.Buffer
	// golden[class] is the class's pattern; want and got are
	// verification space.
	golden    [][]byte
	want, got []byte
	stamp     [8]byte
	cmds      []chan collCmd
	done      chan collResult
	stops     chan struct{}
	waiter    waiter
}

type collCmd struct {
	op         op
	id, parent int
	tr         *tracer
}

type collResult struct {
	rank int
	val  int64
	err  error
	end  time.Time
}

func setupCollective(p plan) (_ env, err error) {
	c, err := cluster.New(cluster.Config{Nodes: collNodes, TPTSlots: 8192})
	if err != nil {
		return nil, err
	}
	w, err := mpi.NewWorldOpts(c, collRanks, mpi.WorldOptions{SharedCQ: true})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			w.Close()
		}
	}()
	e := &collEnv{plan: p, c: c, w: w, want: make([]byte, collMaxB), got: make([]byte, collMaxB),
		done: make(chan collResult, collRanks), stops: make(chan struct{}, collRanks), waiter: newWaiter()}
	for r := 0; r < collRanks; r++ {
		rk, err := w.Rank(r)
		if err != nil {
			return nil, err
		}
		var bufs []*proc.Buffer
		for class, n := range p.slotBytes {
			b, err := rk.Process().Malloc(n)
			if err != nil {
				return nil, err
			}
			if err := b.FillPattern(byte(class + 1)); err != nil {
				return nil, err
			}
			if r == 0 {
				g := make([]byte, n)
				if err := b.Read(0, g); err != nil {
					return nil, err
				}
				e.golden = append(e.golden, g)
			}
			bufs = append(bufs, b)
		}
		e.ranks, e.bufs = append(e.ranks, rk), append(e.bufs, bufs)
		e.cmds = append(e.cmds, make(chan collCmd))
	}
	for r := range e.ranks {
		go e.rank(r)
	}
	return e, nil
}

// rank is rank r's process: it runs each op it is handed until close.
func (e *collEnv) rank(r int) {
	defer func() { e.stops <- struct{}{} }()
	rk := e.ranks[r]
	for cmd := range e.cmds[r] {
		res := collResult{rank: r}
		switch cmd.op.kind {
		case opAllreduce:
			sp := cmd.tr.begin("mpi.allreduce", cmd.id, laneRank0+r, cmd.parent)
			res.val, res.err = rk.Allreduce(cmd.op.vals[r], mpi.OpSum)
			cmd.tr.end(sp)
		case opBcast:
			sp := cmd.tr.begin("mpi.bcast", cmd.id, laneRank0+r, cmd.parent)
			res.err = rk.Bcast(cmd.op.root, e.bufs[r][cmd.op.slot])
			cmd.tr.end(sp)
		}
		res.end = time.Now()
		e.done <- res
	}
}

func (e *collEnv) do(i, id int, tr *tracer) (cost, error) {
	o := e.plan.ops[i]
	var want int64
	for _, v := range o.vals {
		want += v
	}
	if o.kind == opBcast {
		// Stamp every page of the root's buffer with the op id, so every
		// page of every other rank's copy is stale until the bcast lands.
		binary.LittleEndian.PutUint64(e.stamp[:], uint64(id)+1)
		b := e.bufs[o.root][o.slot]
		for off := 0; off < b.Bytes; off += phys.PageSize {
			if err := b.Write(off, e.stamp[:]); err != nil {
				return cost{}, err
			}
		}
	}

	w0, s0 := time.Now(), e.c.Meter.Now()
	root := tr.begin("op", id, laneDriver, -1)
	for r := range e.ranks {
		e.cmds[r] <- collCmd{op: o, id: id, parent: root, tr: tr}
	}
	var first, last time.Time
	var errs []error
	for range e.ranks {
		res, err := wait(e.waiter, e.done, "collective rank")
		if err != nil {
			return cost{}, err
		}
		if first.IsZero() || res.end.Before(first) {
			first = res.end
		}
		if res.end.After(last) {
			last = res.end
		}
		switch {
		case res.err != nil:
			errs = append(errs, fmt.Errorf("rank %d: %w", res.rank, res.err))
		case o.kind == opAllreduce && res.val != want:
			errs = append(errs, fmt.Errorf("rank %d: allreduce %d, want %d", res.rank, res.val, want))
		}
	}
	tr.end(root)
	c := cost{wall: time.Since(w0), sim: e.c.Meter.Now() - s0, skew: last.Sub(first)}
	if len(errs) > 0 {
		return c, errs[0]
	}
	if o.kind == opBcast {
		// Every rank must now hold the class pattern with this op's
		// stamp on every page.
		n := e.plan.slotBytes[o.slot]
		want, got := e.want[:n], e.got[:n]
		copy(want, e.golden[o.slot])
		for off := 0; off < n; off += phys.PageSize {
			copy(want[off:], e.stamp[:])
		}
		for r := range e.ranks {
			if err := e.bufs[r][o.slot].Read(0, got); err != nil {
				return c, err
			}
			if bad := badPages(got, want); bad > 0 {
				return c, fmt.Errorf("rank %d: bcast class %d: %d pages differ from the root's stamped pattern", r, o.slot, bad)
			}
		}
	}
	return c, nil
}

func (e *collEnv) cluster() *cluster.Cluster { return e.c }

func (e *collEnv) counters() counters {
	out := nodeCounters(e.c)
	out.addCache(e.w.CacheStats())
	for _, rk := range e.ranks {
		out.addMux(rk.Mux().Stats())
	}
	return out
}

func (e *collEnv) close() error {
	for _, ch := range e.cmds {
		close(ch)
	}
	for range e.cmds {
		if _, err := wait(e.waiter, e.stops, "rank shutdown"); err != nil {
			return err
		}
	}
	e.w.Close()
	return nil
}
