package mpi

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mm"
	"repro/internal/msg"
	"repro/internal/proc"
)

func world(t *testing.T, nodes, ranks int) *World {
	t.Helper()
	c := cluster.MustNew(cluster.Config{
		Nodes:    nodes,
		Strategy: core.StrategyKiobuf,
		Kernel:   mm.Config{RAMPages: 4096, SwapPages: 8192, ClockBatch: 128, SwapBatch: 32},
		TPTSlots: 4096,
	})
	w, err := NewWorld(c, ranks, 0)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// runRanks executes fn on every rank concurrently and fails the test on
// the first error.
func runRanks(t *testing.T, w *World, fn func(r *Rank) error) {
	t.Helper()
	var wg sync.WaitGroup
	errc := make(chan error, w.Size())
	for i := 0; i < w.Size(); i++ {
		r, err := w.Rank(i)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(r); err != nil {
				errc <- err
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

func TestSendRecvPair(t *testing.T) {
	w := world(t, 2, 2)
	runRanks(t, w, func(r *Rank) error {
		const size = 32 * 1024
		if r.ID() == 0 {
			buf, err := r.Process().Malloc(size)
			if err != nil {
				return err
			}
			if err := buf.FillPattern(5); err != nil {
				return err
			}
			return r.Send(1, 7, buf)
		}
		buf, err := r.Process().Malloc(size)
		if err != nil {
			return err
		}
		n, err := r.Recv(0, 7, buf)
		if err != nil {
			return err
		}
		if n != size {
			t.Errorf("received %d", n)
		}
		bad, err := buf.VerifyPattern(5)
		if err != nil {
			return err
		}
		if len(bad) != 0 {
			t.Errorf("corrupted pages %v", bad)
		}
		return nil
	})
}

func TestTagMatchingWithUnexpectedQueue(t *testing.T) {
	w := world(t, 2, 2)
	runRanks(t, w, func(r *Rank) error {
		if r.ID() == 0 {
			// Send tag 1 then tag 2; receiver asks for 2 first.
			for _, tag := range []int{1, 2} {
				buf, err := r.Process().Malloc(1024)
				if err != nil {
					return err
				}
				if err := buf.FillPattern(byte(tag)); err != nil {
					return err
				}
				if err := r.Send(1, tag, buf); err != nil {
					return err
				}
			}
			return nil
		}
		buf, err := r.Process().Malloc(1024)
		if err != nil {
			return err
		}
		if _, err := r.Recv(0, 2, buf); err != nil {
			return err
		}
		if bad, _ := buf.VerifyPattern(2); len(bad) != 0 {
			t.Error("tag-2 payload corrupted")
		}
		// The tag-1 message waits in the unexpected queue.
		if _, err := r.Recv(0, 1, buf); err != nil {
			return err
		}
		if bad, _ := buf.VerifyPattern(1); len(bad) != 0 {
			t.Error("tag-1 payload corrupted")
		}
		return nil
	})
}

func TestRingPassing(t *testing.T) {
	const ranks = 4
	w := world(t, 2, ranks)
	runRanks(t, w, func(r *Rank) error {
		buf, err := r.Process().Malloc(8)
		if err != nil {
			return err
		}
		next := (r.ID() + 1) % ranks
		prev := (r.ID() + ranks - 1) % ranks
		if r.ID() == 0 {
			if err := buf.WriteUint32(0, 100); err != nil {
				return err
			}
			if err := r.Send(next, 0, buf); err != nil {
				return err
			}
			if _, err := r.Recv(prev, 0, buf); err != nil {
				return err
			}
			v, err := buf.ReadUint32(0)
			if err != nil {
				return err
			}
			if v != 100+ranks-1 {
				t.Errorf("ring sum = %d, want %d", v, 100+ranks-1)
			}
			return nil
		}
		if _, err := r.Recv(prev, 0, buf); err != nil {
			return err
		}
		v, err := buf.ReadUint32(0)
		if err != nil {
			return err
		}
		if err := buf.WriteUint32(0, v+1); err != nil {
			return err
		}
		return r.Send(next, 0, buf)
	})
}

func TestBarrier(t *testing.T) {
	const ranks = 4
	w := world(t, 2, ranks)
	var mu sync.Mutex
	phase := make(map[int]int)
	for round := 0; round < 3; round++ {
		round := round
		runRanks(t, w, func(r *Rank) error {
			mu.Lock()
			if phase[r.ID()] != round {
				mu.Unlock()
				return errors.New("rank entered a barrier round early")
			}
			mu.Unlock()
			if err := r.Barrier(); err != nil {
				return err
			}
			mu.Lock()
			phase[r.ID()]++
			mu.Unlock()
			return nil
		})
	}
}

func TestBcast(t *testing.T) {
	const ranks = 3
	w := world(t, 3, ranks)
	runRanks(t, w, func(r *Rank) error {
		buf, err := r.Process().Malloc(4096)
		if err != nil {
			return err
		}
		if r.ID() == 1 { // non-zero root
			if err := buf.FillPattern(9); err != nil {
				return err
			}
		}
		if err := r.Bcast(1, buf); err != nil {
			return err
		}
		bad, err := buf.VerifyPattern(9)
		if err != nil {
			return err
		}
		if len(bad) != 0 {
			t.Errorf("rank %d: bcast payload corrupted", r.ID())
		}
		return nil
	})
}

func TestAllreduce(t *testing.T) {
	const ranks = 4
	w := world(t, 2, ranks)
	runRanks(t, w, func(r *Rank) error {
		got, err := r.Allreduce(int64(r.ID()+1), OpSum)
		if err != nil {
			return err
		}
		if got != 1+2+3+4 {
			t.Errorf("rank %d: sum = %d", r.ID(), got)
		}
		mx, err := r.Allreduce(int64(r.ID()), OpMax)
		if err != nil {
			return err
		}
		if mx != ranks-1 {
			t.Errorf("rank %d: max = %d", r.ID(), mx)
		}
		mn, err := r.Allreduce(int64(r.ID()), OpMin)
		if err != nil {
			return err
		}
		if mn != 0 {
			t.Errorf("rank %d: min = %d", r.ID(), mn)
		}
		return nil
	})
}

func TestGather(t *testing.T) {
	const ranks = 3
	w := world(t, 3, ranks)
	runRanks(t, w, func(r *Rank) error {
		buf, err := r.Process().Malloc(8)
		if err != nil {
			return err
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(1000+r.ID()))
		if err := buf.Write(0, b[:]); err != nil {
			return err
		}
		if r.ID() != 0 {
			return r.Gather(0, buf, nil)
		}
		dsts := make([]*proc.Buffer, ranks)
		for i := range dsts {
			if dsts[i], err = r.Process().Malloc(8); err != nil {
				return err
			}
		}
		if err := r.Gather(0, buf, dsts); err != nil {
			return err
		}
		for i, d := range dsts {
			var got [8]byte
			if err := d.Read(0, got[:]); err != nil {
				return err
			}
			if v := binary.LittleEndian.Uint64(got[:]); v != uint64(1000+i) {
				t.Errorf("gather slot %d = %d", i, v)
			}
		}
		return nil
	})
}

func TestValidation(t *testing.T) {
	w := world(t, 2, 2)
	r0, _ := w.Rank(0)
	buf, _ := r0.Process().Malloc(8)
	if err := r0.Send(0, 0, buf); !errors.Is(err, ErrSelfSend) {
		t.Fatalf("err = %v", err)
	}
	if err := r0.Send(9, 0, buf); !errors.Is(err, ErrRank) {
		t.Fatalf("err = %v", err)
	}
	if _, err := w.Rank(9); !errors.Is(err, ErrRank) {
		t.Fatalf("err = %v", err)
	}
	c := cluster.MustNew(cluster.Config{Nodes: 1})
	if _, err := NewWorld(c, 1, 0); err == nil {
		t.Fatal("one-rank world accepted")
	}
}

func TestRecvBufferTooSmall(t *testing.T) {
	w := world(t, 2, 2)
	runRanks(t, w, func(r *Rank) error {
		if r.ID() == 0 {
			buf, err := r.Process().Malloc(4096)
			if err != nil {
				return err
			}
			return r.Send(1, 0, buf)
		}
		small, err := r.Process().Malloc(16)
		if err != nil {
			return err
		}
		if _, err := r.Recv(0, 0, small); !errors.Is(err, ErrTooSmall) {
			t.Errorf("err = %v", err)
		}
		return nil
	})
}

func TestCollectiveValidation(t *testing.T) {
	w := world(t, 2, 2)
	r0, _ := w.Rank(0)
	buf, _ := r0.Process().Malloc(8)
	if err := r0.Bcast(9, buf); !errors.Is(err, ErrRank) {
		t.Fatalf("bcast err = %v", err)
	}
	if err := r0.Gather(9, buf, nil); !errors.Is(err, ErrRank) {
		t.Fatalf("gather err = %v", err)
	}
	if err := r0.Gather(0, buf, nil); err == nil {
		t.Fatal("root gather without destination buffers accepted")
	}
}

func TestUnexpectedQueueTooSmallBuffer(t *testing.T) {
	w := world(t, 2, 2)
	runRanks(t, w, func(r *Rank) error {
		if r.ID() == 0 {
			big, err := r.Process().Malloc(4096)
			if err != nil {
				return err
			}
			if err := r.Send(1, 5, big); err != nil {
				return err
			}
			small, err := r.Process().Malloc(16)
			if err != nil {
				return err
			}
			return r.Send(1, 6, small)
		}
		// Receive tag 6 first: the tag-5 message is stashed.  Then ask
		// for tag 5 with a too-small buffer: must fail cleanly from the
		// unexpected queue.
		buf, err := r.Process().Malloc(16)
		if err != nil {
			return err
		}
		if _, err := r.Recv(0, 6, buf); err != nil {
			return err
		}
		if _, err := r.Recv(0, 5, buf); !errors.Is(err, ErrTooSmall) {
			t.Errorf("err = %v", err)
		}
		return nil
	})
}

func TestWorldAccessors(t *testing.T) {
	w := world(t, 2, 3)
	if w.Size() != 3 {
		t.Fatalf("size = %d", w.Size())
	}
	r, err := w.Rank(2)
	if err != nil || r.ID() != 2 {
		t.Fatalf("rank 2: %v %v", r, err)
	}
}

func TestAlltoall(t *testing.T) {
	const ranks = 4
	w := world(t, 2, ranks)
	runRanks(t, w, func(r *Rank) error {
		send := make([]*proc.Buffer, ranks)
		recv := make([]*proc.Buffer, ranks)
		for j := 0; j < ranks; j++ {
			var err error
			if send[j], err = r.Process().Malloc(1024); err != nil {
				return err
			}
			if recv[j], err = r.Process().Malloc(1024); err != nil {
				return err
			}
			// Block for rank j carries pattern seed 16*me + j.
			if err := send[j].FillPattern(byte(16*r.ID() + j)); err != nil {
				return err
			}
		}
		if err := r.Alltoall(send, recv); err != nil {
			return err
		}
		for j := 0; j < ranks; j++ {
			// recv[j] came from rank j's block for us: seed 16*j + me.
			bad, err := recv[j].VerifyPattern(byte(16*j + r.ID()))
			if err != nil {
				return err
			}
			if len(bad) != 0 {
				t.Errorf("rank %d: block from %d corrupted", r.ID(), j)
			}
		}
		return nil
	})
}

// TestAlltoallValidation checks Alltoall's argument and size rules on
// two ranks whose send blocks are 64 bytes: a receive block too small
// for its message is ErrTooSmall on the rank that owns it — the rank's
// own block included — and the abort reaches the peer instead of
// leaving it waiting.
func TestAlltoallValidation(t *testing.T) {
	errAny := errors.New("any error")
	cases := []struct {
		name string
		// recvBytes sizes rank me's receive block from rank from; nil
		// passes no buffers at all.
		recvBytes func(me, from int) int
		want      [2]error // per rank; errAny accepts any error
	}{
		{"nil buffer sets", nil, [2]error{errAny, errAny}},
		{"own block too small", func(me, from int) int {
			if me == 0 && from == 0 {
				return 32
			}
			return 64
		}, [2]error{ErrTooSmall, ErrCollectiveAborted}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, w := worldOpts(t, 2, 2, WorldOptions{
				Endpoint: msg.Options{RecvTimeout: 100 * time.Millisecond},
			})
			var errs [2]error
			var wg sync.WaitGroup
			for i := range errs {
				r, err := w.Rank(i)
				if err != nil {
					t.Fatal(err)
				}
				var send, recv []*proc.Buffer
				if tc.recvBytes != nil {
					for j := 0; j < 2; j++ {
						sb, err := r.Process().Malloc(64)
						if err != nil {
							t.Fatal(err)
						}
						rb, err := r.Process().Malloc(tc.recvBytes(i, j))
						if err != nil {
							t.Fatal(err)
						}
						send, recv = append(send, sb), append(recv, rb)
					}
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = r.Alltoall(send, recv)
				}()
			}
			wg.Wait()
			for i, err := range errs {
				switch want := tc.want[i]; {
				case want == errAny && err == nil:
					t.Errorf("rank %d: err = nil, want an error", i)
				case want != errAny && !errors.Is(err, want):
					t.Errorf("rank %d: err = %v, want %v", i, err, want)
				}
			}
		})
	}
}
