package mpi

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mm"
	"repro/internal/msg"
)

// worldOpts builds a world with explicit options on a fresh cluster.
func worldOpts(t *testing.T, nodes, ranks int, o WorldOptions) (*cluster.Cluster, *World) {
	t.Helper()
	c := cluster.MustNew(cluster.Config{
		Nodes:    nodes,
		Strategy: core.StrategyKiobuf,
		Kernel:   mm.Config{RAMPages: 4096, SwapPages: 8192, ClockBatch: 128, SwapBatch: 32},
		TPTSlots: 4096,
	})
	w, err := NewWorldOpts(c, ranks, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return c, w
}

// TestAllreduceNonPow2 drives the recursive-doubling fold/unfold across
// world sizes that are not powers of two.
func TestAllreduceNonPow2(t *testing.T) {
	for _, ranks := range []int{3, 5, 6, 7} {
		_, w := worldOpts(t, 2, ranks, WorldOptions{})
		want := int64(ranks * (ranks + 1) / 2)
		runRanks(t, w, func(r *Rank) error {
			got, err := r.Allreduce(int64(r.ID()+1), OpSum)
			if err != nil {
				return err
			}
			if got != want {
				t.Errorf("%d ranks: rank %d sum = %d, want %d", ranks, r.ID(), got, want)
			}
			mx, err := r.Allreduce(int64(r.ID()), OpMax)
			if err != nil {
				return err
			}
			if mx != int64(ranks-1) {
				t.Errorf("%d ranks: rank %d max = %d", ranks, r.ID(), mx)
			}
			return nil
		})
	}
}

// TestReduce checks the binomial reduce at several roots.
func TestReduce(t *testing.T) {
	const ranks = 5
	_, w := worldOpts(t, 2, ranks, WorldOptions{})
	for _, root := range []int{0, 2, ranks - 1} {
		root := root
		runRanks(t, w, func(r *Rank) error {
			got, err := r.Reduce(root, int64(r.ID()+1), OpSum)
			if err != nil {
				return err
			}
			if r.ID() == root && got != 15 {
				t.Errorf("root %d: sum = %d, want 15", root, got)
			}
			return nil
		})
	}
}

// TestAllreduceVec covers both vector paths: short vectors take
// recursive doubling, long ones the ring reduce-scatter + allgather.
func TestAllreduceVec(t *testing.T) {
	for _, tc := range []struct {
		ranks, length int
	}{
		{4, 3},  // RD path (length < 2*ranks)
		{4, 64}, // ring path, power-of-two world
		{5, 40}, // ring path, non-power-of-two world
		{2, 17}, // ring with a two-rank ring (mirrored partner)
	} {
		_, w := worldOpts(t, 2, tc.ranks, WorldOptions{})
		runRanks(t, w, func(r *Rank) error {
			vals := make([]int64, tc.length)
			for i := range vals {
				vals[i] = int64(r.ID()*1000 + i)
			}
			got, err := r.AllreduceVec(vals, OpSum)
			if err != nil {
				return err
			}
			for i, v := range got {
				want := int64(0)
				for id := 0; id < tc.ranks; id++ {
					want += int64(id*1000 + i)
				}
				if v != want {
					t.Errorf("%d ranks len %d: elem %d = %d, want %d",
						tc.ranks, tc.length, i, v, want)
					break
				}
			}
			return nil
		})
	}
}

// TestAllreduceVecMax checks a non-sum operator through the ring.
func TestAllreduceVecMax(t *testing.T) {
	const ranks, length = 4, 32
	_, w := worldOpts(t, 2, ranks, WorldOptions{})
	runRanks(t, w, func(r *Rank) error {
		vals := make([]int64, length)
		for i := range vals {
			vals[i] = int64((r.ID()*7 + i) % 13)
		}
		got, err := r.AllreduceVec(vals, OpMax)
		if err != nil {
			return err
		}
		for i, v := range got {
			want := int64(0)
			for id := 0; id < ranks; id++ {
				if x := int64((id*7 + i) % 13); x > want {
					want = x
				}
			}
			if v != want {
				t.Errorf("elem %d = %d, want %d", i, v, want)
				break
			}
		}
		return nil
	})
}

// TestLazyWorld checks deferred pairing: a fresh lazy world has no
// endpoint pairs, the log collectives touch only O(n log n) of them,
// and the results are still right.
func TestLazyWorld(t *testing.T) {
	const ranks = 8
	_, w := worldOpts(t, 2, ranks, WorldOptions{Lazy: true})
	if got := w.Pairs(); got != 0 {
		t.Fatalf("lazy world born with %d pairs", got)
	}
	runRanks(t, w, func(r *Rank) error {
		got, err := r.Allreduce(int64(r.ID()), OpSum)
		if err != nil {
			return err
		}
		if got != 28 {
			t.Errorf("rank %d: sum = %d", r.ID(), got)
		}
		return nil
	})
	all := ranks * (ranks - 1) / 2
	if got := w.Pairs(); got == 0 || got >= all {
		t.Fatalf("lazy world paired %d of %d (want 0 < pairs < all)", got, all)
	}
}

// TestSharedCQWorld is the scaling contract at the world level: one
// poller goroutine per rank (not per VI), completions multiplexed
// through the rank muxes, and Close tears the pollers down.
func TestSharedCQWorld(t *testing.T) {
	const ranks = 6
	before := runtime.NumGoroutine()
	c, w := worldOpts(t, 2, ranks, WorldOptions{SharedCQ: true})
	_ = c
	if got := runtime.NumGoroutine(); got > before+ranks+2 {
		t.Fatalf("world spawned %d goroutines for %d ranks", got-before, ranks)
	}
	runRanks(t, w, func(r *Rank) error {
		if err := r.Barrier(); err != nil {
			return err
		}
		_, err := r.Allreduce(1, OpSum)
		return err
	})
	if st := w.MuxStats(); st.Drained == 0 || st.VIs == 0 {
		t.Fatalf("muxes idle: %+v", st)
	}
	w.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines leaked after Close", got-before)
	}
}

// TestCoalescedWorld drives collectives over engine-backed NICs with
// doorbell coalescing armed and checks the bursts actually rode the
// small-message fast paths: headers and scalar cells go inline, and the
// coalescing window saves doorbells — while every answer stays exact.
func TestCoalescedWorld(t *testing.T) {
	const ranks = 6
	c, w := worldOpts(t, 2, ranks, WorldOptions{
		EngineLanes:      2,
		DoorbellCoalesce: 8,
	})
	want := int64(ranks * (ranks - 1) / 2)
	runRanks(t, w, func(r *Rank) error {
		for iter := 0; iter < 4; iter++ {
			if err := r.Barrier(); err != nil {
				return err
			}
			got, err := r.Allreduce(int64(r.ID()), OpSum)
			if err != nil {
				return err
			}
			if got != want {
				t.Errorf("rank %d iter %d: sum = %d, want %d", r.ID(), iter, got, want)
			}
		}
		vec, err := r.AllreduceVec(make([]int64, 48), OpSum)
		if err != nil {
			return err
		}
		if len(vec) != 48 {
			t.Errorf("vec len %d", len(vec))
		}
		return nil
	})
	var inline, saved, rung uint64
	for _, node := range c.Nodes {
		st := node.NIC.Stats()
		inline += st.InlineSends
		saved += st.DoorbellsSaved
		rung += st.Doorbells
	}
	if inline == 0 || saved == 0 {
		t.Fatalf("coalesced world never engaged the fast paths (inline %d, saved doorbells %d)",
			inline, saved)
	}
	if rung == 0 {
		t.Fatal("no doorbell ever rung — coalescing must still ring per window")
	}
}

// TestWorldRDMAEager runs collectives over endpoints in RDMA-eager mode
// with a shrunken ring, lazily paired and mux-polled — the full E21
// configuration at test scale.
func TestWorldRDMAEager(t *testing.T) {
	const ranks = 5
	_, w := worldOpts(t, 2, ranks, WorldOptions{
		Lazy:     true,
		SharedCQ: true,
		Endpoint: msg.Options{RDMAEager: true, RingSlots: 4, SlotBytes: 4096},
	})
	runRanks(t, w, func(r *Rank) error {
		if err := r.Barrier(); err != nil {
			return err
		}
		sum, err := r.Allreduce(int64(r.ID()+1), OpSum)
		if err != nil {
			return err
		}
		if sum != 15 {
			t.Errorf("sum = %d", sum)
		}
		vec, err := r.AllreduceVec(make([]int64, 64), OpSum)
		if err != nil {
			return err
		}
		if len(vec) != 64 {
			t.Errorf("vec len %d", len(vec))
		}
		return nil
	})
}

// TestCollectiveCacheReuse checks the rank-wide shared cache pays off:
// repeated vector allreduces over the same buffers hit the cache after
// the first iteration.  (Eager-sized cells bypass registration, so use
// payloads above the eager threshold via a tiny EagerMax.)
func TestCollectiveCacheReuse(t *testing.T) {
	const ranks = 4
	_, w := worldOpts(t, 2, ranks, WorldOptions{
		Endpoint: msg.Options{EagerMax: 64},
	})
	runRanks(t, w, func(r *Rank) error {
		vals := make([]int64, 256)
		for iter := 0; iter < 4; iter++ {
			if _, err := r.AllreduceVec(vals, OpSum); err != nil {
				return err
			}
		}
		return nil
	})
	st := w.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("no registration reuse across collectives: %+v", st)
	}
}

// TestCollectiveAbort partitions the fabric and checks the abort
// protocol: every rank's collective returns a clean
// ErrCollectiveAborted — none of them hangs.  RecvTimeout bounds the
// receives of ranks whose partner died before announcing anything (the
// reliability timeouts only cover transfers already in flight).
func TestCollectiveAbort(t *testing.T) {
	const ranks = 4
	c, w := worldOpts(t, 2, ranks, WorldOptions{
		Endpoint: msg.Options{RecvTimeout: 500 * time.Millisecond},
		Reliability: &msg.ReliabilityConfig{
			MaxRetries:       2,
			BackoffBase:      50 * time.Microsecond,
			HandshakeTimeout: 250 * time.Millisecond,
		},
	})
	// Warm-up: a healthy collective first.
	runRanks(t, w, func(r *Rank) error {
		_, err := r.Allreduce(1, OpSum)
		return err
	})
	c.Network.SetLinkDown(c.Nodes[0].Name, c.Nodes[1].Name)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for i := 0; i < ranks; i++ {
		r, err := w.Rank(i)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, r *Rank) {
			defer wg.Done()
			_, errs[i] = r.Allreduce(int64(i), OpSum)
		}(i, r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("collective hung after partition")
	}
	for i, err := range errs {
		if err == nil {
			t.Errorf("rank %d: partitioned allreduce succeeded", i)
			continue
		}
		if !errors.Is(err, ErrCollectiveAborted) {
			t.Errorf("rank %d: err = %v, want ErrCollectiveAborted", i, err)
		}
	}
}

// TestStaleAbortTokenDropped checks that an abort token stamped with an
// already-finished epoch does not poison a later collective: the
// receiver must drop it and complete the barrier.
func TestStaleAbortTokenDropped(t *testing.T) {
	_, w := worldOpts(t, 2, 2, WorldOptions{})
	runRanks(t, w, func(r *Rank) error {
		if r.ID() == 0 {
			// A token from "epoch 0" — before any collective ran.
			tok, err := r.Process().Malloc(8)
			if err != nil {
				return err
			}
			if err := putI64(tok, 0, 0); err != nil {
				return err
			}
			if err := r.Send(1, abortTag, tok); err != nil {
				return err
			}
		}
		if err := r.Barrier(); err != nil {
			return err
		}
		_, err := r.Allreduce(int64(r.ID()), OpSum)
		return err
	})
}
