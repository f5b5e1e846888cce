package via

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/phys"
	"repro/internal/simtime"
)

// TestCQMuxWaitDescZeroAllocs pins the allocation-free mux wait on each
// of its three paths.  The mux runs without its poller, so the test
// plays the poller's part and every iteration takes the path it names.
func TestCQMuxWaitDescZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	m := newCQMux(DefaultCQDepth)
	d := NewDescriptor(OpSend)
	d.complete(StatusSuccess, 0)
	// AllocsPerRun makes one warm-up call plus the counted runs.
	const runs = 200
	check := func(t *testing.T, taken func() uint64, cycle func()) {
		t.Helper()
		before := taken()
		allocs := testing.AllocsPerRun(runs, func() {
			d.Reset()
			cycle()
			if st := m.WaitDesc(d); st != StatusSuccess {
				t.Fatalf("status %v", st)
			}
		})
		if allocs != 0 {
			t.Errorf("%.2f allocs per wait, want 0", allocs)
		}
		if got := taken() - before; got != runs+1 {
			t.Errorf("path taken by %d of %d waits", got, runs+1)
		}
	}

	t.Run("pending", func(t *testing.T) {
		// The completion was routed before the wait: it is parked.
		var parked uint64
		check(t, func() uint64 { return parked }, func() {
			d.complete(StatusSuccess, 0)
			m.route(Completion{Desc: d})
			if m.Stats().Pending == 1 {
				parked++
			}
		})
		if p := m.Stats().Pending; p != 0 {
			t.Errorf("%d completions left parked", p)
		}
	})
	t.Run("self-pumped", func(t *testing.T) {
		// The completion sits in the CQ: the waiter drains it itself.
		check(t, m.selfDrains.Load, func() {
			d.complete(StatusSuccess, 0)
			m.cq.push(Completion{Desc: d})
		})
	})
	t.Run("routed", func(t *testing.T) {
		// The waiter is parked when the completion lands; the router
		// holds mu across complete and route, so the waiter wakes to
		// find itself routed.
		start := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range start {
				for {
					m.mu.Lock()
					_, parked := m.waiters[d]
					if parked {
						d.complete(StatusSuccess, 0)
						m.routeLocked(Completion{Desc: d})
					}
					m.mu.Unlock()
					if parked {
						break
					}
					runtime.Gosched()
				}
			}
		}()
		check(t, m.delivered.Load, func() { start <- struct{}{} })
		close(start)
		<-done
	})
}

// TestCQMuxWakeRecycleStress has many goroutines wait on descriptors
// they reset and reuse, while the poller routes, waiters pump the CQ
// themselves, duplicate CQ entries turn into stale ones for the next
// use, and Forget drops waiters and parked entries at random.  The
// contract: no WaitDesc returns while its own descriptor is pending,
// and every wake channel comes back to the free list drained, with no
// wake slot still pointing at it.
func TestCQMuxWakeRecycleStress(t *testing.T) {
	const (
		waiters = 8
		rounds  = 300
	)
	m := NewCQMux(DefaultCQDepth)
	defer m.Close()
	descs := make([]*Descriptor, waiters)
	for i := range descs {
		descs[i] = NewDescriptor(OpSend)
		descs[i].complete(StatusSuccess, 0)
	}

	stop := make(chan struct{})
	var forgetter sync.WaitGroup
	forgetter.Add(1)
	go func() {
		defer forgetter.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.Forget(descs[rng.Intn(waiters)])
			for i := 0; i < 64; i++ {
				runtime.Gosched()
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, waiters)
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d := descs[w]
			rng := rand.New(rand.NewSource(int64(w)))
			kick := make(chan struct{})
			completed := make(chan struct{})
			go func() {
				// The completer plays the NIC: complete, then push the
				// CQ entry, sometimes twice (a duplicate completion).
				defer close(completed)
				r := rand.New(rand.NewSource(int64(100 + w)))
				for range kick {
					for i := r.Intn(4); i > 0; i-- {
						runtime.Gosched()
					}
					d.complete(StatusSuccess, 0)
					m.cq.push(Completion{Desc: d})
					if r.Intn(8) == 0 {
						m.cq.push(Completion{Desc: d})
					}
				}
			}()
			defer func() {
				close(kick)
				<-completed
			}()
			for i := 0; i < rounds; i++ {
				d.Reset()
				if rng.Intn(2) == 0 {
					kick <- struct{}{}
					if st := m.WaitDesc(d); st != StatusSuccess {
						errs <- fmt.Errorf("waiter %d round %d: WaitDesc returned %v", w, i, st)
						return
					}
				} else {
					// Wait first, complete while parked.
					got := make(chan Status, 1)
					go func() { got <- m.WaitDesc(d) }()
					runtime.Gosched()
					kick <- struct{}{}
					if st := <-got; st != StatusSuccess {
						errs <- fmt.Errorf("waiter %d round %d: parked WaitDesc returned %v", w, i, st)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	forgetter.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.waiters) != 0 {
		t.Errorf("%d waiters left registered", len(m.waiters))
	}
	for i, ch := range m.wakes {
		if len(ch) != 0 {
			t.Errorf("free wake channel %d holds a token", i)
		}
	}
	for i, d := range descs {
		d.mu.Lock()
		if d.wake != nil {
			t.Errorf("descriptor %d left its wake slot armed", i)
		}
		d.mu.Unlock()
	}
}

// BenchmarkCQMuxWaitDesc measures one send completion drained through
// the shared-CQ mux: post on a mux-attached VI, then WaitDesc.  The sim
// clock charges the send itself; the mux adds no sim time.
func BenchmarkCQMuxWaitDesc(b *testing.B) {
	meter := simtime.NewMeter()
	memA, memB := phys.New(4), phys.New(4)
	nicA := NewNIC("benchA", memA, meter, 4)
	nicB := NewNIC("benchB", memB, meter, 4)
	nw := NewNetwork()
	for _, n := range []*NIC{nicA, nicB} {
		if err := nw.Attach(n); err != nil {
			b.Fatal(err)
		}
	}
	mux := NewCQMux(DefaultCQDepth)
	defer mux.Close()
	va, err := nicA.CreateVIWithCQ(tagA, mux.CQ(), mux.CQ())
	if err != nil {
		b.Fatal(err)
	}
	vb, err := nicB.CreateVI(tagB)
	if err != nil {
		b.Fatal(err)
	}
	if err := nw.Connect(va, vb); err != nil {
		b.Fatal(err)
	}
	sd, rd := NewDescriptor(OpSend), NewDescriptor(OpRecv)
	payload := make([]byte, 64)
	sd.complete(StatusSuccess, 0)
	rd.complete(StatusSuccess, 0)
	b.ReportAllocs()
	b.ResetTimer()
	simStart := meter.Now()
	for i := 0; i < b.N; i++ {
		rd.Reset()
		if err := vb.PostRecv(rd); err != nil {
			b.Fatal(err)
		}
		sd.Reset()
		if err := sd.SetInline(payload); err != nil {
			b.Fatal(err)
		}
		if err := va.PostSend(sd); err != nil {
			b.Fatal(err)
		}
		if st := mux.WaitDesc(sd); st != StatusSuccess {
			b.Fatalf("status %v", st)
		}
	}
	b.ReportMetric((meter.Now()-simStart).Micros()/float64(b.N), "sim-µs/op")
}
