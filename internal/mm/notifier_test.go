package mm

import (
	"testing"

	"repro/internal/pgtable"
	"repro/internal/phys"
	"repro/internal/simtime"
	"repro/internal/vma"
)

// notifyLog records notifier callbacks per (kind, page index) so tests
// can assert exactly-once delivery on every eviction path.
type notifyLog struct {
	counts map[NotifyKind]map[int]int
}

func newNotifyLog() *notifyLog {
	return &notifyLog{counts: make(map[NotifyKind]map[int]int)}
}

func (l *notifyLog) record(ev NotifyEvent) {
	m := l.counts[ev.Kind]
	if m == nil {
		m = make(map[int]int)
		l.counts[ev.Kind] = m
	}
	m[ev.PageIndex]++
}

// total sums all recorded events of one kind.
func (l *notifyLog) total(k NotifyKind) int {
	n := 0
	for _, c := range l.counts[k] {
		n += c
	}
	return n
}

// assertOnce fails if any recorded page of the kind fired other than
// exactly once.
func (l *notifyLog) assertOnce(t *testing.T, k NotifyKind) {
	t.Helper()
	for page, c := range l.counts[k] {
		if c != 1 {
			t.Errorf("%v fired %d times for page %d, want exactly once", k, c, page)
		}
	}
}

// notifierKernel boots a kernel with second-chance aging disabled so a
// single SwapOut pass deterministically evicts.
func notifierKernel() *Kernel {
	return NewKernel(Config{
		RAMPages:       64,
		SwapPages:      256,
		FreeLow:        4,
		FreeHigh:       8,
		ClockBatch:     32,
		SwapBatch:      8,
		NoSecondChance: true,
	}, simtime.NewMeter())
}

func touchPages(t *testing.T, k *Kernel, as *AddressSpace, addr pgtable.VAddr, npages int) {
	t.Helper()
	for i := 0; i < npages; i++ {
		if err := k.HandleFault(as, (pgtable.PageOf(addr) + pgtable.VPN(i)).Addr(), true); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNotifierSwapOutExactlyOnce: every page the swap path evicts fires
// NotifySwapOut exactly once, and the count matches the eviction count.
func TestNotifierSwapOutExactlyOnce(t *testing.T) {
	k := notifierKernel()
	as := k.CreateProcess("p", false)
	const npages = 8
	addr := mmapRW(t, k, as, npages)
	touchPages(t, k, as, addr, npages)

	log := newNotifyLog()
	id := k.RegisterRangeNotifier(as, addr, npages, log.record)
	defer k.UnregisterRangeNotifier(id)

	evicted := 0
	for i := 0; i < 4 && evicted < npages; i++ {
		evicted += k.SwapOut(npages)
	}
	if evicted == 0 {
		t.Fatal("swap-out evicted nothing")
	}
	if got := log.total(NotifySwapOut); got != evicted {
		t.Fatalf("NotifySwapOut fired %d times, %d pages evicted", got, evicted)
	}
	log.assertOnce(t, NotifySwapOut)
	if got := k.Stats().NotifierFires; got != uint64(evicted) {
		t.Fatalf("NotifierFires = %d, want %d", got, evicted)
	}
}

// TestNotifierSwapCachePaths covers the swap-cache re-eviction exits of
// tryToSwapOut: a page swapped out, faulted back by a read (keeping its
// cache slot), then re-evicted must fire once per eviction.
func TestNotifierSwapCachePaths(t *testing.T) {
	k := notifierKernel()
	as := k.CreateProcess("p", false)
	addr := mmapRW(t, k, as, 1)
	touchPages(t, k, as, addr, 1)

	log := newNotifyLog()
	id := k.RegisterRangeNotifier(as, addr, 1, log.record)
	defer k.UnregisterRangeNotifier(id)

	if n := k.SwapOut(1); n != 1 {
		t.Fatalf("first eviction: %d", n)
	}
	// Read fault keeps the slot as the frame's swap-cache image.
	if err := k.HandleFault(as, addr, false); err != nil {
		t.Fatal(err)
	}
	// Clean re-eviction takes the swap-cache fast path.
	if n := k.SwapOut(1); n != 1 {
		t.Fatalf("clean re-eviction: %d", n)
	}
	// Fault back with a write, dirtying the page; the cache slot has
	// been consumed by the PTE, so this is a fresh-slot eviction again.
	if err := k.HandleFault(as, addr, true); err != nil {
		t.Fatal(err)
	}
	if n := k.SwapOut(1); n != 1 {
		t.Fatalf("dirty re-eviction: %d", n)
	}
	if got := log.total(NotifySwapOut); got != 3 {
		t.Fatalf("NotifySwapOut fired %d times over 3 evictions", got)
	}
}

// TestNotifierPrecedesSwapImage pins what a watching device may rely
// on at swap-out: a write it makes to the frame before the notifier
// returns (the last DMA an invalidation waits out) is in the swap image,
// and a page it wrote behind the PTE is never dropped as clean.
func TestNotifierPrecedesSwapImage(t *testing.T) {
	marker := []byte("device write")
	readBack := func(t *testing.T, k *Kernel, as *AddressSpace, addr pgtable.VAddr) {
		t.Helper()
		got := make([]byte, len(marker))
		if err := k.CopyFromUser(as, addr, got); err != nil {
			t.Fatal(err)
		}
		if string(got) != string(marker) {
			t.Fatalf("page reads %q after swap-in, want the device write %q", got, marker)
		}
	}
	frame := func(t *testing.T, k *Kernel, as *AddressSpace, addr pgtable.VAddr) phys.Addr {
		t.Helper()
		pfn, err := k.ResidentPFN(as, addr)
		if err != nil || pfn == phys.NoPFN {
			t.Fatalf("page not resident: %v", err)
		}
		return pfn.Addr()
	}

	t.Run("write during notify", func(t *testing.T) {
		k := notifierKernel()
		as := k.CreateProcess("p", false)
		addr := mmapRW(t, k, as, 1)
		touchPages(t, k, as, addr, 1)
		pa := frame(t, k, as, addr)
		id := k.RegisterRangeNotifier(as, addr, 1, func(NotifyEvent) {
			if err := k.Phys().WritePhys(pa, marker); err != nil {
				t.Error(err)
			}
		})
		defer k.UnregisterRangeNotifier(id)
		if n := k.SwapOut(1); n != 1 {
			t.Fatalf("eviction: %d", n)
		}
		readBack(t, k, as, addr)
	})
	t.Run("clean swap-cache page written by a device", func(t *testing.T) {
		k := notifierKernel()
		as := k.CreateProcess("p", false)
		addr := mmapRW(t, k, as, 1)
		touchPages(t, k, as, addr, 1)
		id := k.RegisterRangeNotifier(as, addr, 1, func(NotifyEvent) {})
		defer k.UnregisterRangeNotifier(id)
		if n := k.SwapOut(1); n != 1 {
			t.Fatalf("first eviction: %d", n)
		}
		// A read fault leaves the page clean with its swap-cache image.
		if err := k.HandleFault(as, addr, false); err != nil {
			t.Fatal(err)
		}
		if err := k.Phys().WritePhys(frame(t, k, as, addr), marker); err != nil {
			t.Fatal(err)
		}
		if n := k.SwapOut(1); n != 1 {
			t.Fatalf("re-eviction: %d", n)
		}
		readBack(t, k, as, addr)
	})
}

// TestNotifierMunmapExactlyOnce: unmapping fires NotifyUnmap once per
// resident page — and only for resident ones.
func TestNotifierMunmapExactlyOnce(t *testing.T) {
	k := notifierKernel()
	as := k.CreateProcess("p", false)
	const npages = 6
	addr := mmapRW(t, k, as, npages)
	// Touch only the first half: untouched pages have no frame to lose.
	touchPages(t, k, as, addr, npages/2)

	log := newNotifyLog()
	k.RegisterRangeNotifier(as, addr, npages, log.record)

	if err := k.Munmap(as, addr, npages); err != nil {
		t.Fatal(err)
	}
	if got := log.total(NotifyUnmap); got != npages/2 {
		t.Fatalf("NotifyUnmap fired %d times, want %d (resident pages)", got, npages/2)
	}
	log.assertOnce(t, NotifyUnmap)
}

// TestNotifierDestroyProcess: teardown fires NotifyUnmap for every
// resident page.
func TestNotifierDestroyProcess(t *testing.T) {
	k := notifierKernel()
	as := k.CreateProcess("p", false)
	const npages = 4
	addr := mmapRW(t, k, as, npages)
	touchPages(t, k, as, addr, npages)

	log := newNotifyLog()
	k.RegisterRangeNotifier(as, addr, npages, log.record)

	if err := k.DestroyProcess(as); err != nil {
		t.Fatal(err)
	}
	if got := log.total(NotifyUnmap); got != npages {
		t.Fatalf("NotifyUnmap fired %d times, want %d", got, npages)
	}
	log.assertOnce(t, NotifyUnmap)
}

// TestNotifierCOWExactlyOnce: breaking COW sharing moves the mapping to
// a fresh frame and must fire NotifyCOW once; the sole-owner fast path
// keeps the frame and must stay silent.
func TestNotifierCOWExactlyOnce(t *testing.T) {
	k := notifierKernel()
	parent := k.CreateProcess("parent", false)
	addr := mmapRW(t, k, parent, 1)
	touchPages(t, k, parent, addr, 1)

	log := newNotifyLog()
	k.RegisterRangeNotifier(parent, addr, 1, log.record)

	child, err := k.Fork(parent, "child")
	if err != nil {
		t.Fatal(err)
	}
	// Parent write while the frame is shared: shared-copy COW, one fire.
	if err := k.HandleFault(parent, addr, true); err != nil {
		t.Fatal(err)
	}
	if got := log.total(NotifyCOW); got != 1 {
		t.Fatalf("NotifyCOW fired %d times after shared break, want 1", got)
	}
	// Child now sole owner of the old frame: its write is the reuse
	// path, and it is outside the notifier's address space anyway.
	if err := k.HandleFault(child, addr, true); err != nil {
		t.Fatal(err)
	}
	if got := log.total(NotifyCOW); got != 1 {
		t.Fatalf("NotifyCOW fired %d times after sole-owner write, want still 1", got)
	}
	log.assertOnce(t, NotifyCOW)
}

// TestNotifierSoleOwnerCOWSilent: a write-protected sole-owned page
// (e.g. after the other sharer moved off) re-enables in place — the
// frame does not change, so no notification.
func TestNotifierSoleOwnerCOWSilent(t *testing.T) {
	k := notifierKernel()
	parent := k.CreateProcess("parent", false)
	addr := mmapRW(t, k, parent, 1)
	touchPages(t, k, parent, addr, 1)
	child, err := k.Fork(parent, "child")
	if err != nil {
		t.Fatal(err)
	}
	// Child breaks the sharing first; parent becomes sole owner of the
	// original frame with write access still revoked by the fork.
	if err := k.HandleFault(child, addr, true); err != nil {
		t.Fatal(err)
	}
	log := newNotifyLog()
	k.RegisterRangeNotifier(parent, addr, 1, log.record)
	if err := k.HandleFault(parent, addr, true); err != nil {
		t.Fatal(err)
	}
	if got := log.total(NotifyCOW); got != 0 {
		t.Fatalf("NotifyCOW fired %d times on sole-owner reuse, want 0", got)
	}
}

// TestNotifierMprotectNone: revoking all access unmaps resident pages
// and must notify; merely removing write keeps the frame and must not.
func TestNotifierMprotectNone(t *testing.T) {
	k := notifierKernel()
	as := k.CreateProcess("p", false)
	const npages = 2
	addr := mmapRW(t, k, as, npages)
	touchPages(t, k, as, addr, npages)

	log := newNotifyLog()
	k.RegisterRangeNotifier(as, addr, npages, log.record)

	// Downgrade to read-only: frames stay, no events.
	if err := k.DoMprotect(as, addr, npages, vma.Read); err != nil {
		t.Fatal(err)
	}
	if got := log.total(NotifyUnmap); got != 0 {
		t.Fatalf("NotifyUnmap fired %d times on write removal, want 0", got)
	}
	// PROT_NONE: unmap, one event per page.
	if err := k.DoMprotect(as, addr, npages, 0); err != nil {
		t.Fatal(err)
	}
	if got := log.total(NotifyUnmap); got != npages {
		t.Fatalf("NotifyUnmap fired %d times on PROT_NONE, want %d", got, npages)
	}
	log.assertOnce(t, NotifyUnmap)
}

// TestNotifierScoping: events outside the registered range or address
// space never reach the callback, and unregistering stops delivery.
func TestNotifierScoping(t *testing.T) {
	k := notifierKernel()
	as := k.CreateProcess("p", false)
	other := k.CreateProcess("q", false)
	addr := mmapRW(t, k, as, 4)
	otherAddr := mmapRW(t, k, other, 4)
	touchPages(t, k, as, addr, 4)
	touchPages(t, k, other, otherAddr, 4)

	log := newNotifyLog()
	// Watch only pages [1,2] of the first process.
	id := k.RegisterRangeNotifier(as, (pgtable.PageOf(addr) + 1).Addr(), 2, log.record)

	if err := k.Munmap(other, otherAddr, 4); err != nil {
		t.Fatal(err)
	}
	if got := log.total(NotifyUnmap); got != 0 {
		t.Fatalf("foreign-process unmap leaked %d events", got)
	}
	if err := k.Munmap(as, addr, 4); err != nil {
		t.Fatal(err)
	}
	if got := log.total(NotifyUnmap); got != 2 {
		t.Fatalf("ranged notifier saw %d events, want 2", got)
	}
	for page := range log.counts[NotifyUnmap] {
		if page < 0 || page > 1 {
			t.Fatalf("event page index %d outside registered window", page)
		}
	}
	k.UnregisterRangeNotifier(id)
	// Unregister twice is harmless.
	k.UnregisterRangeNotifier(id)
}

// TestResolvePage: the fault-and-repair window — ResolvePage faults the
// page in (write access) and hands the physical address to the callback
// in the same critical section.
func TestResolvePage(t *testing.T) {
	k := notifierKernel()
	as := k.CreateProcess("p", false)
	addr := mmapRW(t, k, as, 1)

	var got phys.Addr
	if err := k.ResolvePage(as, addr, func(pa phys.Addr) error {
		got = pa
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	pfn, err := k.ResidentPFN(as, addr)
	if err != nil {
		t.Fatal(err)
	}
	if pfn == phys.NoPFN || pfn.Addr() != got {
		t.Fatalf("ResolvePage handed %#x, resident frame is %v", uint64(got), pfn)
	}

	// A swapped-out page is faulted back in.
	if n := k.SwapOut(1); n != 1 {
		t.Fatal("eviction for resolve test failed")
	}
	if err := k.ResolvePage(as, addr, func(pa phys.Addr) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := k.Stats().SwapIns; got == 0 {
		t.Fatal("ResolvePage did not fault the page back in")
	}
}
