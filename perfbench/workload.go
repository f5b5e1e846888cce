package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/phys"
)

// A workload is a closed loop over a fixed op sequence: each op waits
// for its result before the next is issued.  The whole sequence — sizes,
// buffer indices, protocols, op kinds, nesting, reduction inputs — is
// generated from the seed before set-up starts, and the environment only
// ever sees those generated inputs.
type workload struct {
	name string
	// ops is the length of one measured pass; warm is how many ops from
	// the start of the sequence set-up replays to warm caches and rings.
	ops, warm int
	gen       func(rng *rand.Rand, n int) plan
	setup     func(p plan) (env, error)
}

// opKind names what one op does.
type opKind uint8

const (
	opSendAuto  opKind = iota // bulk: msg.Send with msg.Auto
	opSendRemap               // bulk: msg.Send with msg.Remap
	opPin                     // pinstorm: one registration
	opPinNested               // pinstorm: a registration plus an overlapping nested one
	opAllreduce               // collective: scalar sum over all ranks
	opBcast                   // collective: broadcast of a stable buffer
)

func (k opKind) String() string {
	return [...]string{"send_auto", "send_remap", "pin", "pin_nested", "allreduce", "bcast"}[k]
}

// op is one generated operation.  Fields a workload does not use stay
// zero.
type op struct {
	kind opKind
	// slot is the bulk buffer slot, the pinstorm pool buffer or the
	// collective bcast size class.
	slot int
	// off/pages is the pinstorm range inside the pool buffer, in pages;
	// off2/pages2 the nested range, which overlaps it; pressure is the
	// number of pages the op's allocator touches.
	off, pages, off2, pages2, pressure int
	// root is the bcast root rank.
	root int
	// vals are the allreduce contributions, one per rank.
	vals []int64
}

// plan is a generated op sequence plus the static inputs it refers to.
type plan struct {
	ops []op
	// slotBytes sizes the bulk slots or the collective bcast classes.
	slotBytes []int
}

// The three workloads.  Their parameters are fixed here so every run of
// a seed replays the same inputs; NOTES.md gives the measured split.
var workloads = []workload{
	{
		// Point-to-point 16 KiB-1 MiB sends over one endpoint pair from a
		// pool larger than the registration cache: loads the msg
		// protocols, regcache, kagent registration and via DMA; barely
		// touches mm reclaim, never mpi or the inline path.
		name:  "bulk",
		ops:   2400,
		warm:  bulkSlots,
		gen:   genBulk,
		setup: setupBulk,
	},
	{
		// The paper's locktest as a loop: register, force swap-out, DMA
		// through the handle, check TPT coherence, deregister.  Loads mm
		// reclaim and kagent/core pinning with TPT updates; touches no
		// msg, regcache or mpi.
		name:  "pinstorm",
		ops:   6400,
		warm:  32,
		gen:   genPinstorm,
		setup: setupPinstorm,
	},
	{
		// A 4-rank world with a shared CQ issuing 80% scalar Allreduce and
		// 20% 4-64 KiB Bcast: loads mpi, msg eager/inline, via doorbells,
		// batch reposts, the CQ and CQMux; regcache, kagent and mm are
		// idle once warm.
		name:  "collective",
		ops:   6000,
		warm:  100,
		gen:   genCollective,
		setup: setupCollective,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// balanced returns n values cycling through [0, k) in a seeded order,
// so each value appears n/k times (±1).  Stratifying the draws keeps the
// size mix of every seed the same while the order changes with the seed,
// which is what makes per-seed means comparable.
func balanced(rng *rand.Rand, n, k int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % k
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// logStrata returns k sizes log-uniform over [lo, hi]: one per equal
// stratum of the log range, at the stratum's midpoint moved by a seeded
// jitter of up to a tenth of the stratum either way, rounded up to a
// multiple of align bytes.  The narrow jitter keeps the size mix, and so
// the per-op means and tails, nearly the same for every seed.
func logStrata(rng *rand.Rand, k, lo, hi, align int) []int {
	out := make([]int, k)
	span := math.Log(float64(hi) / float64(lo))
	for i := range out {
		u := float64(i) + 0.5 + 0.2*(rng.Float64()-0.5)
		x := float64(lo) * math.Exp(span*u/float64(k))
		out[i] = min(int(math.Ceil(x/float64(align)))*align, hi)
	}
	return out
}

// Bulk geometry: the slot pool is several times the regions the cache
// may hold, so hits, misses and evictions all occur.
const (
	bulkSlots        = 24
	bulkMinBytes     = 16 << 10
	bulkMaxBytes     = 1 << 20
	bulkRemapMin     = 64 << 10
	bulkCacheRegions = 48
)

func genBulk(rng *rand.Rand, n int) plan {
	p := plan{slotBytes: logStrata(rng, bulkSlots, bulkMinBytes, bulkMaxBytes, phys.PageSize)}
	var eligible []int
	for i, s := range balanced(rng, n, bulkSlots) {
		p.ops = append(p.ops, op{kind: opSendAuto, slot: s})
		if p.slotBytes[s] >= bulkRemapMin {
			eligible = append(eligible, i)
		}
	}
	// One in four sends of 64 KiB or more (every slot is whole pages,
	// hence page-aligned) takes the ownership-transfer path.
	for j, q := range balanced(rng, len(eligible), 4) {
		if q == 0 {
			p.ops[eligible[j]].kind = opSendRemap
		}
	}
	return p
}

// Pinstorm geometry: a 4 MiB node whose pool is half of RAM, and an
// allocator that touches three quarters of RAM or more on every op, which
// is past the free memory the previous op leaves.  The allocator's size
// varies from op to op, so the swap-out cost does too.
const (
	pinRAMPages     = 1024
	pinSwapPages    = 16384
	pinPoolBufs     = 8
	pinBufPages     = 64
	pinPressureMin  = 768
	pinPressureSpan = 128
)

func genPinstorm(rng *rand.Rand, n int) plan {
	var p plan
	counts := balanced(rng, n, pinBufPages)
	nested := balanced(rng, n, 4)
	pressure := balanced(rng, n, pinPressureSpan)
	for i := 0; i < n; i++ {
		o := op{kind: opPin, slot: rng.Intn(pinPoolBufs), pages: counts[i] + 1,
			pressure: pinPressureMin + pressure[i]}
		o.off = rng.Intn(pinBufPages - o.pages + 1)
		if nested[i] == 0 {
			// The nested range starts inside the first one and may run
			// past its end.
			o.kind = opPinNested
			o.off2 = o.off + rng.Intn(o.pages)
			o.pages2 = 1 + rng.Intn(pinBufPages-o.off2)
		}
		p.ops = append(p.ops, o)
	}
	return p
}

// Collective geometry: 2 nodes × 2 ranks, bcast sizes in 4-64 KiB.
const (
	collRanks   = 4
	collNodes   = 2
	collClasses = 16
	collMinB    = 4 << 10
	collMaxB    = 64 << 10
)

func genCollective(rng *rand.Rand, n int) plan {
	p := plan{slotBytes: logStrata(rng, collClasses, collMinB, collMaxB, 8)}
	kinds := balanced(rng, n, 5) // one in five is a bcast
	nb := 0
	for _, k := range kinds {
		if k == 0 {
			nb++
		}
	}
	classes := balanced(rng, nb, collClasses)
	roots := balanced(rng, nb, collRanks)
	b := 0
	for _, k := range kinds {
		if k != 0 {
			vals := make([]int64, collRanks)
			for r := range vals {
				vals[r] = rng.Int63n(1<<40) - 1<<39
			}
			p.ops = append(p.ops, op{kind: opAllreduce, vals: vals})
			continue
		}
		p.ops = append(p.ops, op{kind: opBcast, slot: classes[b], root: roots[b]})
		b++
	}
	return p
}
