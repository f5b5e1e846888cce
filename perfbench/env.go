package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/msg"
	"repro/internal/phys"
	"repro/internal/regcache"
	"repro/internal/simtime"
	"repro/internal/via"
)

// opTimeout bounds every wait for a result from another goroutine, so a
// hung layer fails the run instead of hanging it.
const opTimeout = 30 * time.Second

// Lanes name the goroutines that make layer calls in the Chrome export.
const (
	laneDriver   = 1 // the goroutine issuing ops (bulk sender, pinstorm)
	laneReceiver = 2 // bulk receiver
	laneRank0    = 10
)

// cost is one op's measured duration on both clocks.  It covers the op
// up to its last result and excludes the verification that follows.
type cost struct {
	wall time.Duration
	sim  simtime.Duration
	// skew is the wall time from the first rank's return to the last's
	// (collective only).
	skew time.Duration
}

// env is a set-up workload: a cluster, its buffers and the goroutines
// that play the simulated processes.
type env interface {
	// do runs ops[i] of the plan as op number id and verifies it.  A
	// non-nil error is a failed op (the op errored or its output was
	// wrong); the run goes on.  A wait that times out ends the run.
	do(i, id int, tr *tracer) (cost, error)
	// cluster is the environment's cluster (its clock, nodes and NICs).
	cluster() *cluster.Cluster
	// counters snapshots the public Stats of every layer.
	counters() counters
	// close stops every goroutine the environment started.
	close() error
}

// errHung reports a wait that outlived opTimeout.
type errHung struct{ what string }

func (e errHung) Error() string { return fmt.Sprintf("%s did not finish within %v", e.what, opTimeout) }

// counter indexes a counters snapshot.
type counter int

const (
	// mm.Kernel.Stats
	swapOuts counter = iota
	swapIns
	majorFaults
	clockScans
	reclaims // direct reclaim scans plus kswapd passes
	// via.NIC.Stats and CQMux stats
	inlineSends
	doorbells
	doorbellsSaved
	bytesTX
	parks
	// regcache.Cache.Stats
	hits
	misses
	evictions
	// msg.Endpoint.Stats
	pipelineChunks
	fallbacks // pipelined and remap sends that degraded to one-copy
	// kagent.Agent.ConsistentPages results and nested registrations, as
	// counted by the pinstorm loop
	consistentPages
	probedPages
	nestedOps
	nCounters
)

// counters is a snapshot of the layer counters the per-layer metrics
// are deltas of.  Each entry sums the layer's public Stats over every
// node, NIC, endpoint or rank of the environment.
type counters [nCounters]uint64

func (c counters) minus(b counters) counters {
	for i := range c {
		c[i] -= b[i]
	}
	return c
}

func (c counters) plus(b counters) counters {
	for i := range c {
		c[i] += b[i]
	}
	return c
}

// nodeCounters adds the mm and via counters of every node.
func nodeCounters(c *cluster.Cluster) counters {
	var out counters
	for _, n := range c.Nodes {
		ks := n.Kernel.Stats()
		out[swapOuts] += ks.SwapOuts
		out[swapIns] += ks.SwapIns
		out[majorFaults] += ks.MajorFaults
		out[clockScans] += ks.ClockScans
		out[reclaims] += ks.DirectScans + ks.KswapdRuns
		vs := n.NIC.Stats()
		out[inlineSends] += vs.InlineSends
		out[doorbells] += vs.Doorbells
		out[doorbellsSaved] += vs.DoorbellsSaved
		out[bytesTX] += vs.BytesTX
	}
	return out
}

// addCache adds one registration cache's counters.
func (c *counters) addCache(s regcache.Stats) {
	c[hits] += s.Hits
	c[misses] += s.Misses
	c[evictions] += s.Evictions
}

// addEndpoint adds one endpoint's protocol counters.
func (c *counters) addEndpoint(s msg.Stats) {
	c[pipelineChunks] += s.PipelineChunks
	c[fallbacks] += s.PipelineFallbacks + s.RemapFallbacks
}

// addMux adds one completion mux's counters.
func (c *counters) addMux(s via.CQMuxStats) { c[parks] += s.PollerParks }

// badPages counts the pages in which got differs from want.
func badPages(got, want []byte) int {
	bad := 0
	for off := 0; off < len(want); off += phys.PageSize {
		end := min(off+phys.PageSize, len(want))
		if !bytes.Equal(got[off:end], want[off:end]) {
			bad++
		}
	}
	return bad
}

// checkNodes runs the kernel's own invariant check on every node.
func checkNodes(c *cluster.Cluster) error {
	for _, n := range c.Nodes {
		if err := n.Kernel.CheckInvariants(); err != nil {
			return fmt.Errorf("%s: %w", n.Name, err)
		}
	}
	return nil
}

// waiter bounds waits on other goroutines with one reusable timer, so a
// wait allocates nothing.
type waiter struct{ t *time.Timer }

func newWaiter() waiter {
	t := time.NewTimer(opTimeout)
	t.Stop()
	return waiter{t}
}

// wait receives from ch or gives up after opTimeout.
func wait[T any](w waiter, ch <-chan T, what string) (T, error) {
	w.t.Reset(opTimeout)
	select {
	case v := <-ch:
		if !w.t.Stop() {
			select {
			case <-w.t.C:
			default:
			}
		}
		return v, nil
	case <-w.t.C:
		var zero T
		return zero, errHung{what}
	}
}
