// Command mpibench measures the MPI layer the way the companion article
// "Comparing MPI Performance of SCI and VIA" does: a NetPIPE-style
// ping-pong sweep (E14), plus a miniature of the NAS IS kernel — a
// bucket sort whose communication is dominated by allreduce and a large
// alltoall — with the payload verified after the exchange.
//
// With -table=e21 it instead runs the collective scaling sweep (E21):
// world sizes from 16 to 1024 ranks over lazy pairing, shared-CQ muxes
// and RDMA-eager rings.
//
// Usage:
//
//	mpibench [-ranks N] [-nodes M] [-table mpi|e21] [-smoke]
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mm"
	"repro/internal/mpi"
	"repro/internal/proc"
	"repro/internal/report"
	"repro/internal/simtime"
)

func main() {
	ranks := flag.Int("ranks", 4, "MPI ranks")
	nodes := flag.Int("nodes", 2, "simulated nodes")
	table := flag.String("table", "mpi", "table to run: mpi (E14 ping-pong + IS-mini) or e21 (collective scaling sweep)")
	smoke := flag.Bool("smoke", false, "e21: restrict the sweep to the CI-sized rank counts")
	flag.Parse()

	if *table == "e21" {
		if err := bench.CollectiveScale(os.Stdout, *smoke); err != nil {
			fmt.Fprintln(os.Stderr, "mpibench e21:", err)
			os.Exit(1)
		}
		return
	}

	c := cluster.MustNew(cluster.Config{
		Nodes:    *nodes,
		Strategy: core.StrategyKiobuf,
		Kernel:   mm.Config{RAMPages: 16384, SwapPages: 16384, ClockBatch: 128, SwapBatch: 32},
		TPTSlots: 8192,
	})
	w, err := mpi.NewWorld(c, *ranks, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpibench:", err)
		os.Exit(1)
	}
	if err := pingpong(c, w); err != nil {
		fmt.Fprintln(os.Stderr, "mpibench pingpong:", err)
		os.Exit(1)
	}
	if err := intSort(c, w); err != nil {
		fmt.Fprintln(os.Stderr, "mpibench intsort:", err)
		os.Exit(1)
	}
}

// runAll drives fn on every rank concurrently.
func runAll(w *mpi.World, fn func(r *mpi.Rank) error) error {
	var wg sync.WaitGroup
	errc := make(chan error, w.Size())
	for i := 0; i < w.Size(); i++ {
		r, err := w.Rank(i)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(r); err != nil {
				select {
				case errc <- err:
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	return <-errc
}

// pingpong regenerates E14: MPI-level latency/bandwidth between ranks 0
// and 1 (other ranks idle at barriers), warm caches.
func pingpong(c *cluster.Cluster, w *mpi.World) error {
	s := report.Series{
		Title:  "E14: MPI ping-pong between ranks 0 and 1 (half round trip)",
		Note:   "the companion article's methodology (NetPIPE over MPI); warm registration caches",
		XLabel: "size",
		Lines:  []string{"latency µs", "bandwidth MB/s"},
	}
	for _, size := range []int{64, 1024, 8 << 10, 64 << 10, 512 << 10} {
		var lat, bw float64
		err := runAll(w, func(r *mpi.Rank) error {
			buf, err := r.Process().Malloc(size)
			if err != nil {
				return err
			}
			if err := buf.Touch(); err != nil {
				return err
			}
			// One warm-up round trip to fill the registration caches;
			// measureRank01 takes the timed rounds afterwards.
			switch r.ID() {
			case 0:
				if err := r.Send(1, 0, buf); err != nil {
					return err
				}
				if _, err := r.Recv(1, 0, buf); err != nil {
					return err
				}
			case 1:
				if _, err := r.Recv(0, 0, buf); err != nil {
					return err
				}
				if err := r.Send(0, 0, buf); err != nil {
					return err
				}
			}
			return r.Barrier()
		})
		if err != nil {
			return err
		}
		lat, bw = measureRank01(c, w, size)
		s.AddPoint(report.Bytes(size), lat, bw)
	}
	s.Fprint(os.Stdout)
	return nil
}

// measureRank01 times 4 measured round trips between ranks 0 and 1.
func measureRank01(c *cluster.Cluster, w *mpi.World, size int) (latUs, mbs float64) {
	const rounds = 4
	var elapsed simtime.Duration
	_ = runAll(w, func(r *mpi.Rank) error {
		if r.ID() > 1 {
			return r.Barrier()
		}
		buf, err := r.Process().Malloc(size)
		if err != nil {
			return err
		}
		if err := buf.Touch(); err != nil {
			return err
		}
		if r.ID() == 0 {
			start := c.Meter.Now()
			for i := 0; i < rounds; i++ {
				if err := r.Send(1, 99, buf); err != nil {
					return err
				}
				if _, err := r.Recv(1, 99, buf); err != nil {
					return err
				}
			}
			elapsed = c.Meter.Now() - start
		} else {
			for i := 0; i < rounds; i++ {
				if _, err := r.Recv(0, 99, buf); err != nil {
					return err
				}
				if err := r.Send(0, 99, buf); err != nil {
					return err
				}
			}
		}
		return r.Barrier()
	})
	oneWay := float64(elapsed) / float64(2*rounds)
	latUs = oneWay / float64(simtime.Microsecond)
	mbs = float64(size) / (oneWay / float64(simtime.Second)) / 1e6
	return latUs, mbs
}

// intSort is the IS miniature: each rank generates keys, the ranks agree
// on bucket boundaries via allreduce (max key), exchange keys with one
// alltoall, locally sort their bucket, and verify global order with a
// final gather of bucket edges.
func intSort(c *cluster.Cluster, w *mpi.World) error {
	const keysPerRank = 8192
	n := w.Size()
	start := c.Meter.Now()
	var verified bool
	err := runAll(w, func(r *mpi.Rank) error {
		// Deterministic per-rank keys.
		keys := make([]uint32, keysPerRank)
		seed := uint32(r.ID())*2654435761 + 12345
		var localMax int64
		for i := range keys {
			seed = seed*1664525 + 1013904223
			keys[i] = seed % (1 << 20)
			if int64(keys[i]) > localMax {
				localMax = int64(keys[i])
			}
		}
		// Agree on the key range.
		globalMax, err := r.Allreduce(localMax, mpi.OpMax)
		if err != nil {
			return err
		}
		bucketWidth := (globalMax + int64(n)) / int64(n)

		// Partition keys into per-destination blocks.
		blocks := make([][]uint32, n)
		for _, k := range keys {
			d := int(int64(k) / bucketWidth)
			if d >= n {
				d = n - 1
			}
			blocks[d] = append(blocks[d], k)
		}
		// Serialize blocks into fixed-size buffers: count + keys.
		blockBytes := 4 + 4*keysPerRank
		sendBufs := make([]*proc.Buffer, n)
		recvBufs := make([]*proc.Buffer, n)
		for j := 0; j < n; j++ {
			if sendBufs[j], err = r.Process().Malloc(blockBytes); err != nil {
				return err
			}
			if recvBufs[j], err = r.Process().Malloc(blockBytes); err != nil {
				return err
			}
			payload := make([]byte, 4+4*len(blocks[j]))
			binary.LittleEndian.PutUint32(payload, uint32(len(blocks[j])))
			for i, k := range blocks[j] {
				binary.LittleEndian.PutUint32(payload[4+4*i:], k)
			}
			if err := sendBufs[j].Write(0, payload); err != nil {
				return err
			}
		}
		if err := r.Alltoall(sendBufs, recvBufs); err != nil {
			return err
		}
		// Collect and sort the local bucket.
		var bucket []uint32
		for j := 0; j < n; j++ {
			var cnt [4]byte
			if err := recvBufs[j].Read(0, cnt[:]); err != nil {
				return err
			}
			m := int(binary.LittleEndian.Uint32(cnt[:]))
			raw := make([]byte, 4*m)
			if err := recvBufs[j].Read(4, raw); err != nil {
				return err
			}
			for i := 0; i < m; i++ {
				bucket = append(bucket, binary.LittleEndian.Uint32(raw[4*i:]))
			}
		}
		sort.Slice(bucket, func(i, j int) bool { return bucket[i] < bucket[j] })
		// Verify bucket range and total count conservation.
		for _, k := range bucket {
			if int64(k)/bucketWidth != int64(r.ID()) && !(int64(k)/bucketWidth >= int64(n) && r.ID() == n-1) {
				return fmt.Errorf("rank %d: key %d outside bucket", r.ID(), k)
			}
		}
		total, err := r.Allreduce(int64(len(bucket)), mpi.OpSum)
		if err != nil {
			return err
		}
		if total != int64(n*keysPerRank) {
			return fmt.Errorf("rank %d: %d keys after exchange, want %d", r.ID(), total, n*keysPerRank)
		}
		if r.ID() == 0 {
			verified = true
		}
		return nil
	})
	if err != nil {
		return err
	}
	elapsed := c.Meter.Now() - start
	totalKeys := n * keysPerRank
	rate := float64(totalKeys) / (float64(elapsed) / float64(simtime.Second)) / 1e6
	t := report.Table{
		Title:   "IS-mini: distributed bucket sort (NAS IS communication pattern)",
		Note:    "allreduce (key range) + alltoall (key exchange) + allreduce (verification), as in the companion's IS analysis",
		Headers: []string{"ranks", "keys", "verified", "sim time", "Mkeys/s"},
	}
	t.AddRow(n, totalKeys, report.Bool(verified), elapsed.String(), rate)
	t.Fprint(os.Stdout)
	return nil
}
