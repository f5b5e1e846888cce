package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/msg"
)

// smokeOps keeps each test run to a fraction of a second per workload.
var smokeOps = map[string]int{"bulk": 240, "pinstorm": 160, "collective": 400}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// checkDeclared fails unless got reports exactly the declared metrics,
// each in its declared unit.
func checkDeclared(t *testing.T, workload string, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", workload, len(got), len(want))
	}
	for name, unit := range want {
		if m, ok := got[name]; !ok || m.Unit != unit {
			t.Errorf("%s: %s = %+v, want a value in %s", workload, name, m, unit)
		}
	}
}

// smoke runs one short run of a workload: one measured pass, or one
// untraced and one traced pass.  It returns the result and the report.
func smoke(t *testing.T, workload string, seed int64, trace int) (result, string) {
	t.Helper()
	var out strings.Builder
	res, err := run(config{workload: workload, seed: seed, trace: trace,
		traceDir: t.TempDir(), ops: smokeOps[workload]}, &out)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res, out.String()
}

func TestEndToEndMetricsAndNoFailures(t *testing.T) {
	endToEnd, _ := declared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, out := smoke(t, w.name, 1, 0)
			checkDeclared(t, w.name, res.Metrics, endToEnd)
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want a positive value", name, m.Value)
				}
			}
			if res.Attempted == 0 || res.Failed != 0 || !res.Correct {
				t.Errorf("attempted %d, failed %d, correct %v: want every op and the audit to pass\n%s",
					res.Attempted, res.Failed, res.Correct, out)
			}
		})
	}
}

func TestSimMetricsRepeatPerSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, _ := smoke(t, w.name, 7, 0)
			b, _ := smoke(t, w.name, 7, 0)
			for _, name := range []string{"sim_us_per_op", "sim_p99_us"} {
				if a.Metrics[name] != b.Metrics[name] {
					t.Errorf("%s: %v then %v with one seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
		})
	}
}

func TestSeedChangesOpSequence(t *testing.T) {
	for _, w := range workloads {
		p1 := w.gen(rand.New(rand.NewSource(1)), w.ops)
		p1b := w.gen(rand.New(rand.NewSource(1)), w.ops)
		p2 := w.gen(rand.New(rand.NewSource(2)), w.ops)
		if !reflect.DeepEqual(p1, p1b) {
			t.Errorf("%s: one seed gave two op sequences", w.name)
		}
		if reflect.DeepEqual(p1.ops, p2.ops) {
			t.Errorf("%s: seeds 1 and 2 gave the same op sequence", w.name)
		}
		if len(p1.ops) != w.ops {
			t.Errorf("%s: %d ops, want %d", w.name, len(p1.ops), w.ops)
		}
	}
}

func TestPerLayerSplit(t *testing.T) {
	_, perLayer := declared(t)
	layer := map[string]map[string]metric{}
	for _, w := range workloads {
		res, _ := smoke(t, w.name, 3, 1)
		checkDeclared(t, w.name, res.Metrics, perLayer)
		if d := res.Metrics["trace.spans_dropped"].Value; d != 0 {
			t.Errorf("%s: %v spans dropped", w.name, d)
		}
		layer[w.name] = res.Metrics
	}
	v := func(w, name string) float64 { return layer[w][name].Value }
	if v("pinstorm", "mm.swap_outs_per_op") <= 0 {
		t.Errorf("pinstorm: no swap-outs")
	}
	for _, w := range []string{"bulk", "collective"} {
		if s := v(w, "mm.swap_outs_per_op"); s > 0.01 {
			t.Errorf("%s: %v swap-outs per op, want about 0", w, s)
		}
	}
	if h := v("bulk", "regcache.hit_ratio"); h <= 0 || h >= 1 {
		t.Errorf("bulk: regcache hit ratio %v, want strictly between 0 and 1", h)
	}
	if v("collective", "via.inline_sends_per_op") <= 0 {
		t.Errorf("collective: no inline sends")
	}
	if s := v("bulk", "via.inline_sends_per_op"); s != 0 {
		t.Errorf("bulk: %v inline sends per op, want 0", s)
	}
	if f := v("pinstorm", "kagent.consistent_frac"); f != 1 {
		t.Errorf("pinstorm: TPT-consistent fraction %v, want 1", f)
	}
}

// TestRemapAfterZeroCopyDelivers is the known defect that keeps bulk's
// remap receives on destinations of their own (NOTES.md, "Known
// defect"): a zero-copy receive, then a remap receive, then a zero-copy
// receive, all into one buffer.  The last one must deliver the source.
// It fails until msg drops the receiver's cached registrations of a
// buffer whose frames a remap receive replaces.
func TestRemapAfterZeroCopyDelivers(t *testing.T) {
	c, err := cluster.New(cluster.Config{Nodes: 2, TPTSlots: 8192})
	if err != nil {
		t.Fatal(err)
	}
	tx, rx, err := c.EndpointPair(0, 1, bulkCacheRegions)
	if err != nil {
		t.Fatal(err)
	}
	const size = 256 << 10 // past msg.OneCopyMax, so msg.Auto goes zero-copy
	src, err := tx.Process().Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := rx.Process().Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.FillPattern(1); err != nil {
		t.Fatal(err)
	}
	want, got := make([]byte, size), make([]byte, size)
	if err := src.Read(0, want); err != nil {
		t.Fatal(err)
	}
	protos := []msg.Protocol{msg.Auto, msg.Remap, msg.Auto}
	names := []string{"zero-copy", "remap", "zero-copy"}
	for i, proto := range protos {
		if err := dst.FillPattern(byte(10 + i)); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := rx.Recv(dst)
			done <- err
		}()
		if _, err := tx.Send(src, proto); err != nil {
			t.Fatalf("send %d (%s): %v", i, names[i], err)
		}
		if err := <-done; err != nil {
			t.Fatalf("recv %d (%s): %v", i, names[i], err)
		}
		if err := dst.Read(0, got); err != nil {
			t.Fatal(err)
		}
		if bad := badPages(got, want); bad > 0 {
			t.Errorf("message %d (%s): %d of %d pages differ from the source", i, names[i], bad, dst.Pages())
		}
	}
}
