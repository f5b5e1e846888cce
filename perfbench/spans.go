package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/simtime"
)

// maxSpans bounds the in-memory span store; spans past it are counted as
// dropped.  The traced passes of a 20-second run stay well below it:
// collective, the busiest workload, records about 400 thousand.
const maxSpans = 1 << 20

// span is one timed call into a layer, recorded by the benchmark around
// the public call.  Times are nanoseconds: wall since the tracer's epoch,
// sim on the cluster's clock.
type span struct {
	name               string
	op                 int32 // the op's id, unique within the run
	lane               int32 // goroutine that made the call (Chrome tid)
	parent             int32 // index of the enclosing span, -1 for none
	wallStart, wallEnd int64
	simStart, simEnd   simtime.Duration
}

// tracer keeps spans in memory until the run ends.  A nil *tracer
// records nothing, which is how untraced passes run.
type tracer struct {
	epoch time.Time
	meter *simtime.Meter

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer(meter *simtime.Meter) *tracer {
	return &tracer{epoch: time.Now(), meter: meter}
}

// begin opens a span and returns its id (-1 when nothing is recorded).
func (t *tracer) begin(name string, op, lane, parent int) int {
	if t == nil {
		return -1
	}
	s := span{name: name, op: int32(op), lane: int32(lane), parent: int32(parent),
		simStart: t.meter.Now(), wallStart: int64(time.Since(t.epoch))}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	wall, sim := int64(time.Since(t.epoch)), t.meter.Now()
	t.mu.Lock()
	t.spans[id].wallEnd, t.spans[id].simEnd = wall, sim
	t.mu.Unlock()
}

// spanAgg sums the spans of one name.
type spanAgg struct {
	n         int
	wall, sim float64 // nanoseconds
}

func (a spanAgg) wallUs() float64 { return safeDiv(a.wall, float64(a.n)) / 1e3 }
func (a spanAgg) simUs() float64  { return safeDiv(a.sim, float64(a.n)) / 1e3 }

// aggregate groups the spans by name.
func (t *tracer) aggregate() map[string]spanAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]spanAgg)
	for _, s := range t.spans {
		a := out[s.name]
		a.n++
		a.wall += float64(s.wallEnd - s.wallStart)
		a.sim += float64(s.simEnd - s.simStart)
		out[s.name] = a
	}
	return out
}

// chromeEvent is one entry of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	ID   int32          `json:"id,omitempty"`
	Bp   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome exports the spans of ops [lo, hi) as complete ("X")
// events whose args carry the op id, the parent span and the sim-time
// interval.  Each op also gets a flow arrow from its first layer call to
// every call on another lane, so one bulk send can be followed from
// msg.Send to msg.Recv.
func (t *tracer) writeChrome(path string, lo, hi int, meta map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if _, err := fmt.Fprintf(w, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := make(map[int32]int) // op -> first span
	sep := ""
	emit := func(ev chromeEvent) error {
		if _, err := w.WriteString(sep); err != nil {
			return err
		}
		sep = ","
		return enc.Encode(ev)
	}
	for i, s := range t.spans {
		if int(s.op) < lo || int(s.op) >= hi {
			continue
		}
		ev := chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts: float64(s.wallStart) / 1e3, Dur: float64(s.wallEnd-s.wallStart) / 1e3,
			Args: map[string]any{
				"span": i, "op": s.op, "parent": s.parent,
				"sim_start_us": s.simStart.Micros(), "sim_end_us": s.simEnd.Micros(),
			},
		}
		if err := emit(ev); err != nil {
			return err
		}
		if s.parent < 0 {
			continue
		}
		j, ok := first[s.op]
		if !ok {
			first[s.op] = i
			continue
		}
		if f := t.spans[j]; f.lane != s.lane {
			// Flow from the op's first layer call to this one on the
			// peer's lane: the arrow joins Send and Recv of one message.
			if err := emit(chromeEvent{Name: "op", Ph: "s", Pid: 1, Tid: f.lane, ID: int32(i),
				Ts: float64(f.wallStart) / 1e3}); err != nil {
				return err
			}
			if err := emit(chromeEvent{Name: "op", Ph: "f", Bp: "e", Pid: 1, Tid: s.lane, ID: int32(i),
				Ts: float64(s.wallEnd) / 1e3}); err != nil {
				return err
			}
		}
	}
	md, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "],\"otherData\":%s}\n", md); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
