package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Times are clock()
// readings; Parent indexes the span that caused this one
// (-1 for a root); spans of one request or round share ID.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	ID     uint64 `json:"id"`
}

// maxSpans is the size of the span buffer. Each workload samples every
// k-th request or round, with k chosen so that a full window should fit;
// if the workload runs faster than that, sampling stops when the buffer
// is nearly full. Nothing is overwritten, and operation counts come from
// counters, so they stay exact either way.
const maxSpans = 1 << 17

// tracer records spans from benchmark code only: around the benchmark's
// own calls into a layer. A nil *tracer is the untraced run.
type tracer struct {
	every   uint64
	reserve int64 // sample takes on a unit only while this many spans are free
	n       atomic.Int64
	dropped atomic.Int64
	spans   []span
}

// newTracer sizes the sampling stride for a window in which units (rounds,
// requests) arrive at about unitsPerSec and record spansPerUnit spans each.
// Up to P <= 4 units are in flight at once, so four units' room is kept.
func newTracer(window time.Duration, unitsPerSec, spansPerUnit float64) *tracer {
	return &tracer{
		every:   uint64(window.Seconds()*unitsPerSec*spansPerUnit/maxSpans) + 1,
		reserve: 4 * int64(spansPerUnit),
		spans:   make([]span, maxSpans),
	}
}

// sample decides whether unit id is traced, and returns where it records:
// the zero scope when it is not (or when t is nil).
func (t *tracer) sample(id uint64) scope {
	if t == nil || id%t.every != 0 || t.n.Load()+t.reserve > int64(len(t.spans)) {
		return scope{}
	}
	return scope{tr: t, parent: -1, id: id}
}

// join returns where the far side of an already sampled unit records.
func (t *tracer) join(id uint64) scope { return scope{tr: t, parent: -1, id: id} }

// open reserves a span so that children can name it as their parent
// before it ends; close sets its end. -1 means the buffer is full.
func (t *tracer) open(name string, start int64, parent int32, id uint64) int32 {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{Name: name, Start: start, End: start, Parent: parent, ID: id}
	return int32(i)
}

func (t *tracer) close(i int32, end int64) {
	if i >= 0 {
		t.spans[i].End = end
	}
}

// scope is where one traced unit (a request, a round) records: the
// tracer, the span that causes the next ones, and the unit's id. The zero
// scope records nothing and reads no clock, so call sites carry no
// branches and the untraced run pays a nil check per site.
type scope struct {
	tr     *tracer
	parent int32
	id     uint64
}

func (s scope) now() int64 {
	if s.tr == nil {
		return 0
	}
	return clock()
}

func (s scope) add(name string, start, end int64) {
	if s.tr != nil {
		s.tr.close(s.tr.open(name, start, s.parent, s.id), end)
	}
}

// open starts a span and returns the scope of its children; close ends it.
func (s scope) open(name string, start int64) scope {
	if s.tr == nil {
		return s
	}
	return scope{tr: s.tr, parent: s.tr.open(name, start, s.parent, s.id), id: s.id}
}

func (s scope) close(end int64) {
	if s.tr != nil {
		s.tr.close(s.parent, end)
	}
}

// recorded returns the spans written so far. Call it only after every
// goroutine that records has been waited for.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its child spans cover (children may overlap each other
// and may overhang the parent; both are clipped).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// durationsByName groups span durations by span name.
func durationsByName(spans []span) map[string][]int64 {
	m := make(map[string][]int64)
	for _, s := range spans {
		m[s.Name] = append(m[s.Name], s.End-s.Start)
	}
	return m
}

func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// epoch anchors clock: every timestamp in the benchmark, including the
// one that travels inside a request frame, is nanoseconds since epoch on
// the process's monotonic clock, so readings taken by client, handler and
// timer callback compare directly.
var epoch = time.Now()

func clock() int64 { return int64(time.Since(epoch)) }
