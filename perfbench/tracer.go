package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans live in memory for the
// whole run and are written out when it ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 = root
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"` // request ID shared by one request's spans
	// Start and End are nanoseconds since the tracer's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// AllocBytes and Mallocs are the process-wide heap allocations
	// during the span. They are recorded only by startMem, which callers
	// use where nothing else runs concurrently.
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	Mallocs    uint64 `json:"mallocs,omitempty"`

	alloc0, mallocs0 uint64
	mem              bool
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans. A nil *tracer records nothing, so untraced runs
// call the same code with tracing off.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start opens a span and returns its ID (0 when tracing is off).
func (t *tracer) start(name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: t.now()})
	return id
}

// record adds a finished root span timed by the caller.
func (t *tracer) record(name, req string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Req: req,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// startMem is start plus heap accounting for the span.
func (t *tracer) startMem(name string, parent int) int {
	if t == nil {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	id := t.start(name, parent, "")
	t.mu.Lock()
	s := &t.spans[id-1]
	s.mem, s.alloc0, s.mallocs0 = true, ms.TotalAlloc, ms.Mallocs
	s.Start = t.now()
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	mem := t.spans[id-1].mem
	t.mu.Unlock()
	var ms runtime.MemStats
	if mem {
		runtime.ReadMemStats(&ms)
	}
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = end
	if mem {
		s.AllocBytes, s.Mallocs = ms.TotalAlloc-s.alloc0, ms.Mallocs-s.mallocs0
	}
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// linkByRequest gives every parentless span of a request the innermost
// earlier span of the same request that contains it as its parent. The
// hops of one HTTP request (client, coordinator, backend handler) are
// recorded by different goroutines that only share the request ID.
func linkByRequest(spans []span) {
	byReq := map[string][]int{}
	for i, s := range spans {
		if s.Req != "" {
			byReq[s.Req] = append(byReq[s.Req], i)
		}
	}
	for _, idx := range byReq {
		for _, i := range idx {
			if spans[i].Parent != 0 {
				continue
			}
			best := -1
			for _, j := range idx {
				if j == i || spans[j].Start > spans[i].Start || spans[j].End < spans[i].End {
					continue
				}
				if best < 0 || spans[j].dur() < spans[best].dur() {
					best = j
				}
			}
			if best >= 0 {
				spans[i].Parent = spans[best].ID
			}
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children (work
// fanned out across workers) are merged first, so covered time is
// never counted twice and self time is never negative.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of [lo,hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	cl := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			cl = append(cl, [2]int64{a, b})
		}
	}
	sort.Slice(cl, func(i, j int) bool { return cl[i][0] < cl[j][0] })
	var total, curA, curB int64
	for i, iv := range cl {
		switch {
		case i == 0:
			curA, curB = iv[0], iv[1]
		case iv[0] > curB:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		case iv[1] > curB:
			curB = iv[1]
		}
	}
	if len(cl) > 0 {
		total += curB - curA
	}
	return time.Duration(total)
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// durations returns the durations of every span with the given name, in
// the unit given.
func durations(spans []span, name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}
