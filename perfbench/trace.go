package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded from the benchmark's side of
// that layer's public API. Start and End are nanoseconds since the tracer
// was created; Parent is 0 for a root span.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`   // unit key or job id
	Index  int    `json:"index,omitempty"` // pool index of an evaluation
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur returns the span's length in seconds.
func (s Span) Dur() float64 { return float64(s.End-s.Start) / 1e9 }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per hook.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
	next  int64
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// Begin opens a span and returns its id (0 on a nil tracer).
func (t *Tracer) Begin(name, key string, parent int64) int64 {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, Span{ID: t.next, Parent: parent, Name: name, Key: key, Start: start, End: -1})
	return t.next
}

// End closes the span id.
func (t *Tracer) End(id int64) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = end
}

// Record adds an already-measured span.
func (t *Tracer) Record(name, key string, index int, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, Span{ID: t.next, Parent: parent, Name: name, Key: key, Index: index,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return t.next
}

// linkEvals nests each "eval" span (one call through the whole evaluator
// stack, recorded without knowing its unit) around the "tool" span it
// contains (the innermost call, recorded with its unit): same pool index,
// interval inside. The eval span takes the tool span's unit key and parent,
// and becomes the tool span's parent.
func (t *Tracer) linkEvals() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tools := map[int][]int{} // pool index -> positions of tool spans
	for p, s := range t.spans {
		if s.Name == "tool" {
			tools[s.Index] = append(tools[s.Index], p)
		}
	}
	claimed := map[int]bool{}
	for p := range t.spans {
		ev := &t.spans[p]
		if ev.Name != "eval" || ev.Parent != 0 {
			continue
		}
		for _, q := range tools[ev.Index] {
			tool := &t.spans[q]
			if !claimed[q] && tool.End >= 0 && tool.Start >= ev.Start && tool.End <= ev.End {
				claimed[q] = true
				ev.Parent, ev.Key = tool.Parent, tool.Key
				tool.Parent = ev.ID
				break
			}
		}
	}
}

// Spans returns the closed spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// WriteJSONL writes the closed spans, one JSON object per line.
func (t *Tracer) WriteJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in seconds, keyed by span id: its
// duration minus the part of its interval that its children cover.
// Overlapping children (parallel work under one parent) count once.
func selfTimes(spans []Span) map[int64]float64 {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]float64, len(spans))
	for _, s := range spans {
		covered := coverage(children[s.ID], s.Start, s.End)
		out[s.ID] = float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// coverage is the length of the union of the intervals, clipped to [lo, hi].
func coverage(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([][2]int64(nil), iv...)
	sort.Slice(s, func(a, b int) bool { return s[a][0] < s[b][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	flush := func() {
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, x := range s {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if curHi < 0 || a > curHi {
			flush()
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	flush()
	return total
}

// lanes assigns spans that never overlap within one executor (units on a
// worker goroutine) to lanes, best fit by start time, and returns each
// lane's busy seconds. With at most `executors` spans in flight this
// recovers the per-executor split without the program naming executors.
func lanes(spans []Span, executors int) []float64 {
	s := append([]Span(nil), spans...)
	sort.Slice(s, func(a, b int) bool { return s[a].Start < s[b].Start })
	lastEnd := make([]int64, executors)
	busy := make([]float64, executors)
	for i := range lastEnd {
		lastEnd[i] = -1
	}
	for _, sp := range s {
		best := -1
		for l, e := range lastEnd {
			if e <= sp.Start && (best < 0 || e > lastEnd[best]) {
				best = l
			}
		}
		if best < 0 {
			// More spans in flight than executors: charge the lane that
			// frees first.
			best = 0
			for l, e := range lastEnd {
				if e < lastEnd[best] {
					best = l
				}
			}
		}
		lastEnd[best] = max(lastEnd[best], sp.End)
		busy[best] += sp.Dur()
	}
	return busy
}
