package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer: name, start, end, the span that
// caused it, and the request both belong to. Times are nanoseconds since the
// tracer was made.
type span struct {
	name        uint8
	parent, req int32
	start, end  int64
}

// tracer keeps spans in a slice allocated before the run and writes them
// out when the run ends. Slots are claimed with one atomic add, so client
// and handler goroutines share it without a lock. A nil tracer records
// nothing: that is the untraced run the overhead is measured against.
type tracer struct {
	t0      time.Time
	names   []string
	spans   []span
	next    atomic.Int32
	dropped atomic.Int32 // spans beyond the preallocated capacity
}

const noSpan = int32(-1)

func newTracer(capacity int, names ...string) *tracer {
	return &tracer{t0: time.Now(), names: names, spans: make([]span, capacity)}
}

// id returns the index of a name given to newTracer.
func (t *tracer) id(name string) uint8 {
	for i, n := range t.names {
		if n == name {
			return uint8(i)
		}
	}
	panic("benchmark: span name " + name + " was not declared")
}

func (t *tracer) begin(name uint8, parent, req int32) int32 {
	if t == nil {
		return noSpan
	}
	i := t.next.Add(1) - 1
	if int(i) >= len(t.spans) {
		t.dropped.Add(1)
		return noSpan
	}
	t.spans[i] = span{name: name, parent: parent, req: req, start: int64(time.Since(t.t0))}
	return i
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.t0))
	}
}

// endAs ends a span whose name is only known once the call has returned
// (a claim is "fresh" or "dup" by its result).
func (t *tracer) endAs(i int32, name uint8) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.t0))
		t.spans[i].name = name
	}
}

func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	return t.spans[:min(int(t.next.Load()), len(t.spans))]
}

// layer is the aggregate of one span name.
type layer struct {
	count int
	total float64 // summed duration, ns
	self  float64 // summed duration minus the time covered by child spans, ns
}

func (l layer) meanNs() float64 {
	if l.count == 0 {
		return 0
	}
	return l.total / float64(l.count)
}

func (l layer) meanSelfNs() float64 {
	if l.count == 0 {
		return 0
	}
	return l.self / float64(l.count)
}

// layers aggregates the recorded spans by name.
func (t *tracer) layers() map[string]layer {
	spans := t.recorded()
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += float64(s.end - s.start)
		if s.parent >= 0 && int(s.parent) < len(spans) {
			self[s.parent] -= float64(s.end - s.start)
		}
	}
	out := map[string]layer{}
	for i, s := range spans {
		l := out[t.names[s.name]]
		l.count++
		l.total += float64(s.end - s.start)
		l.self += self[i]
		out[t.names[s.name]] = l
	}
	return out
}

// emptySpanNs measures what a span reads when it wraps nothing: one clock
// read's worth. It is subtracted from the per-call means of the layers whose
// calls are only a few clock reads long.
func emptySpanNs() float64 {
	const n = 20000
	t := newTracer(n, "empty")
	for i := 0; i < n; i++ {
		t.end(t.begin(0, noSpan, 0))
	}
	return t.layers()["empty"].meanNs()
}

// write stores the spans as compact JSON: the names once, then one
// [name, start, end, parent, request] row per span.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString(`{"unit":"ns","dropped":` + strconv.Itoa(int(t.dropped.Load())) + `,"names":[`)
	for i, n := range t.names {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(strconv.Quote(n))
	}
	w.WriteString(`],"columns":["name","start","end","parent","request"],"spans":[`)
	var buf []byte
	for i, s := range t.recorded() {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n', '[')
		buf = strconv.AppendInt(buf, int64(s.name), 10)
		for _, v := range [...]int64{s.start, s.end, int64(s.parent), int64(s.req)} {
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, v, 10)
		}
		buf = append(buf, ']')
		w.Write(buf)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
