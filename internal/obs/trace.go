package obs

import (
	"context"
	"sync"
	"time"
)

// Span is one completed trace span: a named, timed slice of a job's
// execution. Start carries Go's monotonic clock reading, so Duration is
// immune to wall-clock steps; the JSON projection is what
// GET /v1/jobs/{id}/trace serves.
type Span struct {
	// Job is the owning job's ID — the query key. Spans recorded outside a
	// job context have an empty Job and are only reachable via Recent.
	Job string `json:"job,omitempty"`
	// Name identifies the operation ("job.run", "sweep.level", …).
	Name string `json:"name"`
	// Start is the span's begin time.
	Start time.Time `json:"start"`
	// DurationNS is the span's length in nanoseconds.
	DurationNS int64 `json:"duration_ns"`
	// Attrs carries bounded, low-cardinality details (level k, job kind).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Tracer records completed spans into a fixed-size ring buffer: old spans
// are overwritten, memory is bounded, and a job's spans stay queryable for
// as long as the ring has room. A nil *Tracer records nothing.
type Tracer struct {
	mu   sync.Mutex
	buf  []Span
	next int // ring write cursor; once the ring is full it is also the oldest entry
}

// DefaultTraceCapacity bounds the span ring when NewTracer is given no size:
// enough for hundreds of concurrent sweeps' level spans.
const DefaultTraceCapacity = 4096

// NewTracer builds a tracer whose ring holds capacity spans (≤ 0 picks
// DefaultTraceCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: make([]Span, 0, capacity)}
}

// Record appends one completed span to the ring.
func (t *Tracer) Record(sp Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, sp)
		return
	}
	t.buf[t.next] = sp
	t.next++
	if t.next == cap(t.buf) {
		t.next = 0
	}
}

// ActiveSpan is an in-flight span started by StartSpan; End records it.
type ActiveSpan struct {
	t     *Tracer
	span  Span
	ended bool
	mu    sync.Mutex
}

// StartSpan opens a span named name, adopting the job ID carried by ctx
// (WithJobID). End it to record it; an un-ended span is simply never
// recorded. The context is returned unchanged today (spans do not nest) but
// callers should thread it anyway — nesting can then be added without
// touching call sites.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	if t == nil {
		return ctx, nil
	}
	return ctx, &ActiveSpan{t: t, span: Span{Job: JobID(ctx), Name: name, Start: time.Now()}}
}

// SetAttr attaches a low-cardinality attribute to the span.
func (s *ActiveSpan) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.span.Attrs == nil {
		s.span.Attrs = make(map[string]string, 2)
	}
	s.span.Attrs[k] = v
}

// End closes the span and records it; extra Ends are no-ops.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.span.DurationNS = int64(time.Since(s.span.Start))
	s.t.Record(s.span)
}

// Spans returns every retained span of one job, oldest first. The slice is
// a copy — safe to serialize concurrently with new recordings.
func (t *Tracer) Spans(job string) []Span {
	if t == nil {
		return nil
	}
	var out []Span
	t.scan(func(sp Span) {
		if sp.Job == job {
			out = append(out, sp)
		}
	})
	return out
}

// scan visits retained spans oldest-first under the lock. While the ring is
// filling the oldest span is index 0; once full, the write cursor points at
// the slot about to be overwritten — the oldest entry.
func (t *Tracer) scan(fn func(Span)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.buf) == cap(t.buf) {
		for i := t.next; i < len(t.buf); i++ {
			fn(t.buf[i])
		}
		for i := 0; i < t.next; i++ {
			fn(t.buf[i])
		}
		return
	}
	for i := range t.buf {
		fn(t.buf[i])
	}
}
