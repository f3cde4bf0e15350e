package obs

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTracerSpansPerJob: spans land under the job ID their context carried
// and are returned oldest-first; other jobs' spans stay invisible.
func TestTracerSpansPerJob(t *testing.T) {
	tr := NewTracer(16)
	ctx := WithJobID(context.Background(), "job-1")
	for k := 2; k <= 4; k++ {
		_, sp := tr.StartSpan(ctx, "sweep.level")
		sp.SetAttr("k", fmt.Sprint(k))
		sp.End()
	}
	_, other := tr.StartSpan(WithJobID(context.Background(), "job-2"), "job.run")
	other.End()

	spans := tr.Spans("job-1")
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for i, sp := range spans {
		if sp.Name != "sweep.level" || sp.Job != "job-1" {
			t.Fatalf("span %d = %+v", i, sp)
		}
		if want := fmt.Sprint(i + 2); sp.Attrs["k"] != want {
			t.Fatalf("span %d k attr = %q, want %q (order violated)", i, sp.Attrs["k"], want)
		}
		if sp.DurationNS < 0 {
			t.Fatalf("span %d has negative duration", i)
		}
	}
	if got := tr.Spans("job-3"); got != nil {
		t.Fatalf("unknown job returned spans: %v", got)
	}
}

// TestTracerRingOverwrite: the ring stays bounded and keeps the most recent
// spans, dropping the oldest.
func TestTracerRingOverwrite(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Span{Job: "j", Name: fmt.Sprintf("s%d", i), Start: time.Now()})
	}
	spans := tr.Spans("j")
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	for i, sp := range spans {
		if want := fmt.Sprintf("s%d", 6+i); sp.Name != want {
			t.Fatalf("span %d = %s, want %s", i, sp.Name, want)
		}
	}
}

// TestTracerDoubleEndRecordsOnce: End is idempotent.
func TestTracerDoubleEndRecordsOnce(t *testing.T) {
	tr := NewTracer(8)
	_, sp := tr.StartSpan(WithJobID(context.Background(), "j"), "x")
	sp.End()
	sp.End()
	if got := len(tr.Spans("j")); got != 1 {
		t.Fatalf("recorded %d spans, want 1", got)
	}
}

// TestTracerConcurrent hammers Record/Spans from parallel goroutines — the
// -race gate for the ring buffer.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := WithJobID(context.Background(), fmt.Sprintf("job-%d", i%2))
			for j := 0; j < 500; j++ {
				_, sp := tr.StartSpan(ctx, "op")
				sp.End()
				if j%50 == 0 {
					tr.Spans("job-0")
				}
			}
		}(i)
	}
	wg.Wait()
	if got := len(tr.Spans("job-0")) + len(tr.Spans("job-1")); got != 64 {
		t.Fatalf("ring retained %d spans, want 64", got)
	}
}

// TestCtxHandlerStampsIdentities: a context carrying request ID, tenant and
// job ID stamps all three onto records logged through the wrapped handler.
func TestCtxHandlerStampsIdentities(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf, slog.LevelDebug)
	ctx := WithJobID(WithTenant(WithRequestID(context.Background(), "req-abc"), "acme"), "job-7")
	logger.InfoContext(ctx, "level done", "k", 5)
	line := buf.String()
	for _, want := range []string{"request_id=req-abc", "tenant=acme", "job=job-7", "k=5", "level done"} {
		if !strings.Contains(line, want) {
			t.Errorf("log line missing %q: %s", want, line)
		}
	}

	buf.Reset()
	logger.Info("no context")
	if line := buf.String(); strings.Contains(line, "request_id") {
		t.Errorf("context-free line gained a request_id: %s", line)
	}
}
