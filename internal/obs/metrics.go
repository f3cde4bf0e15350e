// Package obs is the service-wide observability plane: a dependency-free
// typed metrics registry with Prometheus text-format exposition, a
// lightweight per-job trace span API backed by a ring buffer, and slog
// context plumbing that threads request ID, tenant and job ID through every
// log line. The module is stdlib-only and this package keeps it that way.
//
// Everything is nil-safe: a nil *Registry hands out nil instruments whose
// methods are no-ops, and a nil *Tracer records nothing — components accept
// an optional registry/tracer and instrument unconditionally, paying nothing
// when observability is not wired up.
//
// DESIGN.md documents the naming conventions and the cardinality rules
// (tenant is the only free label; job IDs and request IDs never become
// labels — they go to traces and logs instead).
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// LatencyBuckets is the fixed log-scale bucket ladder shared by every
// latency histogram in the service: 100µs to 25s in 1–2.5–5 decades. One
// shared ladder keeps histograms comparable across metric families and
// bounds the exposition size.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5, 5,
	10, 25,
}

// metricKind discriminates the exposition TYPE line.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. The zero value is not usable; NewRegistry is. A nil
// *Registry is a valid no-op sink.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string // registration order; exposition sorts anyway
	funcs    map[string]*gaugeFunc
}

type gaugeFunc struct {
	help string
	fn   func() float64
}

// family is one named metric with a fixed label schema and a set of live
// label-value series.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64 // histogram upper bounds, +Inf implicit

	mu     sync.RWMutex
	series map[string]*series
}

// series is one labeled time series. Counter/gauge values are float64 bits
// in an atomic word; histograms add per-bucket counts and a sum.
type series struct {
	labelVals []string
	bits      atomic.Uint64 // counter/gauge value, and histogram sum
	count     atomic.Uint64 // histogram observation count
	bucketN   []atomic.Uint64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		funcs:    make(map[string]*gaugeFunc),
	}
}

// register get-or-creates a family. Re-registering an existing name returns
// the existing family; asking for it with a different kind or label schema is
// a programming error and panics loudly rather than corrupting the exposition.
func (r *Registry) register(name, help string, kind metricKind, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind or label schema", name))
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		kind:    kind,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]*series),
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// Counter registers (or retrieves) a counter family. Counters only go up.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{fam: r.register(name, help, kindCounter, nil, labels)}
}

// Gauge registers (or retrieves) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{fam: r.register(name, help, kindGauge, nil, labels)}
}

// Histogram registers (or retrieves) a histogram family with the given
// upper-bound buckets (+Inf implied). Nil buckets default to LatencyBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = LatencyBuckets
	}
	return &HistogramVec{fam: r.register(name, help, kindHistogram, buckets, labels)}
}

// GaugeFunc registers a label-less gauge evaluated at scrape time — the
// natural shape for instantaneous values the owner already tracks (queue
// depth, busy workers). Re-registering a name replaces its callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, taken := r.families[name]; taken {
		panic(fmt.Sprintf("obs: metric %q already registered as a non-func family", name))
	}
	r.funcs[name] = &gaugeFunc{help: help, fn: fn}
}

// get resolves one series of the family for the given label values.
func (f *family) get(vals []string) *series {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(vals)))
	}
	key := strings.Join(vals, "\x00")
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok = f.series[key]; ok {
		return s
	}
	s = &series{labelVals: append([]string(nil), vals...)}
	if f.kind == kindHistogram {
		s.bucketN = make([]atomic.Uint64, len(f.buckets)+1)
	}
	f.series[key] = s
	return s
}

// addFloat atomically adds delta to the series' float64 word.
func (s *series) addFloat(delta float64) {
	for {
		old := s.bits.Load()
		if s.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// --- counter ----------------------------------------------------------------

// CounterVec is a counter family; With resolves one labeled counter.
type CounterVec struct{ fam *family }

// Counter is one labeled counter series.
type Counter struct{ s *series }

// With returns the counter for the given label values (one per label name,
// in registration order).
func (v *CounterVec) With(labelVals ...string) Counter {
	if v == nil {
		return Counter{}
	}
	return Counter{s: v.fam.get(labelVals)}
}

// Add increments the counter by delta; negative deltas are ignored —
// counters only go up.
func (c Counter) Add(delta float64) {
	if c.s == nil || delta < 0 {
		return
	}
	c.s.addFloat(delta)
}

// Inc increments the counter by one.
func (c Counter) Inc() { c.Add(1) }

// Value reads the counter, for tests and snapshot logging.
func (c Counter) Value() float64 {
	if c.s == nil {
		return 0
	}
	return math.Float64frombits(c.s.bits.Load())
}

// --- gauge ------------------------------------------------------------------

// GaugeVec is a gauge family; With resolves one labeled gauge.
type GaugeVec struct{ fam *family }

// Gauge is one labeled gauge series.
type Gauge struct{ s *series }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(labelVals ...string) Gauge {
	if v == nil {
		return Gauge{}
	}
	return Gauge{s: v.fam.get(labelVals)}
}

// Set stores an absolute value.
func (g Gauge) Set(v float64) {
	if g.s == nil {
		return
	}
	g.s.bits.Store(math.Float64bits(v))
}

// Add moves the gauge by delta (negative deltas allowed).
func (g Gauge) Add(delta float64) {
	if g.s == nil {
		return
	}
	g.s.addFloat(delta)
}

// Inc and Dec move the gauge by ±1.
func (g Gauge) Inc() { g.Add(1) }

// Dec decrements the gauge by one.
func (g Gauge) Dec() { g.Add(-1) }

// --- histogram --------------------------------------------------------------

// HistogramVec is a histogram family; With resolves one labeled histogram.
type HistogramVec struct{ fam *family }

// Histogram is one labeled histogram series.
type Histogram struct {
	s       *series
	buckets []float64
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(labelVals ...string) Histogram {
	if v == nil {
		return Histogram{}
	}
	return Histogram{s: v.fam.get(labelVals), buckets: v.fam.buckets}
}

// Observe records one observation.
func (h Histogram) Observe(v float64) {
	if h.s == nil {
		return
	}
	// Cumulative buckets are computed at exposition; each observation lands
	// in exactly one bucket slot here (the last slot is +Inf).
	i := sort.SearchFloat64s(h.buckets, v)
	h.s.bucketN[i].Add(1)
	h.s.count.Add(1)
	h.s.addFloat(v)
}

// Count reads the observation count, for tests and snapshot logging.
func (h Histogram) Count() uint64 {
	if h.s == nil {
		return 0
	}
	return h.s.count.Load()
}

// --- exposition -------------------------------------------------------------

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4): HELP and TYPE lines, one sample line per series,
// histogram series expanded into cumulative _bucket/_sum/_count. Output is
// fully sorted (families by name, series by label values), so it is stable
// for golden tests and diffable between scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.families)+len(r.funcs))
	for name := range r.families {
		names = append(names, name)
	}
	for name := range r.funcs {
		names = append(names, name)
	}
	fams := make(map[string]*family, len(r.families))
	for name, f := range r.families {
		fams[name] = f
	}
	funcs := make(map[string]*gaugeFunc, len(r.funcs))
	for name, gf := range r.funcs {
		funcs[name] = gf
	}
	r.mu.RUnlock()
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		if gf, ok := funcs[name]; ok {
			writeHeader(&b, name, gf.help, kindGauge)
			fmt.Fprintf(&b, "%s %s\n", name, formatFloat(gf.fn()))
			continue
		}
		f := fams[name]
		f.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		writeHeader(&b, f.name, f.help, f.kind)
		for _, k := range keys {
			s := f.series[k]
			switch f.kind {
			case kindHistogram:
				writeHistogram(&b, f, s)
			default:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(f.labels, s.labelVals, "", ""), formatFloat(math.Float64frombits(s.bits.Load())))
			}
		}
		f.mu.RUnlock()
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHeader(b *strings.Builder, name, help string, kind metricKind) {
	if help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", name, escapeHelp(help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", name, kind)
}

func writeHistogram(b *strings.Builder, f *family, s *series) {
	cum := uint64(0)
	for i, ub := range f.buckets {
		cum += s.bucketN[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.labelVals, "le", formatFloat(ub)), cum)
	}
	cum += s.bucketN[len(f.buckets)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.labelVals, "le", "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, s.labelVals, "", ""), formatFloat(math.Float64frombits(s.bits.Load())))
	fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, s.labelVals, "", ""), s.count.Load())
}

// labelString renders {a="x",b="y"} with exposition-format escaping, with an
// optional extra label (the histogram "le"). Empty schemas render nothing.
func labelString(names, vals []string, extraName, extraVal string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(v string) string { return helpEscaper.Replace(v) }

// formatFloat renders a sample value: shortest exact representation, +Inf
// spelled the Prometheus way.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the exposition over HTTP — mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w) //nolint:errcheck // nothing to do once headers are out
	})
}
