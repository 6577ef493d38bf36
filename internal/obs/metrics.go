// Package obs is the repository's stdlib-only observability toolkit: a
// small metrics registry (counters, gauges, histograms with fixed buckets)
// that renders the Prometheus text exposition format, plus log/slog-based
// HTTP middleware recording per-endpoint request counts, latencies, and
// in-flight gauges. It has no dependencies beyond the standard library, so
// every layer of the pipeline (core detector, serve front-end, commands)
// can report into one registry without pulling in a metrics vendor.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Name, Value string
}

// DefBuckets suits sub-second pipeline stages (100µs … 10s), the range the
// detector's per-round work spans from a handful of sensors up to very wide
// arrays.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing count. Safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down. Safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative buckets. Safe for
// concurrent use.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; implicit +Inf bucket follows
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations so far.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// family groups every series of one metric name.
type family struct {
	name, help, typ string
	buckets         []float64 // histograms only
	mu              sync.Mutex
	series          map[string]any // label signature → *Counter | *Gauge | *Histogram
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. The zero value is not usable; call NewRegistry. Safe
// for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the family for name, creating it on first use, and panics
// if name was previously registered with a different type — mixing types
// under one name is a programming error the exposition format cannot
// express.
func (r *Registry) lookup(name, help, typ string) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]any)}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// labelSignature renders labels into the canonical {a="b",c="d"} form used
// both as the series key and in the exposition output.
func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	byName := func(a, b Label) int { return strings.Compare(a.Name, b.Name) }
	if !slices.IsSortedFunc(labels, byName) {
		labels = slices.Clone(labels)
		slices.SortFunc(labels, byName)
	}
	size := 2
	for _, l := range labels {
		size += len(l.Name) + len(l.Value) + 4
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper escapes label values for the exposition format. Built once:
// a Replacer's tables cost kilobytes, and labels are looked up per request.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	return labelEscaper.Replace(v)
}

// Counter returns the counter series for name and labels, creating it on
// first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.lookup(name, help, "counter")
	f.mu.Lock()
	defer f.mu.Unlock()
	sig := labelSignature(labels)
	if m, ok := f.series[sig]; ok {
		return m.(*Counter)
	}
	c := &Counter{}
	f.series[sig] = c
	return c
}

// Gauge returns the gauge series for name and labels, creating it on first
// use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.lookup(name, help, "gauge")
	f.mu.Lock()
	defer f.mu.Unlock()
	sig := labelSignature(labels)
	if m, ok := f.series[sig]; ok {
		return m.(*Gauge)
	}
	g := &Gauge{}
	f.series[sig] = g
	return g
}

// Histogram returns the histogram series for name and labels, creating it
// on first use with the given bucket upper bounds (nil means DefBuckets).
// Buckets are fixed at first registration; later calls reuse them.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	f := r.lookup(name, help, "histogram")
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.buckets == nil {
		if buckets == nil {
			buckets = DefBuckets
		}
		bounds := make([]float64, len(buckets))
		copy(bounds, buckets)
		sort.Float64s(bounds)
		f.buckets = bounds
	}
	sig := labelSignature(labels)
	if m, ok := f.series[sig]; ok {
		return m.(*Histogram)
	}
	h := &Histogram{bounds: f.buckets, counts: make([]atomic.Uint64, len(f.buckets)+1)}
	f.series[sig] = h
	return h
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered series in the text exposition
// format (families and series in lexicographic order, so output is stable
// for tests and diffing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, sig := range sigs {
			switch m := f.series[sig].(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, sig, m.Value())
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, sig, formatFloat(m.Value()))
			case *Histogram:
				writeHistogram(&b, f.name, sig, m)
			}
		}
		f.mu.Unlock()
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders the cumulative _bucket series plus _sum and
// _count. sig is either "" or "{...}"; the le label is merged in.
func writeHistogram(b *strings.Builder, name, sig string, h *Histogram) {
	withLE := func(le string) string {
		if sig == "" {
			return `{le="` + le + `"}`
		}
		return sig[:len(sig)-1] + `,le="` + le + `"}`
	}
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE(formatFloat(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE("+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, sig, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, sig, h.Count())
}

// Handler returns an http.Handler serving the registry in the Prometheus
// text exposition format — mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
