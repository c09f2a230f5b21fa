package service

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry is a minimal Prometheus-text-format metrics registry:
// counters (optionally with one label), callback gauges and cumulative
// histograms, exposed deterministically (registration order, sorted
// label values) by WriteTo. It exists so the daemon has real /metrics
// without pulling in a client library.
type Registry struct {
	mu      sync.Mutex
	entries []collector
}

type collector interface {
	name() string
	write(w io.Writer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) register(c collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		if e.name() == c.name() {
			panic("service: duplicate metric " + c.name())
		}
	}
	r.entries = append(r.entries, c)
}

// WriteTo writes the Prometheus text exposition of every registered
// metric. The output is deterministic for a fixed metric state.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	entries := append([]collector(nil), r.entries...)
	r.mu.Unlock()
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}
	for _, e := range entries {
		e.write(cw)
	}
	err := bw.Flush()
	return cw.n, err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func header(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter is a monotonically increasing metric.
type Counter struct {
	nm, help string
	bits     atomic.Uint64 // float64 bits
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{nm: name, help: help}
	r.register(c)
	return c
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (v must be >= 0 to keep the counter monotone).
func (c *Counter) Add(v float64) {
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *Counter) name() string { return c.nm }

func (c *Counter) write(w io.Writer) {
	header(w, c.nm, c.help, "counter")
	fmt.Fprintf(w, "%s %s\n", c.nm, formatValue(c.Value()))
}

// CounterVec is a counter family with one label dimension.
type CounterVec struct {
	nm, help, label string
	mu              sync.Mutex
	children        map[string]*Counter
}

// CounterVec registers and returns a counter family keyed by one label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{nm: name, help: help, label: label, children: map[string]*Counter{}}
	r.register(v)
	return v
}

// With returns the child counter for one label value, creating it on
// first use.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[value]
	if !ok {
		c = &Counter{nm: v.nm}
		v.children[value] = c
	}
	return c
}

func (v *CounterVec) name() string { return v.nm }

func (v *CounterVec) write(w io.Writer) {
	header(w, v.nm, v.help, "counter")
	v.mu.Lock()
	values := make([]string, 0, len(v.children))
	for val := range v.children {
		values = append(values, val)
	}
	sort.Strings(values)
	for _, val := range values {
		fmt.Fprintf(w, "%s{%s=%q} %s\n", v.nm, v.label, val, formatValue(v.children[val].Value()))
	}
	v.mu.Unlock()
}

// Gauge is a callback-backed instantaneous value: the current queue
// depth, busy workers, cache entries and the like are read at scrape
// time instead of being tracked redundantly.
type Gauge struct {
	nm, help string
	fn       func() float64
}

// Gauge registers a callback gauge.
func (r *Registry) Gauge(name, help string, fn func() float64) *Gauge {
	g := &Gauge{nm: name, help: help, fn: fn}
	r.register(g)
	return g
}

func (g *Gauge) name() string { return g.nm }

func (g *Gauge) write(w io.Writer) {
	header(w, g.nm, g.help, "gauge")
	fmt.Fprintf(w, "%s %s\n", g.nm, formatValue(g.fn()))
}

// Histogram is a cumulative-bucket histogram in the Prometheus style.
type Histogram struct {
	nm, help string
	bounds   []float64 // upper bounds, ascending, +Inf implicit
	mu       sync.Mutex
	counts   []uint64
	sum      float64
	total    uint64
}

// Histogram registers a histogram with the given ascending upper
// bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("service: histogram bounds not ascending: " + name)
		}
	}
	h := &Histogram{nm: name, help: help, bounds: bounds, counts: make([]uint64, len(bounds))}
	r.register(h)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
		}
	}
	h.sum += v
	h.total++
	h.mu.Unlock()
}

func (h *Histogram) name() string { return h.nm }

func (h *Histogram) write(w io.Writer) {
	header(w, h.nm, h.help, "histogram")
	h.mu.Lock()
	for i, b := range h.bounds {
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.nm, formatValue(b), h.counts[i])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.nm, h.total)
	fmt.Fprintf(w, "%s_sum %s\n", h.nm, formatValue(h.sum))
	fmt.Fprintf(w, "%s_count %d\n", h.nm, h.total)
	h.mu.Unlock()
}
