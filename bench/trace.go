package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"text/tabwriter"
	"time"
)

// Span is one traced interval: a call the benchmark made into a layer,
// or a stage it observed from outside (a period-search probe between two
// progress events, a service job's queue wait). Spans of one circuit,
// edit or job share a Trace identifier; Parent is 0 for a root span.
// Start and End are nanoseconds since the run began.
type Span struct {
	Name   string         `json:"name"`
	ID     int            `json:"id"`
	Parent int            `json:"parent"`
	Trace  string         `json:"trace"`
	Start  int64          `json:"start_ns"`
	End    int64          `json:"end_ns"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// Layer is the part of a span name before the first dot.
func (s Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory. A disabled tracer records nothing and
// hands out span ID 0, so untraced runs pay one flag check per call.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// newTracer returns a tracer; when on is false every method is a no-op.
func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now()}
}

// offset converts a timestamp to nanoseconds since the tracer started.
// Timestamps decoded from the service's JSON carry no monotonic reading
// and are compared on the wall clock.
func (t *tracer) offset(ts time.Time) int64 { return int64(ts.Sub(t.t0)) }

// Begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) Begin(name, trace string, parent int) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{Name: name, ID: id, Parent: parent, Trace: trace, Start: t.offset(time.Now())})
	return id
}

// End closes span id and attaches key/value attribute pairs.
func (t *tracer) End(id int, kv ...any) {
	if id == 0 {
		return
	}
	now := t.offset(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	s.Attrs = attrs(kv)
}

// Span records a span whose interval was observed rather than bracketed.
func (t *tracer) Span(name, trace string, parent int, start, end time.Time, kv ...any) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{Name: name, ID: id, Parent: parent, Trace: trace,
		Start: t.offset(start), End: t.offset(end), Attrs: attrs(kv)})
	return id
}

// Spans returns a copy of the recorded spans.
func (t *tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

func attrs(kv []any) map[string]any {
	if len(kv) == 0 {
		return nil
	}
	m := make(map[string]any, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[fmt.Sprint(kv[i])] = kv[i+1]
	}
	return m
}

// spanTimes sums, per span name, the spans' durations and their self
// times. A span's self time is its duration minus the part of its
// interval that its child spans cover; children are clipped to the
// parent and overlapping children are counted once.
func spanTimes(spans []Span) (total, self map[string]time.Duration) {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total = map[string]time.Duration{}
	self = map[string]time.Duration{}
	for _, s := range spans {
		d := s.End - s.Start
		total[s.Name] += time.Duration(d)
		self[s.Name] += time.Duration(d - covered(s, children[s.ID]))
	}
	return total, self
}

// covered returns how many nanoseconds of p's interval the union of the
// child intervals spans.
func covered(p Span, kids []Span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	for i, v := range ivs {
		if i == 0 || v.a > end {
			sum += v.b - v.a
			end = v.b
		} else if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}

// layerTimes folds per-name times into per-layer times.
func layerTimes(byName map[string]time.Duration) map[string]time.Duration {
	out := map[string]time.Duration{}
	for name, d := range byName {
		out[Span{Name: name}.Layer()] += d
	}
	return out
}

// writeLayerTable prints each layer's span count, total time and self
// time.
func writeLayerTable(w io.Writer, spans []Span) {
	total, self := spanTimes(spans)
	lt, ls := layerTimes(total), layerTimes(self)
	count := map[string]int{}
	for _, s := range spans {
		count[s.Layer()]++
	}
	layers := make([]string, 0, len(count))
	for l := range count {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "layer\tspans\ttotal_s\tself_s\t")
	for _, l := range layers {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t\n", l, count[l], lt[l].Seconds(), ls[l].Seconds())
	}
	tw.Flush()
}

// writeSpans stores the spans as a JSON array at path.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
