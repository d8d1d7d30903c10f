package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer's public entry point. Spans of the
// same request share Req (its index in the stream, -1 for none); Parent is
// the ID of the enclosing span (0 for a pass's root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer holds spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, req, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// durations groups span durations by name, in milliseconds.
func durations(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], ms(s.dur()))
	}
	return out
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []span
	dec := json.NewDecoder(f)
	for {
		var s span
		if err := dec.Decode(&s); err == io.EOF {
			return spans, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		spans = append(spans, s)
	}
}

// selfTime is the median, over the requests seen by both layers, of the
// outer layer's span minus the inner layer's span for the same request.
// Pairing by request keeps the cost spread between requests, which can
// dwarf a thin layer's own cost, out of the difference.
func selfTime(spans []span, outer, inner string) float64 {
	in := make(map[int]float64)
	for _, s := range spans {
		if s.Name == inner && s.Req >= 0 {
			in[s.Req] = ms(s.dur())
		}
	}
	var diffs []float64
	for _, s := range spans {
		if v, ok := in[s.Req]; ok && s.Name == outer {
			diffs = append(diffs, ms(s.dur())-v)
		}
	}
	return median(diffs)
}

// callChain lists, per request kind, the span names of the layers a
// request passes through, outermost first. A layer's self time is its
// span minus the next layer's span for the same request (see selfTime).
var callChain = map[string][]string{
	"aknn":  {"server.aknn", "engine.aknn", "query.aknn"},
	"rknn":  {"server.rknn", "engine.rknn", "query.rknn"},
	"range": {"server.range", "engine.range", "query.range"},
	"write": {"server.write", "engine.write", "query.apply_batch.1"},
	"batch": {"server.batch", "engine.batch", "query.apply_batch.64"},
}

// printSpanReport prints every span name's count and p50, then each
// layer's self time along the call chains.
func printSpanReport(w io.Writer, spans []span) {
	d := durations(spans)
	names := make([]string, 0, len(d))
	for n := range d {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %8s %12s\n", "span", "count", "p50_ms")
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %8d %12.4f\n", n, len(d[n]), median(d[n]))
	}
	fmt.Fprintf(w, "\n%-8s %-22s %12s %12s\n", "kind", "layer", "p50_ms", "self_ms")
	for _, kind := range []string{"aknn", "rknn", "range", "write", "batch"} {
		chain := callChain[kind]
		if len(d[chain[0]]) == 0 {
			continue
		}
		for i, n := range chain {
			self := median(d[n])
			if i+1 < len(chain) {
				self = selfTime(spans, n, chain[i+1])
			}
			fmt.Fprintf(w, "%-8s %-22s %12.4f %12.4f\n", kind, n, median(d[n]), self)
		}
	}
}
