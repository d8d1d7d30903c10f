package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// wire concatenates the wire form of every request.
func wire(reqs []*Request) []byte {
	var b bytes.Buffer
	for _, r := range reqs {
		b.WriteString(r.Method + " " + r.Path + "\n")
		b.Write(r.Body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			a := wire(newStream(w, 7, phaseOpen).take(300))
			b := wire(newStream(w, 7, phaseOpen).take(300))
			if !bytes.Equal(a, b) {
				t.Fatal("same seed produced different request streams")
			}
			if c := wire(newStream(w, 8, phaseOpen).take(300)); bytes.Equal(a, c) {
				t.Fatal("different seeds produced the same request stream")
			}
			if d := wire(newStream(w, 7, phaseSaturation).take(300)); bytes.Equal(a, d) {
				t.Fatal("different phases produced the same request stream")
			}
		})
	}
}

func TestStreamKeepsPopulationAndNeverReusesIDs(t *testing.T) {
	w, err := workloadByName("churn_log")
	if err != nil {
		t.Fatal(err)
	}
	s := newStream(w, 3, phaseOpen)
	inserted, deleted := map[uint64]bool{}, map[uint64]bool{}
	for _, r := range s.take(3000) {
		for _, o := range r.Inserts {
			if inserted[o.ID()] || o.ID() <= uint64(w.N) {
				t.Fatalf("insert id %d reused or inside the initial population", o.ID())
			}
			inserted[o.ID()] = true
		}
		for _, id := range r.Deletes {
			if deleted[id] || id < 1 || id > uint64(w.N) {
				t.Fatalf("delete id %d repeated or outside the initial population", id)
			}
			deleted[id] = true
		}
	}
	if pop := w.N + len(inserted) - len(deleted); pop < w.N-batchSize || pop > w.N+batchSize {
		t.Fatalf("population drifted to %d from %d", pop, w.N)
	}
}

// TestOpenLoopChargesFromDueTime stalls a fake handler for the first
// 300ms: every request due in that window must show the stall in its
// latency and in the generator's lateness, not only the first one.
func TestOpenLoopChargesFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var once sync.Once
	var start time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { start = time.Now() })
		if d := stall - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	g := newLoadgen(srv.URL, 2)
	defer g.close()

	const rate = 1000
	reqs := make([]*Request, 1100)
	for i := range reqs {
		reqs[i] = &Request{Kind: AKNN, Method: "POST", Path: "/aknn", Body: []byte("{}")}
	}
	out := g.openLoop(reqs, rate, func(int) bool { return false })

	var lat, late []float64
	for i := range out {
		if !out[i].ok() {
			t.Fatalf("request %d failed: %s", i, out[i].failure())
		}
		lat = append(lat, ms(out[i].latency()))
		late = append(late, ms(out[i].late()))
	}
	if out[0].latency() < stall {
		t.Fatalf("first request latency %v, want at least the %v stall", out[0].latency(), stall)
	}
	// The request due 100ms in waited for a connection until the stall
	// ended: its latency counts that wait, its service time alone does not.
	r := out[100]
	if r.latency() < stall-100*time.Millisecond-20*time.Millisecond {
		t.Fatalf("request due at %v has latency %v; the stall was not charged", r.due, r.latency())
	}
	p99, err := percentile(late, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p99 < 100 {
		t.Fatalf("loadgen late p99 %.1fms does not show a %v stall", p99, stall)
	}
	p90, err := percentile(lat, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if p90 < 10 {
		t.Fatalf("latency p90 %.1fms does not show a %v stall over %d%% of the run", p90, stall, 100*int(stall/time.Millisecond)/len(reqs))
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i)
		}
		return v
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64 // 0 = must refuse
	}{
		{999, 0.99, 0},
		{1000, 0.99, 990},
		{99, 0.9, 0},
		{100, 0.9, 90},
		{19, 0.5, 0},
		{20, 0.5, 10},
		{0, 0.5, 0},
	} {
		got, err := percentile(xs(c.n), c.p)
		switch {
		case c.want == 0 && err == nil:
			t.Errorf("p%g of %d samples = %v, want a refusal", c.p*100, c.n, got)
		case c.want != 0 && err != nil:
			t.Errorf("p%g of %d samples refused: %v", c.p*100, c.n, err)
		case c.want != 0 && got != c.want:
			t.Errorf("p%g of %d samples = %v, want %v", c.p*100, c.n, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 40, 20, 30}, 12.5, 25, 37.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSelfTimePairsSpansByRequest(t *testing.T) {
	// Requests cost 1, 10 and 100ms inside; the outer layer adds 0.5ms to
	// each. A difference of medians would read 0.5 only by luck.
	var spans []span
	for i, inner := range []float64{1, 10, 100} {
		spans = append(spans,
			span{Name: "outer", Req: i, End: int64((inner + 0.5) * 1e6)},
			span{Name: "inner", Req: i, End: int64(inner * 1e6)})
	}
	if got := selfTime(spans, "outer", "inner"); got != 0.5 {
		t.Fatalf("self time %v, want 0.5", got)
	}
}
