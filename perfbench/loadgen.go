package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// sample is the outcome of one request. Times are offsets from the start
// of its phase; in the open loop, due is when the schedule said to send it.
type sample struct {
	kind      Kind
	due, sent time.Duration
	done      time.Duration
	status    int
	err       error
	body      []byte // kept only for requests whose answers are checked
}

// ok reports whether the request succeeded (2xx) with a non-empty answer. A
// refusal (429, 503, 504) or transport error is a failure like any other.
func (s *sample) ok() bool { return s.err == nil && s.status/100 == 2 }

// latency is charged from the due time, so a stall delays every request
// scheduled behind it instead of hiding them (no coordinated omission).
func (s *sample) latency() time.Duration { return s.done - s.due }

// late is how far behind schedule the request was actually sent.
func (s *sample) late() time.Duration { return s.sent - s.due }

// loadgen sends requests to one server over at most conns connections.
type loadgen struct {
	client *http.Client
	base   string
	conns  int
}

func newLoadgen(base string, conns int) *loadgen {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &loadgen{client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base, conns: conns}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// send issues r and reads the whole answer, keeping it when keep is set.
func (g *loadgen) send(r *Request, keep bool) (int, []byte, error) {
	req, err := http.NewRequest(r.Method, g.base+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var body []byte
	var n int64
	if keep {
		body, err = io.ReadAll(resp.Body)
		n = int64(len(body))
	} else {
		n, err = io.Copy(io.Discard, resp.Body)
	}
	if err == nil && n == 0 {
		err = errors.New("empty response body")
	}
	return resp.StatusCode, body, err
}

// openLoop sends reqs[i] at i/rate seconds after the start, whether or not
// earlier requests have finished; keep selects the answers to retain.
func (g *loadgen) openLoop(reqs []*Request, rate float64, keep func(int) bool) []sample {
	out := make([]sample, len(reqs))
	interval := time.Duration(float64(time.Second) / rate)
	due := make(chan int, len(reqs)) // sized to the number of sends: the schedule never blocks
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				s := &out[i]
				s.sent = time.Since(start)
				s.status, s.body, s.err = g.send(reqs[i], keep(i))
				s.done = time.Since(start)
			}
		}()
	}
	for i, r := range reqs {
		out[i].kind = r.Kind
		out[i].due = time.Duration(i) * interval
		if d := out[i].due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		due <- i
	}
	close(due)
	wg.Wait()
	return out
}

// closedLoop keeps every connection busy, each sending its next request
// as soon as the previous answer arrives, until d has passed or reqs run
// out. It returns the samples taken and the time until the last answer.
func (g *loadgen) closedLoop(reqs []*Request, d time.Duration) ([]sample, time.Duration) {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				s := &out[i]
				s.kind = reqs[i].Kind
				s.due = time.Since(start)
				s.sent = s.due
				s.status, s.body, s.err = g.send(reqs[i], false)
				s.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	n := min(int(next.Load()), len(reqs))
	out = out[:n]
	var end time.Duration
	for i := range out {
		end = max(end, out[i].done)
	}
	return out, end
}

// failure describes why a sample failed, for the report.
func (s *sample) failure() string {
	if s.err != nil {
		return fmt.Sprintf("%s: %v", s.kind, s.err)
	}
	return fmt.Sprintf("%s: HTTP %d %.200s", s.kind, s.status, s.body)
}
