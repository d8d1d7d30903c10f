package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fuzzyknn"
	"fuzzyknn/internal/server"
)

// stack is one opened index with its engine and HTTP handler.
type stack struct {
	ix     *fuzzyknn.Index
	eng    *fuzzyknn.Engine
	srv    *server.Server
	logDir string // log mode: the directory of this copy's files
}

func (s *stack) close() {
	s.eng.Close()
	s.ix.Close()
}

// traceRun is the in-process, single-client traced run of one workload.
type traceRun struct {
	w     *Workload
	f     *files
	seed  uint64
	reqs  []*Request
	tr    *tracer
	opens int
	m     map[string]float64
	// shared serves every pass of a read-only workload; nil for the write
	// workload, whose passes each open a fresh copy.
	shared *stack
	// altPages / altLog hold the workload's data at the other shard count,
	// for query.shard_speedup.
	altPages, altLog string
}

// altShards is the shard count the speedup compares the served one with.
func (t *traceRun) altShards() int {
	if t.w.Shards == 1 {
		return 2
	}
	return 1
}

// open opens the workload's index at the given shard count, timing the
// open as a store.open span. A log index opens a fresh copy of the base
// log, so every pass that writes starts from the same state.
func (t *traceRun) open(shards int) (*stack, error) {
	cfg := &fuzzyknn.Config{Shards: shards}
	t.opens++
	var logPath string
	if t.w.Mode == "log" {
		base := t.f.log
		if shards != t.w.Shards {
			base = t.altLog
		}
		var err error
		if logPath, err = freshLog(base, filepath.Join(t.f.dir, fmt.Sprintf("trace-%d", t.opens))); err != nil {
			return nil, err
		}
		cfg.Fsync = fuzzyknn.FsyncBatch
	}
	name := "store.open"
	if shards != t.w.Shards {
		name = "store.open_alt"
	}
	id := t.tr.begin(name, -1, 0)
	var ix *fuzzyknn.Index
	var err error
	switch t.w.Mode {
	case "store":
		ix, err = fuzzyknn.OpenIndex(t.f.store, cfg)
	case "paged":
		pages := t.f.pages
		if shards != t.w.Shards {
			pages = t.altPages
		}
		ix, err = fuzzyknn.OpenPagedIndex(t.f.store, pages, t.w.CacheMB, cfg)
	case "log":
		ix, err = fuzzyknn.OpenLogIndex(logPath, 0, cfg)
	}
	t.tr.end(id)
	if err != nil {
		return nil, err
	}
	eng := ix.NewEngine(&fuzzyknn.EngineConfig{CheckpointEvery: t.w.CheckpointEvery})
	srv := server.New(ix, eng, &server.Options{RequestTimeout: 5 * time.Second})
	return &stack{ix: ix, eng: eng, srv: srv, logDir: filepath.Dir(logPath)}, nil
}

// fresh returns a stack for the next pass and its release: the shared one
// for read-only workloads, a newly opened copy, warmed by the stream's
// reads, for the write workload.
func (t *traceRun) fresh() (*stack, func(), error) {
	if t.shared != nil {
		return t.shared, func() {}, nil
	}
	s, err := t.open(t.w.Shards)
	if err != nil {
		return nil, nil, err
	}
	if err := t.serve(s, true, nil); err != nil {
		s.close()
		return nil, nil, err
	}
	return s, s.close, nil
}

// runTrace replays the workload's open-loop stream through each layer's
// entry point in turn and returns the per-layer metrics and the spans.
func runTrace(w *Workload, seed uint64, f *files) (map[string]float64, []span, error) {
	t := &traceRun{w: w, f: f, seed: seed, tr: newTracer(), m: make(map[string]float64)}
	t.reqs = newStream(w, seed, phaseOpen).take(w.TraceReqs)
	if err := t.prepareAlt(); err != nil {
		return nil, nil, err
	}
	if w.Mode != "log" {
		var err error
		if t.shared, err = t.open(w.Shards); err != nil {
			return nil, nil, err
		}
		defer t.shared.close()
		if err := t.serve(t.shared, false, nil); err != nil { // warm-up
			return nil, nil, err
		}
	}

	// Untraced, then traced, server pass: their ratio is the tracing cost.
	s, done, err := t.fresh()
	if err != nil {
		return nil, nil, err
	}
	untraced := make(map[Kind][]float64)
	err = t.serve(s, false, func(_ int, r *Request) func(*httptest.ResponseRecorder) {
		start := time.Now()
		return func(*httptest.ResponseRecorder) { untraced[r.Kind] = append(untraced[r.Kind], ms(time.Since(start))) }
	})
	done()
	if err != nil {
		return nil, nil, err
	}
	if err := t.serverPass(); err != nil {
		return nil, nil, err
	}
	t.m["trace.overhead_ratio"] = ratio(median(durations(t.tr.spans)["server.aknn"]), median(untraced[AKNN]))

	if err := t.enginePass(); err != nil {
		return nil, nil, err
	}
	if err := t.queryPass(); err != nil {
		return nil, nil, err
	}
	if err := t.altPass(); err != nil {
		return nil, nil, err
	}

	d := durations(t.tr.spans)
	for _, kind := range []string{"aknn", "rknn", "range", "write"} {
		chain := callChain[kind]
		t.m["server.self_ms."+kind] = selfTime(t.tr.spans, chain[0], chain[1])
		t.m["engine.self_ms."+kind] = selfTime(t.tr.spans, chain[1], chain[2])
		if kind != "write" {
			t.m["query.exec_ms."+kind] = median(d[chain[2]])
		}
	}
	t.m["query.apply_batch_ms.1"] = median(d["query.apply_batch.1"])
	t.m["query.apply_batch_ms.64"] = median(d["query.apply_batch.64"])
	t.m["store.get_us"] = median(d["store.get"]) * 1000
	t.m["store.open_s"] = median(d["store.open"]) / 1000
	t.m["fuzzy.alpha_distance_us"] = median(d["fuzzy.alpha_distance"]) * 1000
	t.m["fuzzy.profile_us"] = median(d["fuzzy.profile"]) * 1000
	return t.m, t.tr.spans, nil
}

// prepareAlt writes the workload's data at the other shard count.
func (t *traceRun) prepareAlt() error {
	switch t.w.Mode {
	case "paged":
		t.altPages = filepath.Join(t.f.dir, fmt.Sprintf("pages-%d.fzp", t.altShards()))
		return savePaged(t.f.store, t.altPages, t.altShards())
	case "log":
		t.altLog = filepath.Join(t.f.dir, "base-alt", "objects.fzl")
		return writeLog(t.altLog, t.f.objs, t.altShards())
	}
	return nil
}

// serve replays the stream through the HTTP handler; readsOnly skips the
// writes (the warm-up of a log copy). When begin is set it is called before
// each request, and the function it returns after the handler, with the
// response.
func (t *traceRun) serve(s *stack, readsOnly bool, begin func(i int, r *Request) func(*httptest.ResponseRecorder)) error {
	for i, r := range t.reqs {
		if readsOnly && r.Kind.isWrite() {
			continue
		}
		hr := httptest.NewRequest(r.Method, r.Path, bytes.NewReader(r.Body))
		rec := httptest.NewRecorder()
		var end func(*httptest.ResponseRecorder)
		if begin != nil {
			end = begin(i, r)
		}
		s.srv.ServeHTTP(rec, hr)
		if end != nil {
			end(rec)
		}
		if rec.Code/100 != 2 {
			return fmt.Errorf("request %d (%s): HTTP %d %.200s", i, r.Kind, rec.Code, rec.Body.String())
		}
	}
	return nil
}

// spanKind names a request's spans: single inserts and deletes are both
// "write".
func spanKind(k Kind) string {
	if k == Insert || k == Delete {
		return "write"
	}
	return k.String()
}

func (t *traceRun) serverPass() error {
	s, done, err := t.fresh()
	if err != nil {
		return err
	}
	defer done()
	before, err := scrape(s.srv)
	if err != nil {
		return err
	}
	root := t.tr.begin("pass.server", -1, 0)
	var reqBytes, respBytes int
	err = t.serve(s, false, func(i int, r *Request) func(*httptest.ResponseRecorder) {
		id := t.tr.begin("server."+spanKind(r.Kind), i, root)
		return func(rec *httptest.ResponseRecorder) {
			t.tr.end(id)
			reqBytes += len(r.Body)
			respBytes += rec.Body.Len()
		}
	})
	if err != nil {
		return err
	}
	t.tr.end(root)
	after, err := scrape(s.srv)
	if err != nil {
		return err
	}
	n := float64(len(t.reqs))
	t.m["server.req_bytes"] = float64(reqBytes) / n
	t.m["server.resp_bytes"] = float64(respBytes) / n
	delta := func(name string) float64 { return after[name] - before[name] }
	t.m["engine.overloaded"] = delta("fuzzyknn_engine_overloaded_total")
	t.m["engine.write_batch_size"] = ratio(delta("fuzzyknn_engine_write_batch_size_sum"), delta("fuzzyknn_engine_write_batch_size_count"))
	t.m["engine.checkpoints"] = delta("fuzzyknn_engine_checkpoints_total")
	t.m["engine.checkpoint_ms"] = 1000 * ratio(delta("fuzzyknn_engine_checkpoint_duration_seconds_sum"), delta("fuzzyknn_engine_checkpoint_duration_seconds_count"))
	return nil
}

// scrape reads the handler's /metrics and sums each series over its labels.
func scrape(h *server.Server) (map[string]float64, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code/100 != 2 {
		return nil, fmt.Errorf("/metrics: HTTP %d", rec.Code)
	}
	return parseMetrics(rec.Body.String()), nil
}

// parseMetrics sums each series of a Prometheus text page over its labels.
func parseMetrics(page string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(page, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, rest, ok = line[:i], line[strings.LastIndexByte(line, '}')+1:], true
		}
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out
}

// queryObject resolves a request's query object outside any span.
func queryObject(ix *fuzzyknn.Index, r *Request) (*fuzzyknn.Object, error) {
	if r.Query != nil {
		return r.Query, nil
	}
	return ix.Object(r.QueryID)
}

func (t *traceRun) enginePass() error {
	s, done, err := t.fresh()
	if err != nil {
		return err
	}
	defer done()
	ctx := context.Background()
	root := t.tr.begin("pass.engine", -1, 0)
	for i, r := range t.reqs {
		var batch []fuzzyknn.BatchRequest
		switch r.Kind {
		case Insert, Delete, Batch:
			for _, o := range r.Inserts {
				batch = append(batch, fuzzyknn.BatchRequest{Kind: fuzzyknn.BatchInsertKind, Obj: o})
			}
			for _, id := range r.Deletes {
				batch = append(batch, fuzzyknn.BatchRequest{Kind: fuzzyknn.BatchDeleteKind, ID: id})
			}
		default:
			q, err := queryObject(s.ix, r)
			if err != nil {
				return err
			}
			req := fuzzyknn.BatchRequest{Q: q, K: queryK, Alpha: queryAlpha, AKNNAlgo: fuzzyknn.LBLPUB,
				AlphaStart: rknnAlphaLo, AlphaEnd: rknnAlphaHi, RKNNAlgo: fuzzyknn.RSSICR, Radius: rangeRadius}
			req.Kind = map[Kind]fuzzyknn.BatchKind{AKNN: fuzzyknn.BatchAKNNKind, RKNN: fuzzyknn.BatchRKNNKind, Range: fuzzyknn.BatchRangeKind}[r.Kind]
			batch = append(batch, req)
		}
		id := t.tr.begin("engine."+spanKind(r.Kind), i, root)
		var resps []fuzzyknn.BatchResponse
		if r.Kind == Batch {
			resps = s.eng.DoBatch(ctx, batch)
		} else {
			resps = []fuzzyknn.BatchResponse{s.eng.Do(ctx, batch[0])}
		}
		t.tr.end(id)
		for _, resp := range resps {
			if resp.Err != nil {
				return fmt.Errorf("engine request %d (%s): %w", i, r.Kind, resp.Err)
			}
		}
	}
	t.tr.end(root)
	return nil
}

// answer is one AKNN request's query object and answer ids, for the
// store and kernel passes.
type answer struct {
	req int
	q   *fuzzyknn.Object
	ids []uint64
}

// execQuery runs one request directly on the index.
func execQuery(ix *fuzzyknn.Index, r *Request, q *fuzzyknn.Object) ([]uint64, fuzzyknn.Stats, error) {
	var ids []uint64
	switch r.Kind {
	case AKNN, Range:
		var rs []fuzzyknn.Result
		var st fuzzyknn.Stats
		var err error
		if r.Kind == AKNN {
			rs, st, err = ix.AKNN(q, queryK, queryAlpha, fuzzyknn.LBLPUB)
		} else {
			rs, st, err = ix.RangeSearch(q, queryAlpha, rangeRadius)
		}
		for _, x := range rs {
			ids = append(ids, x.ID)
		}
		return ids, st, err
	case RKNN:
		rs, st, err := ix.RKNN(q, queryK, rknnAlphaLo, rknnAlphaHi, fuzzyknn.RSSICR)
		for _, x := range rs {
			ids = append(ids, x.ID)
		}
		return ids, st, err
	}
	return nil, fuzzyknn.Stats{}, fmt.Errorf("%s is not a query", r.Kind)
}

// queryPass calls the index directly: the query entry points, ApplyBatch
// for writes and, on a log index, Checkpoint. It records the paper's cost
// counters per kind, then runs the store and kernel passes on the AKNN
// answers against the same index.
func (t *traceRun) queryPass() error {
	s, done, err := t.fresh()
	if err != nil {
		return err
	}
	defer done()
	var sums [numKinds]fuzzyknn.Stats
	var counts [numKinds]int
	var execNs [numKinds]time.Duration
	var answers []answer
	pcBefore, paged := s.ix.PageCacheStats()
	var logBefore int64
	if t.w.Mode == "log" {
		if logBefore, err = dirBytes(s.logDir); err != nil {
			return err
		}
	}
	var userBytes int64
	root := t.tr.begin("pass.query", -1, 0)
	for i, r := range t.reqs {
		if r.Kind.isWrite() {
			name := "query.apply_batch.1"
			if r.Kind == Batch {
				name = "query.apply_batch.64"
			}
			id := t.tr.begin(name, i, root)
			err := s.ix.ApplyBatch(r.Inserts, r.Deletes)
			t.tr.end(id)
			if err != nil {
				return fmt.Errorf("request %d (%s): %w", i, r.Kind, err)
			}
			for _, o := range r.Inserts {
				userBytes += int64(20 + o.Len()*o.Dims()*8 + o.Len()*8)
			}
			userBytes += 8 * int64(len(r.Deletes))
			continue
		}
		q, err := queryObject(s.ix, r)
		if err != nil {
			return err
		}
		id := t.tr.begin("query."+r.Kind.String(), i, root)
		ids, st, err := execQuery(s.ix, r, q)
		t.tr.end(id)
		if err != nil {
			return fmt.Errorf("request %d (%s): %w", i, r.Kind, err)
		}
		sums[r.Kind].Add(st)
		counts[r.Kind]++
		execNs[r.Kind] += t.tr.spans[id-1].dur()
		if r.Kind == AKNN {
			answers = append(answers, answer{req: i, q: q, ids: ids})
		}
	}
	if t.w.Mode == "log" {
		logAfter, err := dirBytes(s.logDir)
		if err != nil {
			return err
		}
		t.m["store.log_bytes_per_user_byte"] = ratio(float64(logAfter-logBefore), float64(userBytes))
		id := t.tr.begin("query.checkpoint", -1, root)
		_, err = s.ix.Checkpoint(true)
		t.tr.end(id)
		if err != nil {
			return err
		}
	}
	t.tr.end(root)

	for _, k := range []Kind{AKNN, RKNN, Range} {
		n := float64(counts[k])
		t.m["query.object_accesses."+k.String()] = ratio(float64(sums[k].ObjectAccesses), n)
		t.m["query.distance_evals."+k.String()] = ratio(float64(sums[k].DistanceEvals), n)
		t.m["rtree.node_accesses."+k.String()] = ratio(float64(sums[k].NodeAccesses), n)
	}
	t.m["query.profiles_built.rknn"] = ratio(float64(sums[RKNN].ProfilesBuilt), float64(counts[RKNN]))
	t.m["query.candidates.rknn"] = ratio(float64(sums[RKNN].Candidates), float64(counts[RKNN]))
	t.m["query.us_per_distance_eval.aknn"] = ratio(us(execNs[AKNN]), float64(sums[AKNN].DistanceEvals))

	if paged {
		pc, _ := s.ix.PageCacheStats()
		hits, misses := float64(pc.Hits-pcBefore.Hits), float64(pc.Misses-pcBefore.Misses)
		queries := float64(counts[AKNN] + counts[RKNN] + counts[Range])
		t.m["pager.reads_per_query"] = ratio(misses, queries)
		t.m["pager.hit_ratio"] = ratio(hits, hits+misses)
		t.m["pager.evictions"] = float64(pc.Evictions - pcBefore.Evictions)
	} else {
		t.m["pager.reads_per_query"], t.m["pager.hit_ratio"], t.m["pager.evictions"] = 0, 0, 0
	}

	// Allocations per call, measured untraced on the same index.
	for _, k := range []Kind{AKNN, RKNN} {
		var calls int
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for _, r := range t.reqs {
			if r.Kind != k {
				continue
			}
			q, err := queryObject(s.ix, r)
			if errors.Is(err, fuzzyknn.ErrNotFound) {
				continue // deleted later in the stream
			} else if err != nil {
				return err
			}
			if k == AKNN {
				_, _, err = s.ix.AKNN(q, queryK, queryAlpha, fuzzyknn.LBLPUB)
			} else {
				_, _, err = s.ix.RKNN(q, queryK, rknnAlphaLo, rknnAlphaHi, fuzzyknn.RSSICR)
			}
			if err != nil {
				return err
			}
			calls++
		}
		runtime.ReadMemStats(&ms1)
		t.m["query.allocs."+k.String()] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(calls))
	}
	if err := t.storePass(s, answers); err != nil {
		return err
	}
	return t.kernelPass(s, answers)
}

// altPass replays the stream on the index at the other shard count and
// derives the fan-out speedup: exec time at 1 shard over exec at 2.
func (t *traceRun) altPass() error {
	alt, err := t.open(t.altShards())
	if err != nil {
		return err
	}
	defer alt.close()
	if err := t.serve(alt, true, nil); err != nil { // warm-up
		return err
	}
	root := t.tr.begin("pass.query_alt", -1, 0)
	for i, r := range t.reqs {
		if r.Kind.isWrite() {
			if err := alt.ix.ApplyBatch(r.Inserts, r.Deletes); err != nil {
				return err
			}
			continue
		}
		q, err := queryObject(alt.ix, r)
		if err != nil {
			return err
		}
		id := t.tr.begin("query_alt."+r.Kind.String(), i, root)
		_, _, err = execQuery(alt.ix, r, q)
		t.tr.end(id)
		if err != nil {
			return err
		}
	}
	t.tr.end(root)
	d := durations(t.tr.spans)
	for _, k := range []string{"aknn", "rknn"} {
		served, other := median(d["query."+k]), median(d["query_alt."+k])
		one, two := served, other
		if t.w.Shards != 1 {
			one, two = other, served
		}
		t.m["query.shard_speedup."+k] = ratio(one, two)
	}
	return nil
}

// storePass fetches every AKNN answer's objects through Index.Object.
func (t *traceRun) storePass(s *stack, answers []answer) error {
	root := t.tr.begin("pass.store", -1, 0)
	for _, a := range answers {
		for _, oid := range a.ids {
			id := t.tr.begin("store.get", a.req, root)
			_, err := s.ix.Object(oid)
			t.tr.end(id)
			if errors.Is(err, fuzzyknn.ErrNotFound) {
				t.tr.spans = t.tr.spans[:id-1] // deleted later in the stream
				continue
			}
			if err != nil {
				return err
			}
		}
	}
	t.tr.end(root)
	return nil
}

// kernelPass times AlphaDistance between each AKNN query and its answers,
// and DistanceProfile on the first Pairs of those pairs.
func (t *traceRun) kernelPass(s *stack, answers []answer) error {
	type pair struct {
		req  int
		q, o *fuzzyknn.Object
	}
	var pairs []pair
	for _, a := range answers {
		for _, oid := range a.ids {
			o, err := s.ix.Object(oid)
			if errors.Is(err, fuzzyknn.ErrNotFound) {
				continue
			}
			if err != nil {
				return err
			}
			if len(pairs) < 10*t.w.Pairs {
				pairs = append(pairs, pair{a.req, a.q, o})
			}
		}
	}
	root := t.tr.begin("pass.fuzzy", -1, 0)
	for _, p := range pairs {
		id := t.tr.begin("fuzzy.alpha_distance", p.req, root)
		fuzzyknn.AlphaDistance(p.q, p.o, queryAlpha)
		t.tr.end(id)
	}
	profiles := pairs[:min(len(pairs), t.w.Pairs)]
	for _, p := range profiles {
		id := t.tr.begin("fuzzy.profile", p.req, root)
		fuzzyknn.DistanceProfile(p.o, p.q)
		t.tr.end(id)
	}
	t.tr.end(root)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, p := range profiles {
		fuzzyknn.DistanceProfile(p.o, p.q)
	}
	runtime.ReadMemStats(&ms1)
	t.m["fuzzy.profile_allocs"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(len(profiles)))
	return nil
}
