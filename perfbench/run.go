package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fuzzyknn"
	"fuzzyknn/internal/server"
)

// setupSpacing separates the launches that only measure start-up, so that
// their median samples the machine over several seconds: a ~10 ms start-up
// varied by 15% between bursts of launches half a second apart.
const setupSpacing = 300 * time.Millisecond

// membershipProbes is how many live and how many deleted ids the churn
// check looks up after the run.
const membershipProbes = 20

// run measures one workload at one seed.
func run(w *Workload, seed uint64, seconds float64, traced bool, root, bin string) (*result, error) {
	dir, err := filepath.Abs(filepath.Join(root, ".bench_build", "runs", fmt.Sprintf("%s-%d-%d", w.Name, seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	sweepRuns(filepath.Dir(dir))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	last := time.Now()
	lap := func(phase string) { // phase timings on stderr, for sizing runs
		fmt.Fprintf(os.Stderr, "perfbench: %s %s took %.1fs\n", w.Name, phase, time.Since(last).Seconds())
		last = time.Now()
	}
	f, err := prepare(w, seed, bin, dir)
	if err != nil {
		return nil, fmt.Errorf("prepare %s: %w", w.Name, err)
	}
	// Flush the generated files now, so their write-back does not land in
	// the middle of a measurement.
	syscall.Sync()
	lap("prepare")

	open := newStream(w, seed, phaseOpen).take(max(1, int(w.Rate*seconds)))
	sat := newStream(w, seed, phaseSaturation).take(int(w.SatRate * w.SatSecs))
	ws := newStream(w, seed, phaseWarmup)
	ws.readsOnly = true
	warm := ws.take(int(w.SatRate * w.WarmSecs))
	checked := pickChecks(w, seed, open)

	res := &result{workload: w.Name}
	var setups []float64
	var openS, satS []sample
	var satElapsed time.Duration
	var rss, openCkpts float64
	var led *ledger
	var reissued []check
	var liveDir string
	for i := 0; i < w.Setups; i++ {
		var logPath string
		if w.Mode == "log" {
			liveDir = filepath.Join(dir, fmt.Sprintf("live-%d", i))
			if logPath, err = freshLog(f.log, liveDir); err != nil {
				return nil, err
			}
			// As after prepare: the copy's write-back must not land in
			// the start-up or the open loop.
			syscall.Sync()
		}
		srv, d, err := startServer(bin, serverArgs(w, f, logPath), filepath.Join(dir, fmt.Sprintf("server-%d.log", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		g := newLoadgen(srv.base, min(w.Conns, runtime.NumCPU()))
		switch i {
		case 0:
			if err = srv.resetPeakRSS(); err != nil {
				break
			}
			g.closedLoop(warm, time.Duration(w.WarmSecs*float64(time.Second)))
			quiet(func() { satS, satElapsed = g.closedLoop(sat, time.Duration(w.SatSecs*float64(time.Second))) })
			rss, err = srv.peakRSSMiB()
		case w.Setups - 1:
			g.closedLoop(warm, time.Duration(w.WarmSecs*float64(time.Second)))
			err = func() error {
				before, err := checkpointsTotal(g)
				if err != nil {
					return err
				}
				quiet(func() {
					openS = g.openLoop(open, w.Rate, func(i int) bool { return checked[i] || open[i].Kind == Batch })
				})
				after, err := checkpointsTotal(g)
				if err != nil {
					return err
				}
				openCkpts = after - before
				if w.Mode != "log" {
					return nil
				}
				led = newLedger(f.objs)
				reissued, err = churnChecks(res, g, led, open, openS, checked, seed)
				return err
			}()
		}
		g.close()
		srv.stop()
		if err != nil {
			return nil, err
		}
		lap(fmt.Sprintf("launch %d", i))
		if i < w.Setups-2 {
			time.Sleep(setupSpacing)
		}
	}

	// Oracle checks, with the server stopped.
	var oracle *fuzzyknn.Index
	var checks []check
	if w.Mode == "log" {
		oracle, err = fuzzyknn.NewIndex(led.objects(), nil)
		checks = reissued
	} else {
		oracle, err = fuzzyknn.OpenIndex(f.store, nil)
		for i := range open {
			if checked[i] && openS[i].ok() {
				checks = append(checks, check{req: open[i], body: openS[i].body, seed: seed + uint64(i)})
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("oracle index: %w", err)
	}
	res.attempted += len(checks)
	res.wrong = append(res.wrong, runChecks(oracle, checks)...)
	oracle.Close()
	lap("oracle checks")

	for _, ss := range [][]sample{openS, satS} {
		res.attempted += len(ss)
		for i := range ss {
			if !ss[i].ok() {
				res.failed++
				if len(res.failures) < 10 {
					res.failures = append(res.failures, ss[i].failure())
				}
			}
		}
	}
	res.failed += len(res.wrong)
	res.correct = res.failed == 0

	res.e2e = endToEnd(w, setups, rss, openS, satS, satElapsed, res)
	if w.Mode == "log" {
		disk, err := dirBytes(liveDir)
		if err != nil {
			return nil, err
		}
		res.e2e = append(res.e2e, metric{"space_amp", ratio(float64(disk), float64(led.encodedBytes())), "ratio",
			fmt.Sprintf("%d on-disk bytes / %d encoded bytes of %d live objects; %.0f checkpoints in the open loop",
				disk, led.encodedBytes(), len(led.live), openCkpts)})
	}
	if traced {
		layers, spans, err := runTrace(w, seed, f)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		lap("traced run")
		res.layers = perLayer(w, layers, openS)
		res.spanFile = filepath.Join(root, ".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", w.Name, seed))
		if err := writeSpans(res.spanFile, spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// pickChecks chooses, from a seeded draw, which open-loop requests have
// their answers compared with an oracle: Samples[kind] of each kind.
func pickChecks(w *Workload, seed uint64, reqs []*Request) map[int]bool {
	rng := rand.New(rand.NewPCG(seed, 0xC4EC4))
	picked := make(map[int]bool)
	for k := Kind(0); k < numKinds; k++ {
		var idx []int
		for i, r := range reqs {
			if r.Kind == k {
				idx = append(idx, i)
			}
		}
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for _, i := range idx[:min(len(idx), w.Samples[k])] {
			picked[i] = true
		}
	}
	return picked
}

// churnChecks runs while the write workload's server is still up: it
// applies every acknowledged write to the ledger, compares the live count
// and sampled ids with it, and re-sends the checked AKNN queries against
// the final state for the oracle.
func churnChecks(res *result, g *loadgen, led *ledger, reqs []*Request, out []sample, checked map[int]bool, seed uint64) ([]check, error) {
	for i, r := range reqs {
		if !r.Kind.isWrite() || !out[i].ok() {
			continue
		}
		failedIDs := map[uint64]bool{}
		if r.Kind == Batch {
			var resp server.BatchMutateResponse
			if err := json.Unmarshal(out[i].body, &resp); err != nil {
				res.wrong = append(res.wrong, fmt.Sprintf("batch %d: bad answer: %v", i, err))
				continue
			}
			for _, it := range resp.Results {
				if it.Error != "" {
					failedIDs[it.ID] = true
					res.wrong = append(res.wrong, fmt.Sprintf("batch %d: %s %d failed: %s", i, it.Op, it.ID, it.Error))
				}
			}
		}
		led.apply(r, failedIDs)
	}

	body, err := getBody(g.client, g.base+"/stats")
	if err != nil {
		return nil, err
	}
	var st server.StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("/stats: %w", err)
	}
	res.attempted++
	if st.Objects != len(led.live) {
		res.wrong = append(res.wrong, fmt.Sprintf("/stats objects %d, ledger %d", st.Objects, len(led.live)))
	}

	rng := rand.New(rand.NewPCG(seed, 0x1ED9E7))
	live := make([]uint64, 0, len(led.live))
	for id := range led.live {
		live = append(live, id)
	}
	slices.Sort(live)
	// Liveness probes that leave a correct state unchanged: re-inserting a
	// live object must answer 400 (duplicate id) and deleting a deleted one
	// 404. A query_id lookup cannot serve here: the log store keeps
	// tombstoned payloads readable for in-flight snapshot queries.
	probe := func(r *Request, want int) error {
		status, _, err := g.send(r, true)
		if err != nil {
			return err
		}
		res.attempted++
		if status != want {
			res.wrong = append(res.wrong, fmt.Sprintf("%s %s: HTTP %d, ledger expects %d", r.Method, r.Path, status, want))
		}
		return nil
	}
	for i := 0; i < membershipProbes && len(live) > 0; i++ {
		o := led.live[live[rng.IntN(len(live))]]
		r := &Request{Method: "POST", Path: "/objects", Body: mustJSON(server.InsertRequest{Object: objectJSON(o, true)})}
		if err := probe(r, http.StatusBadRequest); err != nil {
			return nil, err
		}
	}
	for i := 0; i < membershipProbes && len(led.deleted) > 0; i++ {
		id := led.deleted[rng.IntN(len(led.deleted))]
		if err := probe(&Request{Method: "DELETE", Path: fmt.Sprintf("/objects/%d", id)}, http.StatusNotFound); err != nil {
			return nil, err
		}
	}

	var checks []check
	for i, r := range reqs {
		if !checked[i] {
			continue
		}
		status, b, err := g.send(r, true)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			res.wrong = append(res.wrong, fmt.Sprintf("re-sent %s %d: HTTP %d", r.Kind, i, status))
			continue
		}
		checks = append(checks, check{req: r, body: b, seed: seed + uint64(i)})
	}
	return checks, nil
}

// checkpointsTotal reads the server's count of completed checkpoints from
// /metrics.
func checkpointsTotal(g *loadgen) (float64, error) {
	page, err := getBody(g.client, g.base+"/metrics")
	if err != nil {
		return 0, err
	}
	return parseMetrics(string(page))["fuzzyknn_engine_checkpoints_total"], nil
}

// pctMetric reports the p-quantile of xs as name, or nothing when the
// sample is too small for it.
func pctMetric(name string, xs []float64, p float64, unit string) []metric {
	v, err := percentile(xs, p)
	if err != nil {
		return nil
	}
	return []metric{{name, v, unit, fmt.Sprintf("p%g of %d samples", p*100, len(xs))}}
}

// endToEnd derives the end-to-end metrics of the open-loop and
// saturation phases.
func endToEnd(w *Workload, setups []float64, rss float64, openS, satS []sample, satElapsed time.Duration, res *result) []metric {
	lat := make(map[string][]float64)
	for i := range openS {
		k := spanKind(openS[i].kind)
		lat[k] = append(lat[k], ms(openS[i].latency()))
	}
	out := []metric{
		{"setup_s", median(setups), "s", fmt.Sprintf("median of %d launches %s", len(setups), fmtList(setups))},
		{"peak_rss_mb", rss, "MiB", "VmHWM of the first launch over its warm-up and saturation phase (reset after start-up)"},
	}
	for _, k := range []string{"aknn", "rknn", "range", "write"} {
		out = append(out, pctMetric(k+"_p50_ms", lat[k], 0.5, "ms")...)
		out = append(out, pctMetric(k+"_p99_ms", lat[k], 0.99, "ms")...)
	}
	out = append(out, pctMetric("batch_p50_ms", lat["batch"], 0.5, "ms")...)
	conns := min(w.Conns, runtime.NumCPU())
	var satOK int
	for i := range satS {
		if satS[i].ok() {
			satOK++
		}
	}
	out = append(out,
		metric{"saturation_rps", ratio(float64(satOK), satElapsed.Seconds()), "req/s",
			fmt.Sprintf("%d requests in %.2fs closed loop, %d connections", satOK, satElapsed.Seconds(), conns)},
		metric{"failed_ratio", ratio(float64(res.failed), float64(res.attempted)), "ratio",
			fmt.Sprintf("%d failed or wrong of %d attempted", res.failed, res.attempted)},
	)
	return out
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// perLayerUnits lists every per-layer metric with its unit, in report
// order. Metrics of a kind the workload does not issue read 0.
var perLayerUnits = []struct{ name, unit string }{
	{"server.self_ms.aknn", "ms"}, {"server.self_ms.rknn", "ms"}, {"server.self_ms.range", "ms"}, {"server.self_ms.write", "ms"},
	{"server.req_bytes", "bytes"}, {"server.resp_bytes", "bytes"},
	{"engine.self_ms.aknn", "ms"}, {"engine.self_ms.rknn", "ms"}, {"engine.self_ms.range", "ms"}, {"engine.self_ms.write", "ms"},
	{"engine.write_batch_size", "count"}, {"engine.overloaded", "count"}, {"engine.checkpoints", "count"}, {"engine.checkpoint_ms", "ms"},
	{"query.exec_ms.aknn", "ms"}, {"query.exec_ms.rknn", "ms"}, {"query.exec_ms.range", "ms"},
	{"query.object_accesses.aknn", "count"}, {"query.object_accesses.rknn", "count"}, {"query.object_accesses.range", "count"},
	{"query.distance_evals.aknn", "count"}, {"query.distance_evals.rknn", "count"}, {"query.distance_evals.range", "count"},
	{"query.profiles_built.rknn", "count"}, {"query.candidates.rknn", "count"},
	{"query.us_per_distance_eval.aknn", "us"},
	{"query.allocs.aknn", "count"}, {"query.allocs.rknn", "count"},
	{"query.shard_speedup.aknn", "ratio"}, {"query.shard_speedup.rknn", "ratio"},
	{"query.apply_batch_ms.1", "ms"}, {"query.apply_batch_ms.64", "ms"},
	{"rtree.node_accesses.aknn", "count"}, {"rtree.node_accesses.rknn", "count"}, {"rtree.node_accesses.range", "count"},
	{"fuzzy.alpha_distance_us", "us"}, {"fuzzy.profile_us", "us"}, {"fuzzy.profile_allocs", "count"},
	{"store.get_us", "us"}, {"store.open_s", "s"}, {"store.log_bytes_per_user_byte", "ratio"},
	{"pager.reads_per_query", "count"}, {"pager.hit_ratio", "ratio"}, {"pager.evictions", "count"},
	{"loadgen.late_p90_ms", "ms"}, {"loadgen.late_p99_ms", "ms"}, {"trace.overhead_ratio", "ratio"},
}

// perLayer orders the traced run's figures and adds the load generator's
// lateness from the open loop.
func perLayer(w *Workload, m map[string]float64, openS []sample) []metric {
	late := make([]float64, len(openS))
	for i := range openS {
		late[i] = ms(openS[i].late())
	}
	var out []metric
	for _, u := range perLayerUnits {
		switch u.name {
		case "loadgen.late_p90_ms":
			out = append(out, pctMetric(u.name, late, 0.9, u.unit)...)
		case "loadgen.late_p99_ms":
			out = append(out, pctMetric(u.name, late, 0.99, u.unit)...)
		default:
			out = append(out, metric{u.name, m[u.name], u.unit, ""})
		}
	}
	return out
}

// quiet runs a measured phase with this process's garbage collector off,
// so that the load generator's own collections do not take CPU from the
// server at random moments. A memory limit still forces a collection if
// the phase allocates far more than expected. The phase's garbage is
// collected before quiet returns, not during the server launches after it.
func quiet(phase func()) {
	runtime.GC()
	defer runtime.GC()
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(768 << 20))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	phase()
}

// sweepRuns deletes the run directories of benchmark processes that no
// longer exist (killed before they could clean up); each directory name
// ends in its process id.
func sweepRuns(runs string) {
	entries, _ := os.ReadDir(runs) // a missing directory has nothing to sweep
	for _, e := range entries {
		i := strings.LastIndexByte(e.Name(), '-')
		pid, err := strconv.Atoi(e.Name()[i+1:])
		if err != nil {
			continue
		}
		if _, err := os.Stat(fmt.Sprintf("/proc/%d", pid)); os.IsNotExist(err) {
			os.RemoveAll(filepath.Join(runs, e.Name()))
		}
	}
}
