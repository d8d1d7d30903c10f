// Command perfbench is the repository's benchmark. For one workload and
// seed it generates the inputs, launches a real fuzzyserve on them, sends
// an open-loop load over loopback, checks sampled answers against the
// library's oracles and prints every metric by name with its unit. With
// -trace 1 it also replays the workload's request stream in-process
// through each layer's public entry point and prints per-layer metrics.
//
// Run it from the root of a checkout through run.sh, which builds
// fuzzyserve, fuzzygen and this program from that checkout first:
//
//	bash perfbench/run.sh --workload paper_aknn --seed 1 --seconds 14 --trace 0
//	bash perfbench/run.sh steady --workload small_mixed --runs 10 --sets 2
//	bash perfbench/run.sh spans .bench_build/spans/small_mixed-1.jsonl
//
// The last line of a run's output is one JSON object with the keys
// correct, attempted, failed and metrics. The run exits non-zero when any
// request failed or any answer was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			os.Exit(steadyMain(os.Args[2:]))
		case "spans":
			os.Exit(spansMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper_aknn | small_mixed | churn_log")
	seed := fs.Uint64("seed", 1, "seed of the generated objects and request stream")
	seconds := fs.Float64("seconds", 0, "length of the open-loop measurement (0 = run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 = also run the in-process traced run and report per-layer metrics")
	root := fs.String("root", ".", "root of the checkout (run.sh sets it)")
	bin := fs.String("bin", ".bench_build/bin", "directory holding the fuzzyserve and fuzzygen binaries")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	absBin, err := filepath.Abs(*bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	sp, err := loadSpec(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds == 0 {
		*seconds = float64(sp.RunSeconds)
	}
	res, err := run(w, *seed, *seconds, *trace == 1, *root, absBin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	declared := sp.EndToEnd
	if *trace == 1 {
		declared = sp.PerLayer
	}
	if !res.print(os.Stdout, *trace == 1, declared) {
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string // sample count and percentile, or the base of a ratio
}

// result is everything one run reports.
type result struct {
	workload  string
	e2e       []metric // every end-to-end metric the run could support
	layers    []metric // per-layer metrics (traced run)
	attempted int
	failed    int
	wrong     []string
	failures  []string
	correct   bool
	spanFile  string
}

// print writes the report and, last, the result line carrying the
// declared metrics. It returns whether the run was correct and complete.
func (r *result) print(out io.Writer, traced bool, declared []benchMetric) bool {
	fmt.Fprintf(out, "workload %s: attempted %d, failed %d\n", r.workload, r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintln(out, "  failed:", f)
	}
	for _, wr := range r.wrong {
		fmt.Fprintln(out, "  wrong answer:", wr)
	}
	fmt.Fprintln(out, "end-to-end metrics:")
	for _, m := range r.e2e {
		fmt.Fprintf(out, "  %-24s %14.4f %-8s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	have := r.e2e
	if traced {
		fmt.Fprintln(out, "per-layer metrics (traced run; 0 where the workload does not issue the kind):")
		for _, m := range r.layers {
			fmt.Fprintf(out, "  %-34s %14.4f %-8s %s\n", m.Name, m.Value, m.Unit, m.Note)
		}
		fmt.Fprintln(out, "spans written to", r.spanFile)
		have = r.layers
	}

	byName := make(map[string]metric, len(have))
	for _, m := range have {
		byName[m.Name] = m
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]value)}
	for _, d := range declared {
		m, ok := byName[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			line.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.Name)
			continue
		}
		line.Metrics[d.Name] = value{m.Value, d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // finite numbers and strings always marshal
	}
	fmt.Fprintln(out, string(b))
	return line.Correct
}
