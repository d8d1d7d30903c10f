package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// resultLine is the JSON object a run prints last.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// steadyMain repeats one workload over consecutive seeds and prints each
// metric's median, quartiles and spread (interquartile range over median)
// against its bound. With -sets 2 it repeats the whole set and compares the
// medians of the two; with -trace 1 it also checks that the paper's counters
// repeat exactly between the sets for each seed.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to repeat")
	runs := fs.Int("runs", 10, "runs per set, one seed each")
	sets := fs.Int("sets", 1, "sets of runs")
	seed0 := fs.Uint64("seed", 1, "seed of the first run; run i uses seed+i")
	seconds := fs.Int("seconds", 0, "seconds per run (0 = run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 = traced runs (per-layer metrics)")
	root := fs.String("root", ".", "root of the checkout")
	bin := fs.String("bin", ".bench_build/bin", "directory holding the built binaries")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds == 0 {
		*seconds = sp.RunSeconds
	}
	declared := sp.EndToEnd
	if *trace == 1 {
		declared = sp.PerLayer
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	// values[set][metric] holds one value per run, in seed order.
	values := make([]map[string][]float64, *sets)
	ok := true
	for s := 0; s < *sets; s++ {
		values[s] = make(map[string][]float64)
		for i := 0; i < *runs; i++ {
			seed := *seed0 + uint64(i)
			line, err := runOnce(self, *name, seed, *seconds, *trace, *root, *bin)
			if err != nil {
				fmt.Fprintf(os.Stderr, "set %d seed %d: %v\n", s+1, seed, err)
				return 1
			}
			fmt.Printf("set %d seed %d: correct=%v attempted=%d failed=%d", s+1, seed, line.Correct, line.Attempted, line.Failed)
			ok = ok && line.Correct
			for _, m := range declared {
				v := line.Metrics[m.Name].Value
				values[s][m.Name] = append(values[s][m.Name], v)
				if *trace == 0 {
					fmt.Printf(" %s=%.4g", m.Name, v)
				}
			}
			fmt.Println()
		}
	}

	fmt.Printf("\n%-34s %-4s %12s %12s %12s %8s %6s  %s\n", "metric", "set", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, m := range declared {
		for s := range values {
			q1, q2, q3 := quartiles(values[s][m.Name])
			spread := ratio(q3-q1, math.Abs(q2))
			verdict := ""
			if m.Bound > 0 {
				switch {
				case spread > m.Bound:
					verdict, ok = "SPREAD ABOVE BOUND", false
				case spread > m.Bound/3:
					verdict = "spread above a third of bound"
				default:
					verdict = "steady"
				}
			}
			fmt.Printf("%-34s %-4d %12.4f %12.4f %12.4f %8.4f %6.3g  %s\n", m.Name, s+1, q1, q2, q3, spread, m.Bound, verdict)
		}
		if len(values) > 1 && m.Bound > 0 {
			_, first, _ := quartiles(values[0][m.Name])
			_, second, _ := quartiles(values[1][m.Name])
			worse := ratio(second-first, math.Abs(first))
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "sets agree"
			if worse > m.Bound {
				verdict, ok = "SECOND SET WORSE THAN BOUND", false
			}
			fmt.Printf("%-34s %-4s %12s %12s %12s %8.4f %6.3g  %s\n", m.Name, "2v1", "", "", "", worse, m.Bound, verdict)
		}
	}
	if *trace == 1 && len(values) > 1 {
		for _, m := range declared {
			if !isPaperCounter(m.Name) {
				continue
			}
			same := fmt.Sprint(values[0][m.Name]) == fmt.Sprint(values[1][m.Name])
			fmt.Printf("counter %-34s repeats exactly across sets: %v\n", m.Name, same)
			ok = ok && same
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// isPaperCounter reports whether a per-layer metric is one of the paper's
// logical cost counters, which must repeat exactly for a given seed.
func isPaperCounter(name string) bool {
	for _, p := range []string{"query.object_accesses.", "query.distance_evals.", "query.profiles_built.", "query.candidates.", "rtree.node_accesses."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// runOnce runs the benchmark once as a child process and parses its last
// output line.
func runOnce(self, name string, seed uint64, seconds, trace int, root, bin string) (*resultLine, error) {
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-root", root, "-bin", bin)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil && len(out) == 0 {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return nil, fmt.Errorf("last line %q: %v", last, err)
	}
	return &line, nil
}

// spansMain prints the per-layer report of a span file written by a
// traced run.
func spansMain(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench spans <file.jsonl>")
		return 2
	}
	spans, err := readSpans(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printSpanReport(os.Stdout, spans)
	return 0
}
