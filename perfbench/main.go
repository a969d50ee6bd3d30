// Command perfbench is the serving benchmark of the IAM estimator. It
// synthesizes a table, trains IAM and stands up the estimation server with
// iamserve's shipped defaults, drives one workload through the public
// serving API, checks every answer, and prints one JSON result line:
//
//	go run . -workload twi-http -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1
// it carries the per-layer metrics of a traced run. README.md describes the
// workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	name := flag.String("workload", "", "twi-http | wisdm-burst | twi-sorted-k4")
	seed := flag.Int64("seed", 1, "workload seed: picks the query set")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	traceDir := flag.String("trace-dir", ".bench_build/trace", "where a traced run writes its spans")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments:", err)
		flag.Usage()
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
	res, err := run(w, prodScale, options{seed: *seed, dur: time.Duration(*seconds) * time.Second, traced: *trace == 1, traceDir: *traceDir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	shown := res.metrics
	if *trace == 0 {
		shown = append(shown, res.host...)
	}
	for _, m := range shown {
		fmt.Fprintf(os.Stderr, "%-28s %14.6g %s\n", m.name, m.value, m.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]value{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct {
		os.Exit(1)
	}
}
