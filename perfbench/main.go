// Command perfbench is the repository's benchmark. It runs one workload
// through the public path a user waits on — scenario.DecodeSpec →
// Spec.Build → scenario.Prepare → Prepared.DriveTo → Prepared.Finish →
// Result.EncodeJSON, or POST /v1/run on an in-process serve.Server —
// times every call from outside, checks every output, and prints one
// JSON line of metrics.
//
//	bash perfbench/run.sh --workload incast --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs a traced pass (spans, CPU profile with phase labels, exact
// counts) and prints the per-layer metrics, writing the spans and the
// profile table under .bench_build/perfbench-trace. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the benchmark's last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "incast, websearch, reconverge or serve")
	seed := flag.Int64("seed", 1, "workload seed")
	secs := flag.Int("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	pinSeeds := flag.String("pin", "", "regenerate testdata/pins.json for the seed range `a-b` and exit")
	flag.Parse()

	if *pinSeeds != "" {
		seeds, err := seedRange(*pinSeeds)
		if err == nil {
			err = writePins("testdata/pins.json", seeds)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := newBench(*workload, *seed, time.Duration(*secs)*time.Second, *trace == 1, fullSize, pins)
	out, err := b.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// seedRange parses "a-b" (or a single seed).
func seedRange(s string) ([]int64, error) {
	lo, hi, found := strings.Cut(s, "-")
	a, err := strconv.ParseInt(lo, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad seed range %q", s)
	}
	b := a
	if found {
		if b, err = strconv.ParseInt(hi, 10, 64); err != nil || b < a {
			return nil, fmt.Errorf("bad seed range %q", s)
		}
	}
	var out []int64
	for x := a; x <= b; x++ {
		out = append(out, x)
	}
	return out, nil
}
