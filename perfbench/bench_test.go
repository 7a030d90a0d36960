package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// runTiny runs one workload at the self-test size for a short budget.
func runTiny(t *testing.T, workload string, trace bool, pins pinTable) output {
	t.Helper()
	b := newBench(workload, 1, 300*time.Millisecond, trace, tinySize, pins)
	b.traceDir = t.TempDir()
	out, err := b.run()
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	return out
}

// TestEveryMetricEmitted checks that each workload in BENCHMARK.json
// prints exactly the metrics BENCHMARK.json names, with their units:
// the end-to-end ones untraced, the per-layer ones traced.
func TestEveryMetricEmitted(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, wl := range bj.Workloads {
		for _, trace := range []bool{false, true} {
			out := runTiny(t, wl.Name, trace, pinTable{})
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, out.Correct, out.Attempted, out.Failed)
			}
			want := bj.EndToEnd
			if trace {
				want = bj.PerLayer
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", wl.Name, trace, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: emitted %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(out.Metrics), len(want))
			}
		}
	}
}

// TestPinnedDigest checks the output gate both ways: the right pinned
// digest passes, and a wrong one marks the run failed.
func TestPinnedDigest(t *testing.T) {
	j, err := simJob("incast", 1, tinySize)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runJob(newTracer(false), j, j.parts)
	if err != nil {
		t.Fatal(err)
	}
	var st jobState
	var v verdict
	st.check(&v, j, out)
	if len(v.problems) != 0 {
		t.Fatal(v.problems)
	}
	good := pinTable{"incast": {"1": {Digest: st.digest, Counts: out.counts}}}
	if res := runTiny(t, "incast", false, good); !res.Correct || res.Failed != 0 {
		t.Errorf("correct pin: correct=%v failed=%d", res.Correct, res.Failed)
	}
	bad := pinTable{"incast": {"1": {Digest: "0000", Counts: out.counts}}}
	if res := runTiny(t, "incast", false, bad); res.Correct || res.Failed == 0 {
		t.Errorf("wrong pin: correct=%v failed=%d, want a failed run", res.Correct, res.Failed)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 3, Name: "c", Start: 35, End: 45},
	}
	self := selfTimes(spans)
	want := map[string]float64{"run": 50e-9, "a": 30e-9, "b": 20e-9, "c": 10e-9}
	for name, w := range want {
		if d := self[name] - w; d > 1e-15 || d < -1e-15 {
			t.Errorf("self[%s] = %g, want %g", name, self[name], w)
		}
	}
}

func TestPinsCoverSimWorkloads(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range simWorkloadNames {
		if len(pins[wl]) == 0 {
			t.Errorf("no pinned digests for %s", wl)
		}
	}
}
