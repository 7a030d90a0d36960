package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// pins.json pins, per sim workload and seed, the sha256 of the run's
// Result envelope and its exact counts. Regenerate it with -pin only
// when a change to the simulator's output is intended.
//
//go:embed testdata/pins.json
var pinsJSON []byte

type pin struct {
	Digest string `json:"sha256"`
	Counts counts `json:"counts"`
}

// pinTable maps workload → seed → pin.
type pinTable map[string]map[string]pin

func loadPins() (pinTable, error) {
	var t pinTable
	if err := json.Unmarshal(pinsJSON, &t); err != nil {
		return nil, fmt.Errorf("decoding pins: %w", err)
	}
	return t, nil
}

func (t pinTable) lookup(wl string, seed int64) (pin, bool) {
	p, ok := t[wl][strconv.FormatInt(seed, 10)]
	return p, ok
}

// writePins runs every sim workload once per seed and writes the pin
// table to path.
func writePins(path string, seeds []int64) error {
	t := pinTable{}
	tr := newTracer(false)
	for _, wl := range simWorkloadNames {
		t[wl] = map[string]pin{}
		for _, seed := range seeds {
			j, err := simJob(wl, seed, fullSize)
			if err != nil {
				return err
			}
			out, err := runJob(tr, j, j.parts)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl, seed, err)
			}
			var st jobState
			var v verdict
			st.check(&v, j, out)
			if len(v.problems) > 0 {
				return fmt.Errorf("%s seed %d: %v", wl, seed, v.problems)
			}
			t[wl][strconv.FormatInt(seed, 10)] = pin{Digest: st.digest, Counts: out.counts}
			fmt.Fprintf(os.Stderr, "pinned %s seed %d: %s %+v\n", wl, seed, st.digest, out.counts)
		}
	}
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
