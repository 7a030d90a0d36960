package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public call. Spans of one run share Run (a run label or SpecKey).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run. A disabled tracer
// records nothing and sets no profile labels; the timings the
// benchmark reports are taken either way.
type tracer struct {
	enabled bool
	t0      time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(enabled bool) *tracer { return &tracer{enabled: enabled, t0: time.Now()} }

// begin opens a span and returns its id (0 when disabled).
func (t *tracer) begin(name, run string, parent int) int {
	if !t.enabled {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Run: run, Start: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = int64(time.Since(t.t0))
	t.mu.Unlock()
}

// phase times fn as a child span of parent and, when tracing, runs it
// under the pprof label phase=name so profile samples can be split by
// phase.
func (t *tracer) phase(name, run string, parent int, fn func()) time.Duration {
	id := t.begin(name, run, parent)
	start := time.Now()
	if t.enabled {
		pprof.Do(context.Background(), pprof.Labels("phase", name), func(context.Context) { fn() })
	} else {
		fn()
	}
	d := time.Since(start)
	t.end(id)
	return d
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its child spans.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		covered := coveredNS(s, children[s.ID])
		self[s.Name] += float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// coveredNS returns how much of parent's interval the union of kids
// covers.
func coveredNS(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}

// profiler collects CPU profiles over the traced sections of a run.
type profiler struct {
	buf    bytes.Buffer
	raw    [][]byte
	active bool
}

func (p *profiler) start() error {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	p.active = true
	return nil
}

func (p *profiler) stop() {
	if !p.active {
		return
	}
	pprof.StopCPUProfile()
	p.active = false
	p.raw = append(p.raw, append([]byte(nil), p.buf.Bytes()...))
}

// shareKeys are the cpu_share.<key> metrics: the repo's layers, the
// standard-library packages on the serving path, and two runtime
// categories.
var shareKeys = []string{
	"sim", "link", "queue", "packet", "swtch", "transport", "cc", "core",
	"route", "topo", "workload", "psim", "hybrid", "fluid", "serve", "guard",
	"net_http", "encoding_json", "runtime_gc", "runtime_maps",
}

// profileTable is the profile-derived self-time breakdown: CPU seconds
// by category overall and by phase label.
type profileTable struct {
	TotalS  float64                       `json:"total_cpu_s"`
	ByCat   map[string]float64            `json:"by_category_s"`
	ByPhase map[string]map[string]float64 `json:"by_phase_s"`
}

func (t *profileTable) shares() map[string]float64 {
	out := map[string]float64{}
	for _, k := range shareKeys {
		out[k] = ratio(t.ByCat[k], t.TotalS)
	}
	return out
}

// table merges every collected profile into one breakdown.
func (p *profiler) table() (*profileTable, error) {
	t := &profileTable{ByCat: map[string]float64{}, ByPhase: map[string]map[string]float64{}}
	for _, raw := range p.raw {
		if err := t.add(raw); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (t *profileTable) add(raw []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("opening profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("reading profile: %w", err)
	}
	prof, err := parseProfile(data)
	if err != nil {
		return err
	}
	for _, s := range prof.samples {
		if len(s.values) < 2 {
			continue
		}
		sec := float64(s.values[1]) / 1e9
		cat := prof.category(s.locs)
		t.TotalS += sec
		t.ByCat[cat] += sec
		ph := s.phase
		if ph == "" {
			ph = "unlabelled"
		}
		if t.ByPhase[ph] == nil {
			t.ByPhase[ph] = map[string]float64{}
		}
		t.ByPhase[ph][cat] += sec
	}
	return nil
}

// gcRoots are runtime functions whose whole subtree is garbage-collector
// work.
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.sweepone", "runtime.markroot",
	"runtime.scanobject", "runtime.gcDrain",
}

// category attributes one sample's self time: to the GC when any frame
// is collector work, else to the package of the innermost (leaf)
// function.
func (p *profData) category(locs []uint64) string {
	var frames []string
	for _, id := range locs {
		frames = append(frames, p.locFuncs[id]...)
	}
	for _, f := range frames {
		for _, g := range gcRoots {
			if strings.HasPrefix(f, g) {
				return "runtime_gc"
			}
		}
	}
	if len(frames) == 0 {
		return "other"
	}
	leaf := frames[0]
	switch {
	case strings.HasPrefix(leaf, "runtime.map") || strings.HasPrefix(leaf, "internal/runtime/maps."):
		return "runtime_maps"
	case strings.HasPrefix(leaf, "net/http."):
		return "net_http"
	case strings.HasPrefix(leaf, "encoding/json."):
		return "encoding_json"
	case strings.HasPrefix(leaf, "repro/internal/"):
		rest := strings.TrimPrefix(leaf, "repro/internal/")
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
	case strings.HasPrefix(leaf, "runtime."):
		return "runtime_other"
	}
	return "other"
}

// profData is the part of a pprof profile.proto the share table needs.
type profData struct {
	samples  []profSample
	locFuncs map[uint64][]string // location id → function names, innermost first
}

type profSample struct {
	locs   []uint64
	values []int64
	phase  string
}

// parseProfile decodes the fields of profile.proto used here: samples
// (location ids, values, string labels), locations (line function ids),
// functions (name) and the string table.
func parseProfile(data []byte) (*profData, error) {
	type rawSample struct {
		locs   []uint64
		values []int64
		labels [][2]int64
	}
	var (
		samples []rawSample
		locLine = map[uint64][]uint64{} // location → function ids
		funcs   = map[uint64]int64{}    // function id → name string index
		strs    []string
	)
	err := eachField(data, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var key, str int64
					if err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
						switch n {
						case 1:
							key = int64(v)
						case 2:
							str = int64(v)
						}
						return nil
					}); err != nil {
						return err
					}
					s.labels = append(s.labels, [2]int64{key, str})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLine[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profData{locFuncs: map[uint64][]string{}}
	for id, fns := range locLine {
		for _, f := range fns {
			p.locFuncs[id] = append(p.locFuncs[id], str(funcs[f]))
		}
	}
	for _, s := range samples {
		ps := profSample{locs: s.locs, values: s.values}
		for _, l := range s.labels {
			if str(l[0]) == "phase" {
				ps.phase = str(l[1])
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire type 0) or bytes (wire type 2).
func eachField(b []byte, fn func(num, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wt {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length")
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// traceReport is what the traced run writes out when it ends.
type traceReport struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Spans    []span             `json:"spans"`
	SelfS    map[string]float64 `json:"span_self_s"`
	Profile  *profileTable      `json:"profile"`
	Shares   map[string]float64 `json:"cpu_share"`
}

// writeTrace writes the report to dir/trace-<workload>-<seed>.json and
// returns the path.
func writeTrace(dir string, rep traceReport) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", rep.Workload, rep.Seed))
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
