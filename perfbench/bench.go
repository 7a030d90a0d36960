package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/scenario"
)

// Workload shapes. The serve workload's open loop offers a fixed
// Poisson rate, about 40% of what a two-client closed loop sustains on
// the mix on a 2-core host; the sim workloads' repeat loop offers more,
// so that its p99 has enough samples beyond it. Closed loops run two
// clients.
const (
	openRate      = 120.0 // requests per second, serve mix
	repeatRate    = 200.0 // requests per second, repeats of one Spec
	closedClients = 2
	minRuns       = 3   // library passes per process, at least
	serveSetups   = 200 // server constructions timed for setup_s
	// libraryPerPreset is how many drawn seeds of each preset the serve
	// workload's library passes run; run costs vary with the seed, and
	// several per preset keep run_s from following one draw.
	libraryPerPreset = 4
)

// bench is one benchmark process: a workload at a seed, measured for a
// time budget, with or without the traced pass.
type bench struct {
	workload string
	seed     int64
	budget   time.Duration
	trace    bool
	sz       size
	pins     pinTable
	traceDir string

	tr   *tracer
	prof profiler
	out  output
	logs int // problems printed so far

	e2e, layer map[string]metric
}

func newBench(workload string, seed int64, budget time.Duration, trace bool, sz size, pins pinTable) *bench {
	return &bench{
		workload: workload, seed: seed, budget: budget, trace: trace, sz: sz, pins: pins,
		traceDir: ".bench_build/perfbench-trace",
		tr:       newTracer(false),
		e2e:      map[string]metric{},
		layer:    map[string]metric{},
	}
}

func (b *bench) setE2E(name string, v float64, unit string)   { b.e2e[name] = metric{v, unit} }
func (b *bench) setLayer(name string, v float64, unit string) { b.layer[name] = metric{v, unit} }

// op records one attempted operation and whether its checks passed.
func (b *bench) op(problems []string) {
	b.out.Attempted++
	if len(problems) == 0 {
		return
	}
	b.out.Failed++
	for _, p := range problems {
		if b.logs < 20 {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
		}
		b.logs++
	}
}

// run measures the workload and returns the result line.
func (b *bench) run() (output, error) {
	var err error
	switch b.workload {
	case "incast", "websearch", "reconverge":
		err = b.runSim()
	case "serve":
		err = b.runServe()
	default:
		err = fmt.Errorf("unknown workload %q (want incast, websearch, reconverge or serve)", b.workload)
	}
	if err != nil {
		return output{}, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return output{}, err
	}
	b.setLayer("runtime.peak_rss_mb", rss, "MB")
	b.out.Metrics = b.e2e
	if b.trace {
		b.out.Metrics = b.layer
		if err := b.writeTrace(); err != nil {
			return output{}, err
		}
	}
	b.out.Correct = b.out.Failed == 0 && b.out.Attempted > 0
	return b.out, nil
}

// runSim measures a library-path workload and its Spec through the
// service. Library passes alternate with extra set-ups and closed-loop
// rounds of repeats for the whole run, so that every end-to-end metric
// is a median over the same stretch of time; a shared host's speed
// drifts over seconds, and a metric measured in one part of the run
// would follow that part. After the first pass, which gives the
// envelope the service must answer with, one cold request and an open
// loop of repeats give the latency figures.
func (b *bench) runSim() error {
	j, err := simJob(b.workload, b.seed, b.sz)
	if err != nil {
		return err
	}
	if p, ok := b.pins.lookup(b.workload, b.seed); ok {
		j.pin = &p
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d has no pinned digest; checking repeatability only\n", b.workload, b.seed)
	}
	sp, err := scenario.DecodeSpec(j.raw)
	if err != nil {
		return err
	}
	rq, err := newRequest(j.name, sp, j.parts)
	if err != nil {
		return err
	}
	svc, err := startService()
	if err != nil {
		return err
	}
	defer svc.close()
	chk := newBodyChecker()
	same := func() request { return rq }

	jobs, states := []job{j}, []*jobState{{}}
	var (
		setups, rates []float64
		first, open   []reply
		closed        []reply
	)
	between := func(pass passOut) error {
		if rq.want == nil {
			if rq.want, err = compactJSON(states[0].envelope); err != nil {
				return err
			}
			// The profile of a sim workload covers its library passes
			// only; the service phase records spans.
			b.startTraced(false)
			first = append(first, svc.send(b.tr, chk, rq, time.Now()))
			open = svc.openLoop(b.tr, chk, rand.New(rand.NewSource(b.seed)), repeatRate, b.budget/10, same)
			b.stopTraced()
		}
		s, err := setupLoop(j, pass.wall.setup(), time.Now().Add(pass.wall.total()/10))
		if err != nil {
			return err
		}
		setups = append(setups, s...)
		// The round starts from a collected heap, like a pass, so that
		// the pass's garbage is not charged to the service.
		runtime.GC()
		b.startTraced(false)
		c0 := cpuNow()
		rs := svc.closedLoop(b.tr, chk, closedClients, pass.wall.total(), same)
		rates = append(rates, ratio(float64(len(rs)), (cpuNow()-c0).Seconds()))
		b.stopTraced()
		closed = append(closed, rs...)
		return nil
	}
	untraced, traced, err := b.libraryLoop(jobs, states, time.Now().Add(b.budget*85/100), between)
	if err != nil {
		return err
	}
	if len(untraced) == 0 || len(rates) == 0 {
		return fmt.Errorf("%s: no library run succeeded", j.name)
	}
	b.setE2E("run_s", median(passSeconds(untraced, cpuOf(phases.total))), "s")
	b.setE2E("setup_s", median(append(passSeconds(untraced, cpuOf(phases.setup)), setups...)), "s")
	b.serviceMetrics(append(first, open...), open, closed, median(rates))

	if b.trace {
		return b.layerMetrics(jobs, states, untraced, traced)
	}
	return nil
}

// runServe measures powersimd on the seeded preset mix: server set-up,
// an open loop at openRate, a closed loop of closedClients, and the
// library-path cost of the mix's Specs.
func (b *bench) runServe() error {
	var setups []float64
	for i := 0; i < serveSetups; i++ {
		c0 := cpuNow()
		svc, err := startService()
		if err != nil {
			return err
		}
		setups = append(setups, (cpuNow() - c0).Seconds())
		svc.close()
	}
	b.setE2E("setup_s", median(setups), "s")

	svc, err := startService()
	if err != nil {
		return err
	}
	defer svc.close()
	m := newMix(b.seed)
	chk := newBodyChecker()
	b.startTraced(true)
	open := svc.openLoop(b.tr, chk, rand.New(rand.NewSource(b.seed)), openRate, b.budget*35/100, m.next)
	c0 := cpuNow()
	closed := svc.closedLoop(b.tr, chk, closedClients, b.budget*35/100, m.next)
	rate := ratio(float64(len(closed)), (cpuNow() - c0).Seconds())
	b.stopTraced()
	b.serviceMetrics(open, open, closed, rate)

	// The first requests of every preset also run through the library
	// path, which must give the Results the service answered with.
	var jobs []job
	var states []*jobState
	firsts := m.firstOfEach(libraryPerPreset)
	for _, rq := range firsts {
		jobs = append(jobs, job{name: rq.name, raw: rq.raw, parts: rq.parts})
		states = append(states, &jobState{})
	}
	untraced, traced, err := b.libraryLoop(jobs, states, time.Now().Add(b.budget*2/10), nil)
	if err != nil {
		return err
	}
	if len(untraced) == 0 {
		return fmt.Errorf("serve: no library pass succeeded")
	}
	perSpec := passSeconds(untraced, cpuOf(phases.total))
	for i := range perSpec {
		perSpec[i] /= float64(len(jobs))
	}
	b.setE2E("run_s", median(perSpec), "s")
	for k, rq := range firsts {
		var v verdict
		want, err := compactJSON(states[k].envelope)
		got := chk.resultOf(rq.key)
		v.checkf(err == nil && got != nil && bytes.Equal(got, want),
			"%s: service Result differs from the library-path envelope", rq.name)
		b.op(v.problems)
	}
	if b.trace {
		return b.layerMetrics(jobs, states, untraced, traced)
	}
	return nil
}

// startTraced turns on spans, and the CPU profile when profile is set,
// in the traced run.
func (b *bench) startTraced(profile bool) {
	if !b.trace {
		return
	}
	b.tr.enabled = true
	if !profile {
		return
	}
	if err := b.prof.start(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

func (b *bench) stopTraced() {
	b.tr.enabled = false
	b.prof.stop()
}

// serviceMetrics records the service replies as operations and derives
// the serving metrics: closed-loop requests per CPU second (rate),
// open-loop latency, and the cache, shedding and generator-lateness
// figures.
func (b *bench) serviceMetrics(all, open, closed []reply, rate float64) {
	all = append(all, closed...)
	var lat, late, hits, misses []time.Duration
	var ok, shed int
	for _, r := range all {
		var problems []string
		if r.problem != "" {
			problems = []string{r.problem}
		}
		b.op(problems)
		if r.shed {
			shed++
		}
		if r.problem != "" {
			continue
		}
		ok++
		if r.hit {
			hits = append(hits, r.lat)
		} else {
			misses = append(misses, r.lat)
		}
	}
	for _, r := range open {
		lat = append(lat, r.lat)
		late = append(late, r.late)
	}
	b.setE2E("serve_req_per_cpu_s", rate, "1/s")
	b.setLayer("serve.p50_ms", quantile(millis(lat), 0.5), "ms")
	b.setLayer("serve.p99_ms", quantile(millis(lat), 0.99), "ms")
	b.setLayer("serve.hit_p50_ms", median(millis(hits)), "ms")
	b.setLayer("serve.miss_p50_ms", median(millis(misses)), "ms")
	b.setLayer("serve.cache_hit_ratio", ratio(float64(len(hits)), float64(ok)), "ratio")
	b.setLayer("serve.shed_ratio", ratio(float64(shed), float64(len(all))), "ratio")
	b.setLayer("serve.gen_late_p99_ms", quantile(millis(late), 0.99), "ms")
}

// passOut sums one pass over a workload's jobs.
type passOut struct {
	wall, cpu  phases
	steps      uint64
	rebuilds   int
	gets, news uint64
	mallocs    uint64  // heap objects allocated during the pass
	allocBytes uint64  // heap bytes allocated during the pass
	gcCPU      float64 // GC CPU seconds during the pass
	availCPU   float64 // CPU seconds available (GOMAXPROCS × wall)
}

func passSeconds(ps []passOut, f func(passOut) time.Duration) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p).Seconds()
	}
	return out
}

// cpuOf and wallOf select a phase sum of a pass's CPU or wall times.
func cpuOf(f func(phases) time.Duration) func(passOut) time.Duration {
	return func(p passOut) time.Duration { return f(p.cpu) }
}

func wallOf(f func(phases) time.Duration) func(passOut) time.Duration {
	return func(p passOut) time.Duration { return f(p.wall) }
}

// libraryLoop repeats passes over jobs until the deadline, and at least
// minRuns times, calling between (when not nil) after each successful
// pass. In the traced run every other pass is traced (spans, profile
// labels, CPU profile), so untraced timings stay comparable to the
// untraced run's and the difference is the tracing overhead.
func (b *bench) libraryLoop(jobs []job, states []*jobState, until time.Time, between func(passOut) error) (untraced, traced []passOut, err error) {
	for i := 0; ; i++ {
		enough := len(untraced) >= minRuns && (!b.trace || len(traced) >= 2)
		if enough && time.Now().After(until) {
			return untraced, traced, nil
		}
		isTraced := b.trace && i%2 == 1
		p, ok := b.pass(jobs, states, isTraced)
		if !ok {
			return untraced, traced, nil
		}
		if isTraced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
		if between != nil {
			if err := between(p); err != nil {
				return nil, nil, err
			}
		}
	}
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

type memSnap struct {
	mallocs, bytes  uint64
	gcCPU, availCPU float64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	return memSnap{
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcCPU: cpuSamples[0].Value.Float64(), availCPU: cpuSamples[1].Value.Float64(),
	}
}

// pass runs every job once, checking each run. It reports false when a
// run failed outright, which ends the loop.
func (b *bench) pass(jobs []job, states []*jobState, traced bool) (passOut, bool) {
	var p passOut
	m0 := readMem()
	if traced {
		b.startTraced(true)
	}
	ok := true
	for k, j := range jobs {
		// Every run starts from a collected heap, as a fresh CLI process
		// would; this keeps one run's garbage out of the next one's
		// time and memory figures.
		runtime.GC()
		out, err := runJob(b.tr, j, j.parts)
		var v verdict
		if err != nil {
			v.checkf(false, "%s: %v", j.name, err)
			ok = false
		} else {
			states[k].check(&v, j, out)
		}
		b.op(v.problems)
		p.wall.add(out.wall)
		p.cpu.add(out.cpu)
		p.steps += out.counts.Steps
		p.rebuilds += out.counts.Rebuilds
		p.gets += out.gets
		p.news += out.news
	}
	if traced {
		b.stopTraced()
	}
	m1 := readMem()
	p.mallocs, p.allocBytes = m1.mallocs-m0.mallocs, m1.bytes-m0.bytes
	p.gcCPU, p.availCPU = m1.gcCPU-m0.gcCPU, m1.availCPU-m0.availCPU
	return p, ok
}

// layerMetrics derives the per-layer metrics from the library passes,
// one parts=1/parts=2 pair per partitionable job, and one extra route
// rebuild per job. Phase times are process CPU time, like the
// end-to-end run_s; scenario.run_wall_s and psim.speedup_x are wall
// time.
func (b *bench) layerMetrics(jobs []job, states []*jobState, untraced, traced []passOut) error {
	if len(untraced) == 0 || len(traced) == 0 {
		return fmt.Errorf("traced run: no successful library pass")
	}
	cpuMS := func(f func(phases) time.Duration) float64 { return median(passSeconds(untraced, cpuOf(f))) * 1e3 }
	b.setLayer("scenario.decode_ms", cpuMS(func(p phases) time.Duration { return p.decode }), "ms")
	b.setLayer("scenario.build_ms", cpuMS(func(p phases) time.Duration { return p.build + p.prepare }), "ms")
	driveMS := cpuMS(func(p phases) time.Duration { return p.drive })
	b.setLayer("scenario.drive_s", driveMS/1e3, "s")
	b.setLayer("scenario.finish_ms", cpuMS(func(p phases) time.Duration { return p.finish }), "ms")
	b.setLayer("scenario.encode_ms", cpuMS(func(p phases) time.Duration { return p.encode }), "ms")
	b.setLayer("scenario.run_wall_s", median(passSeconds(untraced, wallOf(phases.total))), "s")

	u := untraced[0]
	b.setLayer("sim.engine_steps", float64(u.steps), "count")
	b.setLayer("sim.ns_per_event", ratio(driveMS*1e6, float64(u.steps)), "ns")
	var allocs, allocMB, gcFrac []float64
	for _, p := range untraced {
		allocs = append(allocs, ratio(float64(p.mallocs), float64(p.steps)))
		allocMB = append(allocMB, float64(p.allocBytes)/(1<<20))
		gcFrac = append(gcFrac, ratio(p.gcCPU, p.availCPU))
	}
	b.setLayer("runtime.allocs_per_event", median(allocs), "count")
	b.setLayer("runtime.alloc_mb", median(allocMB), "MB")
	b.setLayer("runtime.gc_cpu_fraction", median(gcFrac), "ratio")
	b.setLayer("packet.pool_miss_ratio", ratio(float64(u.news), float64(u.gets)), "ratio")
	b.setLayer("route.rebuilds", float64(u.rebuilds), "count")
	b.setLayer("trace.overhead_x", ratio(median(passSeconds(traced, cpuOf(phases.total))), median(passSeconds(untraced, cpuOf(phases.total)))), "x")

	var rebuild, drive1, drive2 time.Duration
	var imbSteps, steps2 float64
	for k, j := range jobs {
		d, err := timeRebuild(b.tr, j)
		var v verdict
		v.checkf(err == nil, "%s: rebuild: %v", j.name, err)
		b.op(v.problems)
		rebuild += d

		sp, err := scenario.DecodeSpec(j.raw)
		if err != nil {
			return err
		}
		if len(sp.PartsAxis()) < 2 {
			continue
		}
		for _, parts := range []int{1, 2} {
			out, err := runJob(b.tr, j, parts)
			var v verdict
			if err != nil {
				v.checkf(false, "%s parts=%d: %v", j.name, parts, err)
			} else {
				v.checkf(bytes.Equal(out.envelope, states[k].envelope), "%s: envelope at parts=%d differs from parts=%d", j.name, parts, j.parts)
				v.checkf(out.counts.Steps == states[k].counts.Steps, "%s: steps at parts=%d differ", j.name, parts)
			}
			b.op(v.problems)
			if parts == 1 {
				drive1 += out.wall.drive
			} else {
				drive2 += out.wall.drive
				imbSteps += out.counts.Imbalance * float64(out.counts.Steps)
				steps2 += float64(out.counts.Steps)
			}
		}
	}
	b.setLayer("route.rebuild_ms", rebuild.Seconds()*1e3, "ms")
	b.setLayer("psim.speedup_x", ratio(drive1.Seconds(), drive2.Seconds()), "x")
	b.setLayer("psim.step_imbalance", ratio(imbSteps, steps2), "ratio")
	return nil
}

// writeTrace writes the traced run's spans and profile table and
// records the cpu_share.* metrics.
func (b *bench) writeTrace() error {
	table, err := b.prof.table()
	if err != nil {
		return err
	}
	shares := table.shares()
	for _, k := range shareKeys {
		b.setLayer("cpu_share."+k, shares[k], "ratio")
	}
	path, err := writeTrace(b.traceDir, traceReport{
		Workload: b.workload, Seed: b.seed, Spans: b.tr.spans,
		SelfS: selfTimes(b.tr.spans), Profile: table, Shares: shares,
	})
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintln(os.Stderr, "perfbench: trace written to", path)
	return nil
}

func compactJSON(b []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
