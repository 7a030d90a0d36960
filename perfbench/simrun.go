package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/scenario"
)

// job is one Spec run through the library path at a partition count.
type job struct {
	name  string // span run id
	raw   []byte // canonical Spec bytes, all the program receives
	parts int
	pin   *pin // pinned envelope digest and counts, nil when unpinned
}

func newJob(name string, sp scenario.Spec, parts int) (job, error) {
	raw, err := scenario.MarshalCanonical(&sp)
	if err != nil {
		return job{}, err
	}
	return job{name: name, raw: raw, parts: parts}, nil
}

// phases are the times of the public calls of one run.
type phases struct {
	decode, build, prepare, drive, finish, encode time.Duration
}

func (p phases) setup() time.Duration { return p.decode + p.build + p.prepare }
func (p phases) total() time.Duration {
	return p.setup() + p.drive + p.finish + p.encode
}

func (p *phases) add(q phases) {
	p.decode += q.decode
	p.build += q.build
	p.prepare += q.prepare
	p.drive += q.drive
	p.finish += q.finish
	p.encode += q.encode
}

// counts are the deterministic per-layer counts read from public
// accessors after a run. They must repeat exactly for a fixed Spec.
type counts struct {
	Steps     uint64  `json:"engine_steps"`
	Rebuilds  int     `json:"route_rebuilds"`
	Imbalance float64 `json:"step_imbalance"`
}

// runOut is one library-path run: its timings, envelope and counts.
type runOut struct {
	wall, cpu phases // wall-clock and process CPU time of each call
	envelope  []byte // Result.EncodeJSON bytes
	counts    counts
	residual  float64
	emitted   float64
	gets      uint64 // packet pool Gets
	news      uint64 // packet pool Gets that allocated
}

// runJob drives one job through DecodeSpec → Build → Prepare → DriveTo
// → Finish → EncodeJSON, timing each call from outside.
func runJob(tr *tracer, j job, parts int) (runOut, error) {
	var out runOut
	root := tr.begin("run", j.name, 0)
	defer tr.end(root)
	call := func(name string, wall, cpu *time.Duration, fn func()) {
		c0 := cpuNow()
		*wall = tr.phase(name, j.name, root, fn)
		*cpu = cpuNow() - c0
	}

	var (
		sp   *scenario.Spec
		sc   scenario.Scenario
		prep *scenario.Prepared
		res  *scenario.Result
		err  error
	)
	call("scenario.decode", &out.wall.decode, &out.cpu.decode, func() { sp, err = scenario.DecodeSpec(j.raw) })
	if err != nil {
		return out, err
	}
	call("scenario.build", &out.wall.build, &out.cpu.build, func() { sc, err = sp.Build(parts) })
	if err != nil {
		return out, err
	}
	call("scenario.prepare", &out.wall.prepare, &out.cpu.prepare, func() { prep, err = scenario.Prepare(sc) })
	if err != nil {
		return out, err
	}
	defer prep.Release()
	call("scenario.drive", &out.wall.drive, &out.cpu.drive, func() { prep.DriveTo(prep.Horizon()) })
	call("scenario.finish", &out.wall.finish, &out.cpu.finish, func() { res, err = prep.Finish() })
	if err != nil {
		return out, err
	}
	var buf bytes.Buffer
	call("scenario.encode", &out.wall.encode, &out.cpu.encode, func() { err = res.EncodeJSON(&buf) })
	if err != nil {
		return out, err
	}
	out.envelope = buf.Bytes()
	out.residual = res.Scalar("bytes_residual")
	out.emitted = res.Scalar("bytes_emitted")
	out.counts, out.gets, out.news = readCounts(prep)
	return out, nil
}

// cpuNow returns the CPU time (user + system) the process has used.
// Unlike wall time it excludes time the host's hypervisor stole from
// the VM, which on a shared host moves wall-clock figures by tens of
// percent between runs.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readCounts reads the per-layer counts off a driven run.
func readCounts(p *scenario.Prepared) (c counts, gets, news uint64) {
	c.Steps = p.Steps()
	c.Imbalance = 1
	lab := p.Env().Lab
	if lab == nil {
		return c, 0, 0
	}
	net := lab.Net
	c.Rebuilds = net.Router.Rebuilds()
	pools := net.Pools
	if len(pools) == 0 {
		pools = append(pools, net.Pool)
	}
	for _, pl := range pools {
		g, n, _ := pl.Stats()
		gets += g
		news += n
	}
	if len(net.Engs) > 0 {
		var sum, top uint64
		for _, e := range net.Engs {
			s := e.Steps()
			sum += s
			top = max(top, s)
		}
		c.Imbalance = ratio(float64(top), float64(sum)/float64(len(net.Engs)))
	}
	return c, gets, news
}

// timeRebuild prepares a discarded copy of the job and returns the CPU
// time of one extra full route recomputation on it.
func timeRebuild(tr *tracer, j job) (time.Duration, error) {
	sp, err := scenario.DecodeSpec(j.raw)
	if err != nil {
		return 0, err
	}
	sc, err := sp.Build(1)
	if err != nil {
		return 0, err
	}
	prep, err := scenario.Prepare(sc)
	if err != nil {
		return 0, err
	}
	defer prep.Release()
	lab := prep.Env().Lab
	if lab == nil {
		return 0, fmt.Errorf("%s: no switched fabric to rebuild", j.name)
	}
	c0 := cpuNow()
	tr.phase("route.rebuild", j.name, 0, lab.Net.Router.Rebuild)
	return cpuNow() - c0, nil
}

// setupLoop repeats DecodeSpec → Build → Prepare of j, each from a
// collected heap as in a pass, while one more set-up of about last's
// wall time ends before the deadline, and returns the CPU seconds of
// each. A pass gives one set-up; on the small fabrics the loop gives
// the set-up median many more, and on the 8192-host one, whose set-up
// is a third of its run, none.
func setupLoop(j job, last time.Duration, until time.Time) ([]float64, error) {
	var out []float64
	for time.Now().Add(last).Before(until) {
		runtime.GC()
		w0, c0 := time.Now(), cpuNow()
		sp, err := scenario.DecodeSpec(j.raw)
		if err != nil {
			return nil, err
		}
		sc, err := sp.Build(j.parts)
		if err != nil {
			return nil, err
		}
		prep, err := scenario.Prepare(sc)
		if err != nil {
			return nil, err
		}
		out = append(out, (cpuNow() - c0).Seconds())
		last = time.Since(w0)
		prep.Release()
	}
	return out, nil
}

// verdict collects correctness checks for one operation.
type verdict struct{ problems []string }

func (v *verdict) checkf(ok bool, format string, args ...any) {
	if !ok {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// jobState holds what later runs of a job are checked against: the
// first envelope and counts seen in this process.
type jobState struct {
	envelope []byte
	counts   counts
	digest   string
}

// check verifies one run of j: conservation, exact repetition of the
// envelope and counts, and (on the first run) the pinned digest.
func (st *jobState) check(v *verdict, j job, out runOut) {
	v.checkf(out.residual == 0, "%s: bytes_residual = %g", j.name, out.residual)
	v.checkf(out.emitted > 0, "%s: no payload emitted", j.name)
	if st.envelope == nil {
		st.envelope = out.envelope
		st.counts = out.counts
		st.digest = fmt.Sprintf("%x", sha256.Sum256(out.envelope))
		if j.pin != nil {
			v.checkf(j.pin.Digest == st.digest, "%s: envelope sha256 %s, pinned %s", j.name, st.digest, j.pin.Digest)
			v.checkf(j.pin.Counts == out.counts, "%s: counts %+v, pinned %+v", j.name, out.counts, j.pin.Counts)
		}
		return
	}
	v.checkf(bytes.Equal(st.envelope, out.envelope), "%s: envelope differs between repeats", j.name)
	v.checkf(st.counts == out.counts, "%s: counts %+v drifted from %+v", j.name, out.counts, st.counts)
}
