package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/scenario"
	"repro/internal/serve"
)

// service is an in-process powersimd (serve.Server) on a loopback
// listener, and the HTTP client the benchmark drives it with.
type service struct {
	hs     *httptest.Server
	client *http.Client
}

// serveWorkers is the server's run concurrency; serveQueue is sized so
// that the fixed-rate open loop is never shed.
const serveWorkers, serveQueue = 2, 256

// startService constructs a server and waits until /healthz answers.
func startService() (*service, error) {
	srv, err := serve.New(serve.Config{Workers: serveWorkers, Queue: serveQueue})
	if err != nil {
		return nil, fmt.Errorf("constructing server: %w", err)
	}
	s := &service{
		hs:     httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}},
	}
	resp, err := s.client.Get(s.hs.URL + "/healthz")
	if err != nil {
		s.close()
		return nil, fmt.Errorf("server not ready: %w", err)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // only the status matters
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.close()
		return nil, fmt.Errorf("server not ready: /healthz %d", resp.StatusCode)
	}
	return s, nil
}

func (s *service) close() {
	s.hs.Close()
	s.client.CloseIdleConnections()
}

// request is one POST /v1/run: the canonical Spec bytes, the SpecKey
// computed locally from the same Spec, and optionally the library-path
// envelope the response's Result must equal.
type request struct {
	name  string
	raw   []byte
	key   string
	parts int
	want  []byte // compact Result JSON, nil when unknown
}

func newRequest(name string, sp *scenario.Spec, parts int) (request, error) {
	raw, err := scenario.MarshalCanonical(sp)
	if err != nil {
		return request{}, err
	}
	key, err := scenario.SpecKey(sp, sp.Seed, parts)
	if err != nil {
		return request{}, err
	}
	return request{name: name, raw: raw, key: key, parts: parts}, nil
}

// reply is one answered request: latency from its due time, how late
// it was sent, and whether the server reported a cache hit.
type reply struct {
	lat, late time.Duration
	hit, shed bool
	problem   string
}

// bodyChecker verifies response bodies: status 200, the SpecKey, no
// byte-ledger residual, the library-path Result when known, and that
// every answer for one key is byte-equal to the first.
type bodyChecker struct {
	mu    sync.Mutex
	first map[string][]byte
}

func newBodyChecker() *bodyChecker { return &bodyChecker{first: map[string][]byte{}} }

// check may keep body only by copying it: the caller reuses its bytes.
func (c *bodyChecker) check(rq request, status int, body []byte) string {
	if status != http.StatusOK {
		return fmt.Sprintf("%s: status %d: %s", rq.name, status, bytes.TrimSpace(body))
	}
	c.mu.Lock()
	prev, seen := c.first[rq.key]
	c.mu.Unlock()
	if seen {
		// The first answer for this key passed every check below.
		if !bytes.Equal(prev, body) {
			return fmt.Sprintf("%s: body for key %s differs from the first answer", rq.name, rq.key)
		}
		return ""
	}
	var env struct {
		Key    string          `json:"key"`
		Parts  int             `json:"parts"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Sprintf("%s: undecodable envelope: %v", rq.name, err)
	}
	if env.Key != rq.key || env.Parts != rq.parts {
		return fmt.Sprintf("%s: envelope key %s parts %d, want %s parts %d", rq.name, env.Key, env.Parts, rq.key, rq.parts)
	}
	var res struct {
		Scalars map[string]float64 `json:"scalars"`
	}
	if err := json.Unmarshal(env.Result, &res); err != nil {
		return fmt.Sprintf("%s: undecodable result: %v", rq.name, err)
	}
	if r := res.Scalars["bytes_residual"]; r != 0 {
		return fmt.Sprintf("%s: bytes_residual = %g", rq.name, r)
	}
	if rq.want != nil && !bytes.Equal(env.Result, rq.want) {
		return fmt.Sprintf("%s: service Result differs from the library-path envelope", rq.name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.first[rq.key]; !ok {
		c.first[rq.key] = bytes.Clone(body)
	} else if !bytes.Equal(prev, body) {
		// Another answer for the key was checked concurrently.
		return fmt.Sprintf("%s: body for key %s differs from the first answer", rq.name, rq.key)
	}
	return ""
}

// bodyBufs holds response buffers for reuse, so that reading a large
// envelope costs the client one copy and no allocation, and the
// closed loop's CPU time is the server's.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// send posts one request and checks the answer. due is when it was
// scheduled; latency runs from due to the last body byte.
func (s *service) send(tr *tracer, chk *bodyChecker, rq request, due time.Time) reply {
	sent := time.Now()
	id := tr.begin("serve.request", rq.key, 0)
	resp, err := s.client.Post(fmt.Sprintf("%s/v1/run?parts=%d", s.hs.URL, rq.parts), "application/json", bytes.NewReader(rq.raw))
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer bodyBufs.Put(buf)
	buf.Reset()
	if err == nil {
		buf.Grow(int(max(resp.ContentLength, 0)) + bytes.MinRead)
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	body := buf.Bytes()
	tr.end(id)
	r := reply{lat: time.Since(due), late: sent.Sub(due)}
	if err != nil {
		r.problem = fmt.Sprintf("%s: %v", rq.name, err)
		return r
	}
	r.hit = resp.Header.Get("X-Powersim-Cache") == "hit"
	r.shed = resp.StatusCode == http.StatusTooManyRequests
	r.problem = chk.check(rq, resp.StatusCode, body)
	return r
}

// openLoop sends the requests next returns at Poisson arrival times of
// the given rate (drawn from r) for d, each on its own goroutine,
// whether or not earlier requests have finished. It returns once every
// request has been answered.
func (s *service) openLoop(tr *tracer, chk *bodyChecker, r *rand.Rand, rate float64, d time.Duration, next func() request) []reply {
	var due []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
		if t >= d {
			break
		}
		due = append(due, t)
	}
	replies := make([]reply, len(due))
	var wg sync.WaitGroup
	start := time.Now()
	for i, at := range due {
		rq := next()
		dueAt := start.Add(at)
		time.Sleep(time.Until(dueAt))
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies[i] = s.send(tr, chk, rq, dueAt)
		}()
	}
	wg.Wait()
	return replies
}

// closedLoop runs clients that each send their next request only after
// the previous answer, for d.
func (s *service) closedLoop(tr *tracer, chk *bodyChecker, clients int, d time.Duration, next func() request) []reply {
	var (
		mu      sync.Mutex
		replies []reply
		wg      sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				mu.Lock()
				rq := next()
				mu.Unlock()
				rep := s.send(tr, chk, rq, time.Now())
				mu.Lock()
				replies = append(replies, rep)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return replies
}

// mix is the serve workload's request stream. New requests cycle
// through every SpecPresets() entry in seeded shuffled rounds, each
// with a drawn seed; two of every five requests repeat an earlier
// request exactly. Fixing the proportions keeps the latency
// distribution's shape the same for every workload seed.
type mix struct {
	r       *rand.Rand
	presets []scenario.Spec
	round   []int // presets left in the current round
	n       int   // requests handed out
	issued  []request
	first   map[string][]request // preset name → its first requests, in order
}

func newMix(seed int64) *mix {
	return &mix{r: rand.New(rand.NewSource(seed)), presets: scenario.SpecPresets(), first: map[string][]request{}}
}

func (m *mix) next() request {
	m.n++
	if k := m.n % 5; k == 2 || k == 4 {
		return m.issued[m.r.Intn(len(m.issued))]
	}
	if len(m.round) == 0 {
		m.round = m.r.Perm(len(m.presets))
	}
	sp := m.presets[m.round[0]]
	m.round = m.round[1:]
	sp.Seed = m.r.Int63n(1<<31) + 1
	rq, err := newRequest(fmt.Sprintf("%s-%d", sp.Name, sp.Seed), &sp, 1)
	if err != nil {
		// The presets are valid Specs; failing to encode one is a bug.
		panic(err)
	}
	m.issued = append(m.issued, rq)
	m.first[sp.Name] = append(m.first[sp.Name], rq)
	return rq
}

// firstOfEach returns the first n issued requests of every preset, in
// preset order.
func (m *mix) firstOfEach(n int) []request {
	var out []request
	for _, p := range m.presets {
		out = append(out, m.first[p.Name][:min(n, len(m.first[p.Name]))]...)
	}
	return out
}

// resultOf returns the Result document of the first answer for key (nil
// when the key was never answered).
func (c *bodyChecker) resultOf(key string) []byte {
	c.mu.Lock()
	body := c.first[key]
	c.mu.Unlock()
	var env struct {
		Result json.RawMessage `json:"result"`
	}
	if body == nil || json.Unmarshal(body, &env) != nil {
		return nil
	}
	return env.Result
}
