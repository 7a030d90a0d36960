package route

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestStrategyByName(t *testing.T) {
	for name, want := range map[string]string{
		"": "ecmp", "ecmp": "ecmp", "single": "single", "wecmp": "wecmp",
	} {
		s, err := StrategyByName(name)
		if err != nil {
			t.Fatalf("StrategyByName(%q): %v", name, err)
		}
		if s.Name() != want {
			t.Fatalf("StrategyByName(%q).Name() = %q, want %q", name, s.Name(), want)
		}
	}
	if _, err := StrategyByName("bogus"); err == nil {
		t.Fatal("unknown strategy did not error")
	}
}

func TestSinglePathPicksLowestPort(t *testing.T) {
	got := SinglePath{}.Expand([]Candidate{{Port: 3}, {Port: 1}, {Port: 2}}, nil)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("SinglePath expanded to %v, want [1]", got)
	}
	if got := (SinglePath{}).Expand(nil, nil); got != nil {
		t.Fatalf("SinglePath on empty candidates = %v", got)
	}
}

func TestECMPKeepsAllCandidates(t *testing.T) {
	got := ECMP{}.Expand([]Candidate{{Port: 0}, {Port: 2}, {Port: 5}}, nil)
	if len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 5 {
		t.Fatalf("ECMP expanded to %v", got)
	}
}

func TestWeightedECMPReplicatesByCapacity(t *testing.T) {
	got := WeightedECMP{}.Expand([]Candidate{
		{Port: 0, Rate: 100 * units.Gbps},
		{Port: 1, Rate: 50 * units.Gbps},
	}, nil)
	// GCD(100, 50) = 50 → port 0 twice, port 1 once.
	if len(got) != 3 || got[0] != 0 || got[1] != 0 || got[2] != 1 {
		t.Fatalf("WCMP expanded to %v, want [0 0 1]", got)
	}
	// Equal capacities degrade to plain ECMP.
	eq := WeightedECMP{}.Expand([]Candidate{
		{Port: 0, Rate: 100 * units.Gbps},
		{Port: 1, Rate: 100 * units.Gbps},
	}, nil)
	if len(eq) != 2 {
		t.Fatalf("equal-rate WCMP expanded to %v", eq)
	}
	// Extreme ratios are capped so tables stay bounded.
	capped := WeightedECMP{MaxReplicas: 4}.Expand([]Candidate{
		{Port: 0, Rate: 400 * units.Gbps},
		{Port: 1, Rate: 1 * units.Gbps},
	}, nil)
	n0 := 0
	for _, p := range capped {
		if p == 0 {
			n0++
		}
	}
	if n0 != 4 {
		t.Fatalf("replication cap ignored: %v", capped)
	}
}

func TestFlowHashDeterministicAndSpreads(t *testing.T) {
	if FlowHash(1, 2, 3) != FlowHash(1, 2, 3) {
		t.Fatal("hash is not a function of its inputs")
	}
	if FlowHash(1, 2, 3) == FlowHash(2, 1, 3) {
		t.Fatal("hash ignores direction")
	}
	buckets := [4]int{}
	for f := packet.FlowID(0); f < 256; f++ {
		buckets[FlowHash(7, 9, f)%4]++
	}
	for i, n := range buckets {
		if n == 0 {
			t.Fatalf("bucket %d empty across 256 flows: %v", i, buckets)
		}
	}
}

// tableStub records the reference's routes, one entry per destination.
type tableStub struct{ routes map[packet.NodeID][]int }

func newTableStub() *tableStub { return &tableStub{routes: map[packet.NodeID][]int{}} }

func (ts *tableStub) SetRoute(dst packet.NodeID, ports []int) { ts.routes[dst] = ports }

// diamond builds the minimal multipath graph: host 0 on switch 0, host 1
// on switch 3, two disjoint two-hop paths 0-1-3 and 0-2-3.
func diamond(eng *sim.Engine) ([][]PortRef, []*Table) {
	port := func(rate units.BitRate) *link.Port { return link.NewPort(eng, rate, 0, nil) }
	g := [][]PortRef{
		{ // switch 0: host 0, then uplinks to 1 and 2
			{Link: port(25 * units.Gbps), ToHost: true, Host: 0, HostID: 100},
			{Link: port(100 * units.Gbps), Peer: 1},
			{Link: port(100 * units.Gbps), Peer: 2},
		},
		{ // switch 1
			{Link: port(100 * units.Gbps), Peer: 0},
			{Link: port(100 * units.Gbps), Peer: 3},
		},
		{ // switch 2
			{Link: port(100 * units.Gbps), Peer: 0},
			{Link: port(100 * units.Gbps), Peer: 3},
		},
		{ // switch 3: host 1, then uplinks
			{Link: port(25 * units.Gbps), ToHost: true, Host: 1, HostID: 101},
			{Link: port(100 * units.Gbps), Peer: 1},
			{Link: port(100 * units.Gbps), Peer: 2},
		},
	}
	return g, newTables(len(g))
}

func newTables(n int) []*Table {
	out := make([]*Table, n)
	for i := range out {
		out[i] = &Table{}
	}
	return out
}

func TestRouterInstallsECMPAndReconverges(t *testing.T) {
	eng := sim.New()
	g, tables := diamond(eng)
	r := NewRouter(eng, g, tables, ECMP{})

	if got := tables[0].Route(101); len(got) != 2 {
		t.Fatalf("switch 0 ECMP candidates for host 1 = %v, want 2", got)
	}
	if got := tables[0].Route(100); len(got) != 1 || got[0] != 0 {
		t.Fatalf("switch 0 direct route = %v, want [0]", got)
	}

	// Cut 0–1: the wire goes down instantly, tables only after Rebuild.
	r.FailLink(0, 1)
	if !g[0][1].Link.IsDown() || !g[1][0].Link.IsDown() {
		t.Fatal("failed link's ports are not down in both directions")
	}
	if got := tables[0].Route(101); len(got) != 2 {
		t.Fatalf("tables changed before reconvergence: %v", got)
	}
	r.Rebuild()
	if got := tables[0].Route(101); len(got) != 1 || got[0] != 2 {
		t.Fatalf("post-failure route = %v, want [2] (via switch 2)", got)
	}
	// Switch 1 is still reachable from switch 3's side and keeps a path.
	if got := tables[1].Route(101); len(got) != 1 || got[0] != 1 {
		t.Fatalf("switch 1 route after failure = %v", got)
	}

	r.RestoreLink(0, 1)
	r.Rebuild()
	if got := tables[0].Route(101); len(got) != 2 {
		t.Fatalf("restored route = %v, want 2 candidates", got)
	}
	if g[0][1].Link.IsDown() {
		t.Fatal("restored link still down")
	}
	if r.Rebuilds() != 3 { // initial + failure + restore
		t.Fatalf("rebuilds = %d", r.Rebuilds())
	}
}

func TestRouterPartitionKeepsStaleRoute(t *testing.T) {
	eng := sim.New()
	g, tables := diamond(eng)
	r := NewRouter(eng, g, tables, ECMP{})
	// Cut both paths out of switch 0: it is partitioned from host 1.
	r.FailLink(0, 1)
	r.FailLink(0, 2)
	r.Rebuild()
	// The stale entry remains — packets black-hole on the dead port
	// instead of panicking on a missing route.
	if got := tables[0].Route(101); len(got) == 0 {
		t.Fatal("partition erased the stale route")
	}
	if r.DownLinks() != 2 {
		t.Fatalf("down links = %d", r.DownLinks())
	}
}

func TestRouterScheduleRunsOnEngine(t *testing.T) {
	eng := sim.New()
	g, tables := diamond(eng)
	r := NewRouter(eng, g, tables, ECMP{})
	fail, restore := sim.Time(100*sim.Microsecond), sim.Time(300*sim.Microsecond)
	r.Schedule([]LinkEvent{
		{At: fail, A: 0, B: 1, Down: true},
		{At: restore, A: 0, B: 1, Down: false},
	}, 50*sim.Microsecond)

	eng.RunUntil(sim.Time(120 * sim.Microsecond))
	if !g[0][1].Link.IsDown() {
		t.Fatal("link not cut at its scheduled time")
	}
	if got := tables[0].Route(101); len(got) != 2 {
		t.Fatal("tables reconverged before the control-plane delay")
	}
	eng.RunUntil(sim.Time(200 * sim.Microsecond))
	if got := tables[0].Route(101); len(got) != 1 {
		t.Fatalf("tables did not reconverge after the delay: %v", got)
	}
	eng.RunUntil(sim.Time(400 * sim.Microsecond))
	if g[0][1].Link.IsDown() {
		t.Fatal("link not restored")
	}
	if got := tables[0].Route(101); len(got) != 2 {
		t.Fatalf("tables did not reconverge after restore: %v", got)
	}
}

func TestWeightedStrategyInstallsReplicatedTables(t *testing.T) {
	eng := sim.New()
	g, tables := diamond(eng)
	// Make the 0→2 path twice as fat as 0→1.
	g[0][1].Link.Rate = 50 * units.Gbps
	g[0][2].Link.Rate = 100 * units.Gbps
	NewRouter(eng, g, tables, WeightedECMP{})
	got := tables[0].Route(101)
	n1, n2 := 0, 0
	for _, p := range got {
		switch p {
		case 1:
			n1++
		case 2:
			n2++
		}
	}
	if n1 != 1 || n2 != 2 {
		t.Fatalf("weighted table = %v, want port 2 twice and port 1 once", got)
	}
}

func TestFailLinkOnNonAdjacentPairPanics(t *testing.T) {
	eng := sim.New()
	g, tables := diamond(eng)
	r := NewRouter(eng, g, tables, ECMP{})
	defer func() {
		if recover() == nil {
			t.Fatal("failing a non-existent link did not panic")
		}
	}()
	r.FailLink(1, 2) // switches 1 and 2 share no link in the diamond
}

// referenceRebuild computes the tables the direct way, with no
// attachment groups: one BFS per destination host, seeded by scanning
// every port of every switch, candidates expanded into fresh slices. It
// installs into tables under the given down set and is the oracle
// TestRebuildMatchesPerHostReference compares the Router against.
func referenceRebuild(graph [][]PortRef, down map[[2]int]bool, strategy Strategy, tables []*tableStub) {
	var hostIDs []packet.NodeID
	for _, ports := range graph {
		for _, ref := range ports {
			if ref.ToHost {
				for len(hostIDs) <= ref.Host {
					hostIDs = append(hostIDs, 0)
				}
				hostIDs[ref.Host] = ref.HostID
			}
		}
	}
	const inf = int(1e9)
	dist := make([]int, len(graph))
	for hi, dst := range hostIDs {
		for i := range dist {
			dist[i] = inf
		}
		var frontier []int
		for si := range graph {
			for _, ref := range graph[si] {
				if ref.ToHost && ref.Host == hi {
					dist[si] = 1
					frontier = append(frontier, si)
				}
			}
		}
		for len(frontier) > 0 {
			var next []int
			for _, si := range frontier {
				for _, ref := range graph[si] {
					if ref.ToHost || down[linkKey(si, ref.Peer)] {
						continue
					}
					if dist[ref.Peer] == inf {
						dist[ref.Peer] = dist[si] + 1
						next = append(next, ref.Peer)
					}
				}
			}
			frontier = next
		}
		for si := range graph {
			if dist[si] == inf {
				continue
			}
			var cand []Candidate
			direct := false
			for pi, ref := range graph[si] {
				if ref.ToHost && ref.Host == hi {
					cand = append(cand[:0], Candidate{Port: pi, Rate: ref.Link.Rate})
					direct = true
					break
				}
				if !ref.ToHost && !down[linkKey(si, ref.Peer)] && dist[ref.Peer] == dist[si]-1 {
					cand = append(cand, Candidate{Port: pi, Rate: ref.Link.Rate})
				}
			}
			if len(cand) == 0 {
				continue
			}
			ports := strategy.Expand(cand, nil)
			if direct || len(ports) > 0 {
				tables[si].SetRoute(dst, ports)
			}
		}
	}
}

// fabric is a routing graph plus the switch pairs a failure script may
// cut.
type fabric struct {
	name  string
	graph [][]PortRef
	pairs [][2]int // adjacent switch pairs, each once, a < b
}

// fabricBuilder appends ports to a graph under construction.
type fabricBuilder struct {
	eng   *sim.Engine
	graph [][]PortRef
	pairs map[[2]int]bool
}

func newFabricBuilder(eng *sim.Engine, switches int) *fabricBuilder {
	return &fabricBuilder{eng: eng, graph: make([][]PortRef, switches), pairs: map[[2]int]bool{}}
}

func (fb *fabricBuilder) host(si, hi int, rate units.BitRate) {
	fb.graph[si] = append(fb.graph[si], PortRef{
		Link: link.NewPort(fb.eng, rate, 0, nil), ToHost: true, Host: hi, HostID: packet.NodeID(hi),
	})
}

func (fb *fabricBuilder) wire(a, b int, rate units.BitRate) {
	fb.graph[a] = append(fb.graph[a], PortRef{Link: link.NewPort(fb.eng, rate, 0, nil), Peer: b})
	fb.graph[b] = append(fb.graph[b], PortRef{Link: link.NewPort(fb.eng, rate, 0, nil), Peer: a})
	fb.pairs[linkKey(a, b)] = true
}

func (fb *fabricBuilder) fabric(name string) fabric {
	f := fabric{name: name, graph: fb.graph}
	for a := range fb.graph {
		for b := a + 1; b < len(fb.graph); b++ {
			if fb.pairs[[2]int{a, b}] {
				f.pairs = append(f.pairs, [2]int{a, b})
			}
		}
	}
	return f
}

// fatTreeGraph wires the graph topo.FatTree builds: ToRs, then
// aggregation switches, then cores; each ToR's servers first in its port
// order, then ToR–agg links within a pod, then every agg to every core.
func fatTreeGraph(eng *sim.Engine, pods, torsPerPod, aggsPerPod, cores, serversPerTor int) fabric {
	nTors, nAggs := pods*torsPerPod, pods*aggsPerPod
	fb := newFabricBuilder(eng, nTors+nAggs+cores)
	hi := 0
	for t := 0; t < nTors; t++ {
		for s := 0; s < serversPerTor; s++ {
			fb.host(t, hi, 25*units.Gbps)
			hi++
		}
	}
	for p := 0; p < pods; p++ {
		for t := 0; t < torsPerPod; t++ {
			for a := 0; a < aggsPerPod; a++ {
				fb.wire(p*torsPerPod+t, nTors+p*aggsPerPod+a, 100*units.Gbps)
			}
		}
	}
	for a := 0; a < nAggs; a++ {
		for c := 0; c < cores; c++ {
			fb.wire(nTors+a, nTors+nAggs+c, 100*units.Gbps)
		}
	}
	return fb.fabric(fmt.Sprintf("fattree-%dx%dx%dx%d-%d", pods, torsPerPod, aggsPerPod, cores, serversPerTor))
}

// randomFabric draws an irregular graph: parallel switch–switch links,
// mixed rates (so weighted ECMP differs from ECMP), hosts on one to three
// switches, some reached by two parallel ports of one switch, and host
// indices with gaps. Ports are appended in random order, so host ports
// and switch ports interleave.
func randomFabric(eng *sim.Engine, rng *rand.Rand, seed int) fabric {
	rates := []units.BitRate{10 * units.Gbps, 25 * units.Gbps, 50 * units.Gbps, 100 * units.Gbps, 400 * units.Gbps}
	rate := func() units.BitRate { return rates[rng.Intn(len(rates))] }
	nsw := 2 + rng.Intn(10)
	fb := newFabricBuilder(eng, nsw)
	type op struct {
		host   bool
		a, b   int
		hi     int
		double bool
	}
	var ops []op
	for a := 0; a < nsw; a++ {
		for b := a + 1; b < nsw; b++ {
			if rng.Float64() < 0.35 {
				ops = append(ops, op{a: a, b: b})
				if rng.Float64() < 0.25 {
					ops = append(ops, op{a: a, b: b}) // parallel link
				}
			}
		}
	}
	hi := 0
	for n := 1 + rng.Intn(30); n > 0; n-- {
		hi += 1 + rng.Intn(2)*rng.Intn(3) // gaps in host indices
		homes := 1
		if x := rng.Float64(); x < 0.05 {
			homes = 3
		} else if x < 0.3 {
			homes = 2
		}
		for _, si := range rng.Perm(nsw)[:min(homes, nsw)] {
			ops = append(ops, op{host: true, a: si, hi: hi, double: rng.Float64() < 0.15})
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for _, o := range ops {
		switch {
		case !o.host:
			fb.wire(o.a, o.b, rate())
		case o.double:
			fb.host(o.a, o.hi, rate())
			fb.host(o.a, o.hi, rate())
		default:
			fb.host(o.a, o.hi, rate())
		}
	}
	return fb.fabric(fmt.Sprintf("random-%d", seed))
}

// sameTables compares the router's tables against the reference through
// the switch lookup, for every destination from -1 to past the largest
// host ID, so a missing entry and an extra one both fail.
func sameTables(t *testing.T, label string, got []*Table, want []*tableStub, maxID packet.NodeID) {
	t.Helper()
	for si := range want {
		for dst := packet.NodeID(-1); dst <= maxID+1; dst++ {
			g := got[si].Route(dst)
			w, ok := want[si].routes[dst]
			if (g != nil) != ok || !slices.Equal(g, w) {
				t.Fatalf("%s: switch %d dst %d = %v, reference %v (installed %v)", label, si, dst, g, w, ok)
			}
		}
	}
}

// maxHostID is the largest host NodeID in the graph.
func maxHostID(graph [][]PortRef) packet.NodeID {
	m := packet.NodeID(-1)
	for _, ports := range graph {
		for _, ref := range ports {
			if ref.ToHost {
				m = max(m, ref.HostID)
			}
		}
	}
	return m
}

// TestRebuildMatchesPerHostReference is the route-table differential
// test: on fat-trees and irregular fabrics, under every strategy, each
// installed (switch, destination) table must equal the per-host
// reference's after the initial build and after every step of a random
// fail/restore script. Scripts isolate whole switches, so partitioned
// switches' stale entries are compared too.
func TestRebuildMatchesPerHostReference(t *testing.T) {
	strategies := []Strategy{SinglePath{}, ECMP{}, WeightedECMP{}, WeightedECMP{MaxReplicas: 3}}
	shapes := []func(eng *sim.Engine, rng *rand.Rand, seed int) fabric{
		func(eng *sim.Engine, _ *rand.Rand, _ int) fabric { return fatTreeGraph(eng, 2, 1, 1, 1, 1) },
		func(eng *sim.Engine, _ *rand.Rand, _ int) fabric { return fatTreeGraph(eng, 4, 2, 2, 2, 4) },
		func(eng *sim.Engine, _ *rand.Rand, _ int) fabric { return fatTreeGraph(eng, 3, 3, 2, 4, 5) },
		func(eng *sim.Engine, _ *rand.Rand, _ int) fabric { return fatTreeGraph(eng, 4, 2, 2, 2, 32) },
	}
	for seed := 0; seed < 80; seed++ {
		shapes = append(shapes, randomFabric)
	}
	for seed, shape := range shapes {
		for _, strategy := range strategies {
			rng := rand.New(rand.NewSource(int64(seed)))
			eng := sim.New()
			f := shape(eng, rng, seed)
			got := newTables(len(f.graph))
			want := make([]*tableStub, len(f.graph))
			for i := range want {
				want[i] = newTableStub()
			}
			maxID := maxHostID(f.graph)
			r := NewRouter(eng, f.graph, got, strategy)
			down := map[[2]int]bool{}
			referenceRebuild(f.graph, down, strategy, want)
			label := fmt.Sprintf("%s/%s%+v", f.name, strategy.Name(), strategy)
			sameTables(t, label+" initial", got, want, maxID)
			if len(f.pairs) == 0 {
				continue
			}
			for step := 0; step < 16; step++ {
				switch x := rng.Float64(); {
				case x < 0.2: // isolate one switch: everything behind it partitions
					si := rng.Intn(len(f.graph))
					for _, p := range f.pairs {
						if (p[0] == si || p[1] == si) && !down[p] {
							r.FailLink(p[0], p[1])
							down[p] = true
						}
					}
				case x < 0.3: // restore everything
					for _, p := range f.pairs {
						if down[p] {
							r.RestoreLink(p[0], p[1])
							delete(down, p)
						}
					}
				default: // toggle one link
					p := f.pairs[rng.Intn(len(f.pairs))]
					if down[p] {
						r.RestoreLink(p[0], p[1])
						delete(down, p)
					} else {
						r.FailLink(p[0], p[1])
						down[p] = true
					}
				}
				r.Rebuild()
				if r.DownLinks() != len(down) {
					t.Fatalf("%s step %d: DownLinks() = %d, want %d", label, step, r.DownLinks(), len(down))
				}
				referenceRebuild(f.graph, down, strategy, want)
				sameTables(t, fmt.Sprintf("%s step %d (%d links down)", label, step, len(down)), got, want, maxID)
			}
		}
	}
}

// TestNewRouterAllocation bounds what building the routes of the
// benchmark's 8192-host fat-tree allocates: route state is sized by
// attachment groups (8 here), plus one index slot and one direct port
// per host, not by switches × hosts.
func TestNewRouterAllocation(t *testing.T) {
	eng := sim.New()
	f := fatTreeGraph(eng, 4, 2, 2, 2, 1024)
	tables := newTables(len(f.graph))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	NewRouter(eng, f.graph, tables, ECMP{})
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 4 {
		t.Fatalf("NewRouter on the 8192-host fat-tree allocated %.1f MB, want < 4 MB", mb)
	}
}

func TestSetRouteOnManagedTablePanics(t *testing.T) {
	eng := sim.New()
	g, tables := diamond(eng)
	NewRouter(eng, g, tables, ECMP{})
	defer func() {
		if recover() == nil {
			t.Fatal("SetRoute on a router-managed table did not panic")
		}
	}()
	tables[1].SetRoute(100, []int{0})
}

// BenchmarkRouterRebuild times one full reconvergence on three shapes:
// the benchmark's 8192-host fat-tree (8 ToRs of 1024 servers, the
// reconverge workload's fabric), the 10,240-host Scale_FatTree10k
// fabric (256 ToRs, so 256 attachment groups set the cost) and a
// 40,000-host single-switch star, the oversized-request shape.
func BenchmarkRouterRebuild(b *testing.B) {
	star := func(eng *sim.Engine, hosts int) fabric {
		fb := newFabricBuilder(eng, 1)
		for hi := 0; hi < hosts; hi++ {
			fb.host(0, hi, 25*units.Gbps)
		}
		return fb.fabric("star")
	}
	for _, bc := range []struct {
		name  string
		build func(*sim.Engine) fabric
	}{
		{"fattree8192", func(eng *sim.Engine) fabric { return fatTreeGraph(eng, 4, 2, 2, 2, 1024) }},
		{"fattree10k", func(eng *sim.Engine) fabric { return fatTreeGraph(eng, 16, 16, 8, 16, 40) }},
		{"star40k", func(eng *sim.Engine) fabric { return star(eng, 40000) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eng := sim.New()
			f := bc.build(eng)
			r := NewRouter(eng, f.graph, newTables(len(f.graph)), ECMP{})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Rebuild()
			}
		})
	}
}
