// Package route is the routing control plane of the simulator. It
// computes forwarding tables over the switch graph a topology builder
// wires up and installs them into the switches, separating *how paths
// are chosen* (a pluggable Strategy: single-path, per-flow ECMP,
// capacity-weighted ECMP) from *how packets are forwarded* (the
// switches' table-driven data plane, which stays allocation-free).
//
// The package also models link failures: a Router can down and restore
// switch-to-switch links at scheduled simulation times. A failure cuts
// the wire immediately — packets serialized onto a downed link are lost
// at delivery time — while the routing tables reconverge only after a
// configurable control-plane delay, so schemes see the realistic
// black-holing window between a cut and the reroute.
//
// A rebuild costs one BFS per attachment group — the hosts that share
// one set of attachment switches, such as the servers of a rack — not
// one per host: every switch that is not attached to the group has the
// same equal-cost next hops toward all of its hosts, so its strategy
// output is computed once and installed for each of them. Installed
// slices are therefore shared; they are never mutated, and the arena
// chunks they are carved from are never reused.
//
// Determinism: path choice hashes the flow key (FlowHash) with no RNG,
// rebuilds walk switches and ports in index order, and failure events
// run on the simulation engine. Identical seeds therefore produce
// byte-identical results regardless of strategy or failure schedule.
package route

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/link"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/units"
)

// PortRef describes one egress port of a switch in the routing graph.
// Exactly one of ToHost/switch linkage applies: when ToHost is set the
// port faces host Host (node HostID); otherwise it faces switch Peer.
type PortRef struct {
	Link   *link.Port
	ToHost bool
	Host   int // peer host index (ToHost)
	HostID packet.NodeID
	Peer   int // peer switch index (!ToHost)
}

// Installer receives computed candidate port lists, keyed by destination
// node. *swtch.Switch implements it. An installed slice may be shared by
// several destinations and switches and is never mutated afterwards;
// installers must not modify it either.
type Installer interface {
	SetRoute(dst packet.NodeID, ports []int)
}

// Candidate is one equal-cost next hop offered to a Strategy.
type Candidate struct {
	Port int
	Rate units.BitRate
}

// Strategy turns the equal-cost candidate set for one (switch,
// destination) pair into the installed port list the switch hashes
// over. Expand runs on the control plane (topology build, reconvergence)
// and appends its ports to out, returning the extended slice — the
// Router carves tables out of one chunked arena instead of allocating a
// slice per (switch, destination) pair. The data plane only indexes the
// installed slice.
type Strategy interface {
	Name() string
	Expand(cand []Candidate, out []int) []int
}

// SinglePath always installs the lowest-indexed candidate — the
// deterministic shortest-path baseline that concentrates every flow of a
// destination onto one uplink.
type SinglePath struct{}

// Name implements Strategy.
func (SinglePath) Name() string { return "single" }

// Expand implements Strategy.
func (SinglePath) Expand(cand []Candidate, out []int) []int {
	if len(cand) == 0 {
		return out
	}
	best := cand[0].Port
	for _, c := range cand[1:] {
		if c.Port < best {
			best = c.Port
		}
	}
	return append(out, best)
}

// ECMP installs every equal-cost candidate; the switch spreads flows
// over them with FlowHash. This is the classic per-flow five-tuple ECMP
// of leaf-spine fabrics, hash imbalance included.
type ECMP struct{}

// Name implements Strategy.
func (ECMP) Name() string { return "ecmp" }

// Expand implements Strategy.
func (ECMP) Expand(cand []Candidate, out []int) []int {
	for _, c := range cand {
		out = append(out, c.Port)
	}
	return out
}

// WeightedECMP replicates each candidate proportionally to its link
// capacity (WCMP), so a spine with twice the bandwidth receives twice
// the hash space. Replication is normalized by the GCD of the
// capacities; when that would exceed MaxReplicas for some candidate,
// all weights are rescaled proportionally (every candidate keeps at
// least one entry) so extreme capacity ratios bound the table size
// without silently distorting the split.
type WeightedECMP struct {
	// MaxReplicas bounds the per-candidate replication factor; 0 means 16.
	MaxReplicas int
}

// Name implements Strategy.
func (WeightedECMP) Name() string { return "wecmp" }

// Expand implements Strategy.
func (w WeightedECMP) Expand(cand []Candidate, out []int) []int {
	if len(cand) == 0 {
		return out
	}
	cap := int64(w.MaxReplicas)
	if cap <= 0 {
		cap = 16
	}
	// Weights in whole Gbps (fabric rates are integral Gbps); a rate
	// below 1 Gbps still gets weight 1 so no candidate vanishes.
	g := int64(0)
	maxW := int64(0)
	var wbuf [16]int64
	weights := wbuf[:0]
	if len(cand) > len(wbuf) {
		weights = make([]int64, 0, len(cand))
	}
	weights = weights[:len(cand)]
	for i, c := range cand {
		weights[i] = int64(c.Rate / units.Gbps)
		if weights[i] < 1 {
			weights[i] = 1
		}
		g = gcd(g, weights[i])
		if weights[i] > maxW {
			maxW = weights[i]
		}
	}
	// When the GCD-normalized replication would exceed the cap, rescale
	// every weight proportionally (rounding, floor 1) instead of
	// clamping candidates independently — a 100G:3G pair must stay
	// ~33:1, not collapse to cap:3.
	scaleNum, scaleDen := int64(1), g
	if maxW/g > cap {
		scaleNum, scaleDen = cap, maxW
	}
	for i, c := range cand {
		n := (weights[i]*scaleNum + scaleDen/2) / scaleDen
		if n < 1 {
			n = 1
		}
		for k := int64(0); k < n; k++ {
			out = append(out, c.Port)
		}
	}
	return out
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Strategies lists the registered strategy names, sorted.
func Strategies() []string { return []string{"ecmp", "single", "wecmp"} }

// StrategyByName resolves a strategy name ("single", "ecmp", "wecmp").
// The empty name resolves to ECMP, the fabric default.
func StrategyByName(name string) (Strategy, error) {
	switch name {
	case "", "ecmp":
		return ECMP{}, nil
	case "single":
		return SinglePath{}, nil
	case "wecmp":
		return WeightedECMP{}, nil
	default:
		return nil, fmt.Errorf("route: unknown strategy %q (known: ecmp, single, wecmp)", name)
	}
}

// FlowHash is the deterministic per-flow ECMP key: a splitmix64-style
// mix over the flow's addressing tuple (source, destination, flow ID —
// the simulator's stand-in for the classic five-tuple). All switches
// share it, so a flow follows one path end to end, and reruns at the
// same seed follow the same paths.
func FlowHash(src, dst packet.NodeID, flow packet.FlowID) uint64 {
	x := uint64(flow)
	x ^= uint64(uint32(src))<<32 | uint64(uint32(dst))
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Router owns the routing control plane of one network: the graph, the
// strategy, the set of currently-failed links, and the installers
// (switches) that receive computed tables.
type Router struct {
	eng        *sim.Engine
	graph      [][]PortRef // per switch, per port
	installers []Installer // same order as graph
	strategy   Strategy

	hostIDs []packet.NodeID // host index → node ID
	// attach lists, per host index, the switches with a port facing the
	// host (ascending) and the first such port on each: its direct route
	// there. Host links never fail, so this is fixed at construction.
	attach [][]attachment
	// groups partitions the attached hosts by attachment-switch set:
	// one BFS per group serves every host in it.
	groups   [][]int
	down     map[[2]int]bool // undirected switch pairs currently cut
	rebuilds int

	// Scratch reused across rebuilds.
	dist     []int
	frontier []int
	next     []int
	cand     []Candidate
	// arena is the chunked backing store installed tables are carved
	// from: one allocation per chunk instead of one per (switch,
	// destination) pair. Chunks are never reset or reused within a
	// router's lifetime, so tables installed by earlier rebuilds — and
	// the stale entries partitioned switches keep — stay valid.
	arena []int
}

type attachment struct{ sw, port int }

// NewRouter builds a router over the graph and installs the initial
// tables. graph[i] lists switch i's egress ports in port order;
// installers[i] is the switch itself.
func NewRouter(eng *sim.Engine, graph [][]PortRef, installers []Installer, strategy Strategy) *Router {
	if strategy == nil {
		strategy = ECMP{}
	}
	r := &Router{
		eng:        eng,
		graph:      graph,
		installers: installers,
		strategy:   strategy,
		down:       map[[2]int]bool{},
		dist:       make([]int, len(graph)),
	}
	r.groupHosts()
	r.Rebuild()
	return r
}

// groupHosts indexes every host's attachments and partitions the hosts
// into attachment groups. Host indices that no port faces (gaps) join no
// group and get no routes.
func (r *Router) groupHosts() {
	for si, ports := range r.graph {
		for pi, ref := range ports {
			if !ref.ToHost {
				continue
			}
			if n := ref.Host + 1; n > len(r.attach) {
				r.attach = append(r.attach, make([][]attachment, n-len(r.attach))...)
				r.hostIDs = append(r.hostIDs, make([]packet.NodeID, n-len(r.hostIDs))...)
			}
			r.hostIDs[ref.Host] = ref.HostID
			a := r.attach[ref.Host]
			if len(a) == 0 || a[len(a)-1].sw != si {
				r.attach[ref.Host] = append(a, attachment{si, pi})
			}
		}
	}
	hosts := make([]int, 0, len(r.attach))
	for hi, a := range r.attach {
		if len(a) > 0 {
			hosts = append(hosts, hi)
		}
	}
	// Sorting by attachment-switch set makes each group a contiguous
	// run; the stable sort keeps hosts ascending within it.
	cmp := func(a, b int) int {
		return slices.CompareFunc(r.attach[a], r.attach[b], func(x, y attachment) int { return x.sw - y.sw })
	}
	slices.SortStableFunc(hosts, cmp)
	for i := 0; i < len(hosts); {
		j := i + 1
		for j < len(hosts) && cmp(hosts[i], hosts[j]) == 0 {
			j++
		}
		r.groups = append(r.groups, hosts[i:j:j])
		i = j
	}
}

// Strategy returns the active path-selection strategy.
func (r *Router) Strategy() Strategy { return r.strategy }

// Rebuilds counts control-plane table recomputations (1 after build).
func (r *Router) Rebuilds() int { return r.rebuilds }

// DownLinks returns the number of currently-failed links.
func (r *Router) DownLinks() int { return len(r.down) }

func linkKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// FailLink cuts the link between switches a and b in both directions:
// packets already serialized onto it are lost at delivery time and new
// transmissions are discarded. Routing tables are NOT recomputed —
// callers model control-plane reconvergence by calling Rebuild later
// (or by using Schedule, which does both with a delay).
func (r *Router) FailLink(a, b int) {
	r.down[linkKey(a, b)] = true
	r.setLinkDown(a, b, true)
}

// RestoreLink re-activates a failed link. As with FailLink, tables are
// recomputed only by an explicit Rebuild.
func (r *Router) RestoreLink(a, b int) {
	delete(r.down, linkKey(a, b))
	r.setLinkDown(a, b, false)
}

func (r *Router) setLinkDown(a, b int, down bool) {
	cut := 0
	for _, pair := range [2][2]int{{a, b}, {b, a}} {
		for _, ref := range r.graph[pair[0]] {
			if !ref.ToHost && ref.Peer == pair[1] {
				ref.Link.SetDown(down)
				cut++
			}
		}
	}
	if cut == 0 {
		// A failure script naming a non-existent link is a wiring bug in
		// the caller (local vs global switch indexes, usually); failing
		// loudly beats measuring an intact network as if it were cut.
		panic(fmt.Sprintf("route: switches %d and %d share no link", a, b))
	}
}

// LinkEvent is one scheduled link state change between two switches.
type LinkEvent struct {
	At   sim.Time
	A, B int
	Down bool
}

// Schedule arms the failure script on the engine: at each event's time
// the data plane changes immediately (FailLink/RestoreLink), and the
// routing tables reconverge one control-plane delay later — the window
// during which traffic hashed onto the dead path is black-holed.
func (r *Router) Schedule(events []LinkEvent, reconverge sim.Duration) {
	for _, ev := range events {
		ev := ev
		r.eng.At(ev.At, func() {
			if ev.Down {
				r.FailLink(ev.A, ev.B)
			} else {
				r.RestoreLink(ev.A, ev.B)
			}
			r.eng.After(reconverge, r.Rebuild)
		})
	}
}

// Rebuild recomputes every routing table from the current link state: a
// BFS per attachment group over the switch graph (skipping failed links),
// equal-cost candidates expanded by the strategy, installed into the
// switches. A switch attached to the group installs each host's own
// direct port; any other switch reachable from the group expands its
// candidates once and installs that one slice for every host of the
// group. Installed slices are never mutated and the arena chunks they
// live in are never reused, so the sharing is safe. Switches left with
// no path to a destination keep their stale entry — pointing at a dead
// port that drops — mirroring a real partition rather than pretending
// the packet was never sent.
func (r *Router) Rebuild() {
	r.rebuilds++
	for _, hosts := range r.groups {
		r.rebuildGroup(hosts)
	}
}

// rebuildGroup runs one BFS from the attachment switches shared by
// hosts and installs their tables.
func (r *Router) rebuildGroup(hosts []int) {
	const inf = int(1e9)
	for i := range r.dist {
		r.dist[i] = inf
	}
	frontier, next := r.frontier[:0], r.next[:0]
	for _, a := range r.attach[hosts[0]] {
		r.dist[a.sw] = 1
		frontier = append(frontier, a.sw)
	}
	for len(frontier) > 0 {
		next = next[:0]
		for _, si := range frontier {
			for _, ref := range r.graph[si] {
				if ref.ToHost || r.down[linkKey(si, ref.Peer)] {
					continue
				}
				if r.dist[ref.Peer] == inf {
					r.dist[ref.Peer] = r.dist[si] + 1
					next = append(next, ref.Peer)
				}
			}
		}
		frontier, next = next, frontier
	}
	r.frontier, r.next = frontier[:0], next[:0]

	for _, hi := range hosts {
		for _, a := range r.attach[hi] {
			r.cand = append(r.cand[:0], Candidate{Port: a.port, Rate: r.graph[a.sw][a.port].Link.Rate})
			r.installers[a.sw].SetRoute(r.hostIDs[hi], r.expandInto(r.cand))
		}
	}
	for si := range r.graph {
		if r.dist[si] == inf || r.dist[si] == 1 {
			continue // partitioned (keep the stale entries) or attached (direct routes above)
		}
		r.cand = r.cand[:0]
		for pi, ref := range r.graph[si] {
			if !ref.ToHost && !r.down[linkKey(si, ref.Peer)] && r.dist[ref.Peer] == r.dist[si]-1 {
				r.cand = append(r.cand, Candidate{Port: pi, Rate: ref.Link.Rate})
			}
		}
		if ports := r.expandInto(r.cand); len(ports) > 0 {
			for _, hi := range hosts {
				r.installers[si].SetRoute(r.hostIDs[hi], ports)
			}
		}
	}
}

// maxExpansion bounds how many ports a strategy can emit for n
// candidates, so the arena reserves enough headroom that Expand never
// reallocates mid-append.
func maxExpansion(s Strategy, n int) int {
	switch w := s.(type) {
	case SinglePath:
		return 1
	case ECMP:
		return n
	case WeightedECMP:
		m := int(w.MaxReplicas)
		if m <= 0 {
			m = 16
		}
		return m * n
	default:
		return 16 * n
	}
}

// expandInto runs the strategy over cand, carving the installed table
// out of the arena. The returned slice is capacity-capped, so later
// arena appends can never write through it.
func (r *Router) expandInto(cand []Candidate) []int {
	need := maxExpansion(r.strategy, len(cand))
	if cap(r.arena)-len(r.arena) < need {
		size := 4096
		if need > size {
			size = need
		}
		r.arena = make([]int, 0, size)
	}
	start := len(r.arena)
	r.arena = r.strategy.Expand(cand, r.arena)
	return r.arena[start:len(r.arena):len(r.arena)]
}

// PathSpread reports, for the given switch, how many distinct egress
// ports its installed table uses across all destinations — a quick
// diagnostic that multipath is actually engaged (tests use it to catch
// silent single-path fallbacks).
func PathSpread(table func(dst packet.NodeID) []int, dsts []packet.NodeID) []int {
	used := map[int]bool{}
	for _, d := range dsts {
		for _, p := range table(d) {
			used[p] = true
		}
	}
	out := make([]int, 0, len(used))
	for p := range used {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}
