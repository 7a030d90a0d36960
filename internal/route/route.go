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
// Forwarding state is kept per attachment group — the hosts that share
// one set of attachment switches, such as the servers of a rack — not
// per host. Every switch that is not attached to a group has the same
// equal-cost next hops toward all of its hosts, so a Router keeps one
// shared, read-only index from host NodeID to (group, slot), and each
// switch's Table holds one candidate list per group plus, on the
// group's attachment switches only, each host's direct port. Tables
// therefore cost O(switches × groups + hosts), and a rebuild runs one
// BFS per group and writes one entry per (reachable switch, group).
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

// Table is one switch's forwarding state, keyed by attachment group.
// The tables a Router manages share its index from host NodeID to
// (group, slot); each holds, per group, the candidate ports toward every
// host of the group, or — on a switch the group is attached to — each
// host's own direct port. swtch.Switch embeds a Table.
//
// A table no Router manages (a test fixture, a hand-wired core) is
// filled by SetRoute, which gives each destination a group of its own in
// an index private to the table. Both kinds are read by Route.
//
// Installed port slices may be shared by several tables and are never
// mutated; callers of Route must not modify them either.
type Table struct {
	at      []hostSlot // by destination NodeID; shared by a Router's tables
	groups  []groupRoute
	managed bool // at belongs to a Router, so SetRoute must not grow it
}

// hostSlot places one destination: its attachment group and its slot
// in the group. Group 0 is reserved and never installed, so the zero
// hostSlot marks a NodeID with no host.
type hostSlot struct{ group, slot int32 }

// groupRoute is a table's state toward one attachment group.
type groupRoute struct {
	ports  []int   // candidates toward every host of the group
	direct [][]int // per slot, the host's direct port; set only where the group is attached
}

// Route returns the candidate egress ports toward dst, nil when none is
// installed.
func (t *Table) Route(dst packet.NodeID) []int {
	if uint(dst) >= uint(len(t.at)) {
		return nil
	}
	e := t.at[dst]
	g := &t.groups[e.group]
	if g.direct != nil {
		return g.direct[e.slot]
	}
	return g.ports
}

// SetRoute installs ports as the candidates toward dst on a table no
// Router manages; it panics on one a Router does, whose index other
// tables share.
func (t *Table) SetRoute(dst packet.NodeID, ports []int) {
	if t.managed {
		panic(fmt.Sprintf("route: SetRoute(%d) on a table a Router manages", dst))
	}
	if n := int(dst) + 1; n > len(t.at) {
		t.at = append(t.at, make([]hostSlot, n-len(t.at))...)
	}
	if len(t.groups) == 0 {
		t.groups = make([]groupRoute, 1) // the reserved group 0
	}
	e := &t.at[dst]
	if e.group == 0 {
		*e = hostSlot{group: int32(len(t.groups))}
		t.groups = append(t.groups, groupRoute{})
	}
	t.groups[e.group].ports = ports
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
// strategy, the set of currently-failed links, and the switches' tables.
type Router struct {
	eng      *sim.Engine
	graph    [][]PortRef // per switch, per port
	tables   []*Table    // same order as graph
	strategy Strategy

	// sources lists, per attachment group, its attachment switches in
	// ascending order: the BFS sources of the group's routes. Entry 0,
	// the reserved group, is empty.
	sources  [][]int
	down     map[[2]int]bool // undirected switch pairs currently cut
	rebuilds int

	// Scratch reused across rebuilds.
	dist     []int
	frontier []int
	next     []int
	cand     []Candidate
	// arena is the chunked backing store installed tables are carved
	// from: one allocation per chunk instead of one per (switch, group)
	// pair. Chunks are never reset or reused within a router's lifetime,
	// so tables installed by earlier rebuilds — and the stale entries
	// partitioned switches keep — stay valid.
	arena []int
}

// attachment is one (host, switch) adjacency: the first port of switch
// sw, in port order, that faces host hi.
type attachment struct{ hi, sw, port int }

// NewRouter builds a router over the graph, takes over the tables and
// installs the initial routes. graph[i] lists switch i's egress ports in
// port order; tables[i] is switch i's table.
func NewRouter(eng *sim.Engine, graph [][]PortRef, tables []*Table, strategy Strategy) *Router {
	if strategy == nil {
		strategy = ECMP{}
	}
	r := &Router{
		eng:      eng,
		graph:    graph,
		tables:   tables,
		strategy: strategy,
		down:     map[[2]int]bool{},
		dist:     make([]int, len(graph)),
	}
	r.installDirect()
	r.Rebuild()
	return r
}

// installDirect partitions the hosts into attachment groups, points
// every table at the shared (group, slot) index, and installs each
// host's direct port on its attachment switches. Host links never fail,
// so direct ports are installed once, here. Host indices that no port
// faces (gaps) join no group and get no routes.
func (r *Router) installDirect() {
	var atts []attachment
	maxID := packet.NodeID(-1)
	for si, ports := range r.graph {
		for pi, ref := range ports {
			if ref.ToHost {
				atts = append(atts, attachment{ref.Host, si, pi})
				maxID = max(maxID, ref.HostID)
			}
		}
	}
	// Ordered by host, then switch, then port: each host's attachments
	// become one run, and the first of equal (host, switch) pairs is its
	// first facing port there.
	slices.SortStableFunc(atts, func(x, y attachment) int { return x.hi - y.hi })
	atts = slices.CompactFunc(atts, func(x, y attachment) bool { return x.hi == y.hi && x.sw == y.sw })
	runs := splitRuns(atts, func(x, y attachment) bool { return x.hi == y.hi })
	// Sorting by attachment-switch set makes each group a contiguous run;
	// the stable sort keeps hosts ascending within it.
	cmpSwitches := func(a, b []attachment) int {
		return slices.CompareFunc(a, b, func(x, y attachment) int { return x.sw - y.sw })
	}
	slices.SortStableFunc(runs, cmpSwitches)
	groups := splitRuns(runs, func(a, b []attachment) bool { return cmpSwitches(a, b) == 0 })

	at := make([]hostSlot, maxID+1)
	ng := len(groups) + 1
	all := make([]groupRoute, len(r.tables)*ng)
	for si, t := range r.tables {
		*t = Table{at: at, groups: all[si*ng : (si+1)*ng : (si+1)*ng], managed: true}
	}
	direct := make([][]int, len(atts))
	r.sources = make([][]int, ng)
	for i, hosts := range groups {
		g := i + 1
		for slot, run := range hosts {
			at[r.graph[run[0].sw][run[0].port].HostID] = hostSlot{int32(g), int32(slot)}
		}
		for k, a := range hosts[0] {
			r.sources[g] = append(r.sources[g], a.sw)
			d := direct[:len(hosts):len(hosts)]
			direct = direct[len(hosts):]
			for slot, run := range hosts {
				port := run[k].port
				r.cand = append(r.cand[:0], Candidate{Port: port, Rate: r.graph[a.sw][port].Link.Rate})
				d[slot] = r.expandInto(r.cand)
			}
			r.tables[a.sw].groups[g].direct = d
		}
	}
}

// splitRuns cuts s into its maximal runs of consecutive elements that
// same reports equal.
func splitRuns[T any](s []T, same func(a, b T) bool) [][]T {
	var runs [][]T
	for i := 0; i < len(s); {
		j := i + 1
		for j < len(s) && same(s[i], s[j]) {
			j++
		}
		runs = append(runs, s[i:j:j])
		i = j
	}
	return runs
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
// BFS per attachment group over the switch graph (skipping failed
// links), then, on every reachable switch not attached to the group,
// the equal-cost candidates expanded by the strategy and installed as
// the table's one entry for the group. Attached switches keep the direct
// ports NewRouter installed. Switches left with no path to a group keep
// their stale entry — pointing at a dead port that drops — mirroring a
// real partition rather than pretending the packet was never sent. A
// stale group entry is exact for each of the group's hosts, because the
// group's hosts were always installed together. Installed slices are
// never mutated and the arena chunks they live in are never reused, so
// stale and shared entries stay valid.
func (r *Router) Rebuild() {
	r.rebuilds++
	for g := 1; g < len(r.sources); g++ {
		r.rebuildGroup(g, r.sources[g])
	}
}

// rebuildGroup runs one BFS from group g's attachment switches srcs and
// installs the group's entry on every other reachable switch. A port's
// own down flag is the link state: FailLink and RestoreLink set it on
// both directions of every link between the pair.
func (r *Router) rebuildGroup(g int, srcs []int) {
	const inf = int(1e9)
	for i := range r.dist {
		r.dist[i] = inf
	}
	frontier, next := r.frontier[:0], r.next[:0]
	for _, si := range srcs {
		r.dist[si] = 1
		frontier = append(frontier, si)
	}
	for len(frontier) > 0 {
		next = next[:0]
		for _, si := range frontier {
			for _, ref := range r.graph[si] {
				if ref.ToHost || ref.Link.IsDown() {
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

	for si := range r.graph {
		if r.dist[si] == inf || r.dist[si] == 1 {
			continue // partitioned (keep the stale entry) or attached (direct ports)
		}
		r.cand = r.cand[:0]
		for pi, ref := range r.graph[si] {
			if !ref.ToHost && !ref.Link.IsDown() && r.dist[ref.Peer] == r.dist[si]-1 {
				r.cand = append(r.cand, Candidate{Port: pi, Rate: ref.Link.Rate})
			}
		}
		if ports := r.expandInto(r.cand); len(ports) > 0 {
			r.tables[si].groups[g].ports = ports
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
