package main

import (
	"fmt"
	"math/rand"

	"repro/internal/scenario"
)

// The paper's fat-tree (§4.1): 4 pods × 2 ToRs, 2 aggs per pod, 2
// cores. servers_per_tor scales the host count.
const (
	fatTreeTors  = 8
	torsPerPod   = 2
	aggsPerPod   = 2
	paperSPT     = 32   // 256 hosts
	reconvergSPT = 1024 // 8192 hosts

	websearchTraceSeed = 1
)

// size scales a workload: fullSize is what the benchmark measures,
// tinySize is for the benchmark's own self-test.
type size struct {
	spt, pulses int // incast: servers per ToR, pulse count
	genUS       int64
	bigSPT      int // reconverge: servers per ToR
}

var (
	fullSize = size{spt: paperSPT, pulses: 4, genUS: 3_000, bigSPT: reconvergSPT}
	tinySize = size{spt: 2, pulses: 1, genUS: 100, bigSPT: 8}
)

// simWorkloadNames are the workloads driven through the library path.
var simWorkloadNames = []string{"incast", "websearch", "reconverge"}

// simJob generates the named sim workload's job from the seed.
func simJob(name string, seed int64, sz size) (job, error) {
	var sp scenario.Spec
	parts := 1
	switch name {
	case "incast":
		sp = incastSpec(seed, sz)
	case "websearch":
		sp, parts = websearchSpec(seed, sz), 2
	case "reconverge":
		sp = reconvergeSpec(seed, sz)
	default:
		return job{}, fmt.Errorf("unknown sim workload %q", name)
	}
	return newJob(name, sp, parts)
}

// incastSpec is Fig. 4's 255:1 incast, repeated as sequential pulses
// of 100 KB flows, each to a receiver in a different rack.
func incastSpec(seed int64, sz size) scenario.Spec {
	r := rand.New(rand.NewSource(seed))
	gapUS := int64(9_000 * sz.spt / paperSPT)
	racks := r.Perm(fatTreeTors)
	var traffic []scenario.TrafficSpec
	for k := 0; k < sz.pulses; k++ {
		rx := racks[k]*sz.spt + r.Intn(sz.spt)
		traffic = append(traffic, scenario.TrafficSpec{
			Kind:     "pulse",
			AtUS:     10 + int64(k)*gapUS,
			Receiver: &scenario.RefSpec{Kind: "host", I: rx},
			FanIn:    fatTreeTors*sz.spt - 1,
			FlowSize: 100_000,
			// An explicit sender span includes the receiver's own rack,
			// making the pulse a full 255:1.
			SpanFrom: &scenario.RefSpec{Kind: "host", I: 0},
		})
	}
	return scenario.Spec{
		V:         scenario.SpecVersion,
		Name:      "bench-incast",
		Seed:      seed,
		Scheme:    "powertcp",
		Topo:      scenario.TopoSpec{Kind: "fattree", ServersPerTor: sz.spt},
		Traffic:   traffic,
		HorizonUS: 10 + int64(sz.pulses)*gapUS,
	}
}

// torAggLink draws one ToR–agg link of the fat-tree.
func torAggLink(r *rand.Rand) (tor, agg int) {
	tor = r.Intn(fatTreeTors)
	agg = (tor/torsPerPod)*aggsPerPod + r.Intn(aggsPerPod)
	return tor, agg
}

func linkEvents(tor, agg int, failUS, restoreUS int64) []scenario.EventSpec {
	a := &scenario.SwitchRefSpec{Tier: "tor", I: tor}
	b := &scenario.SwitchRefSpec{Tier: "agg", I: agg}
	return []scenario.EventSpec{
		{Kind: "fail", AtUS: failUS, A: a, B: b},
		{Kind: "restore", AtUS: restoreUS, A: a, B: b},
	}
}

// websearchSpec is the web-search Poisson background at load 0.6 plus
// incast requests on the paper's fabric, with one ToR–agg link failed
// and restored mid-run, driven by two partition engines. The traffic
// trace is the same for every workload seed: web-search flow sizes are
// heavy-tailed, so a seeded trace would change the offered bytes, and
// with them the work, from seed to seed. The seed picks the link and
// when it fails.
func websearchSpec(seed int64, sz size) scenario.Spec {
	r := rand.New(rand.NewSource(seed))
	genUS := sz.genUS
	tor, agg := torAggLink(r)
	failUS := genUS/4 + r.Int63n(genUS/4)
	return scenario.Spec{
		V:      scenario.SpecVersion,
		Name:   "bench-websearch",
		Seed:   websearchTraceSeed,
		Scheme: "powertcp",
		Topo:   scenario.TopoSpec{Kind: "fattree", ServersPerTor: sz.spt},
		Traffic: []scenario.TrafficSpec{
			{Kind: "poisson", Load: 0.6, GenHorizonUS: genUS},
			{Kind: "requests", RequestRate: 4_000, RequestSize: 200_000, FanIn: 16, GenHorizonUS: genUS, SeedOffset: 1},
		},
		Events:       linkEvents(tor, agg, failUS, failUS+genUS/3),
		ReconvergeUS: 20,
		HorizonUS:    genUS + genUS/3,
	}
}

// reconvergeSpec is an 8192-host fat-tree carrying a handful of
// rack-pair flows while one ToR–agg link fails and is restored: the
// packet path idles and the routing control plane does the work.
func reconvergeSpec(seed int64, sz size) scenario.Spec {
	r := rand.New(rand.NewSource(seed))
	racks := r.Perm(fatTreeTors)
	tor, agg := torAggLink(r)
	return scenario.Spec{
		V:      scenario.SpecVersion,
		Name:   "bench-reconverge",
		Seed:   seed,
		Scheme: "powertcp",
		Topo:   scenario.TopoSpec{Kind: "fattree", ServersPerTor: sz.bigSPT},
		Traffic: []scenario.TrafficSpec{{
			Kind:     "rackpairs",
			FromRack: &scenario.RefSpec{Kind: "rack_start", Rack: racks[0]},
			ToRack:   &scenario.RefSpec{Kind: "rack_start", Rack: racks[1]},
			Count:    8,
			Size:     50_000,
		}},
		Events:       linkEvents(tor, agg, 20, 60),
		ReconvergeUS: 10,
		HorizonUS:    100,
	}
}
