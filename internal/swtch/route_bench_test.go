package swtch_test

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/transport"
)

var routeSink []int

// BenchmarkSwitchRoute times one forwarding-table lookup, the per-packet
// cost of Switch.Receive before the flow hash, on the tables the route
// control plane installs into the paper's 256-host fat-tree. Each op
// looks up the next (switch, destination) pair, so ToRs' direct and
// uplink entries and aggregation and core entries are all exercised.
func BenchmarkSwitchRoute(b *testing.B) {
	net := topo.FatTree(topo.FatTreeConfig{Opts: topo.Options{
		Hosts: topo.TransportHosts(transport.Config{BaseRTT: 30 * sim.Microsecond}),
	}})
	hosts := packet.NodeID(len(net.Hosts))
	b.ReportAllocs()
	b.ResetTimer()
	si, dst := 0, packet.NodeID(0)
	for i := 0; i < b.N; i++ {
		routeSink = net.Switches[si].Route(dst)
		if dst++; dst == hosts {
			dst = 0
			if si++; si == len(net.Switches) {
				si = 0
			}
		}
	}
}
