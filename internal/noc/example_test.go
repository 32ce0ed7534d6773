package noc_test

import (
	"fmt"

	"obm/internal/mesh"
	"obm/internal/noc"
)

// Send one 5-flit data reply across an idle 8x8 mesh: latency is
// exactly hops * (router + link) plus serialization.
func ExampleNetwork() {
	net := noc.MustNew(mesh.MustNew(8, 8))
	net.SetDeliveryHandler(func(p *noc.Packet) {
		fmt.Printf("delivered after %d cycles over %d hops\n", p.Latency(), p.Hops)
	})
	// Tile 0 is the top-left corner; tile 63 the bottom-right: 14 hops.
	if err := net.Inject(&noc.Packet{Src: 0, Dst: 63, Type: noc.CacheReply, App: 0}); err != nil {
		panic(err)
	}
	if err := net.Drain(1000); err != nil {
		panic(err)
	}
	// 14 hops x 4 cycles + 4 serialization cycles = 60.
	// Output:
	// delivered after 60 cycles over 14 hops
}

// Characterize the network under uniform random traffic.
func ExampleMeasureLoadPoint() {
	msh := mesh.MustNew(8, 8)
	pt, err := noc.MeasureLoadPoint(msh, noc.UniformRandom{}, 0.02, noc.SweepConfig{
		Cycles: 2000,
		Seed:   1,
	})
	if err != nil {
		panic(err)
	}
	zero, err := noc.ZeroLoadLatency(msh, noc.UniformRandom{}, 100000, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("near zero-load bound: %v\n", pt.AvgLatency < zero*1.1)
	// Output:
	// near zero-load bound: true
}
