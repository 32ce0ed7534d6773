package noc_test

import (
	"fmt"

	"obm/internal/noc"
)

// Send one 5-flit data reply across an idle 8x8 mesh: latency is
// exactly hops * (router + link) plus serialization.
func ExampleNetwork() {
	net := noc.MustNew(noc.DefaultConfig())
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
	cfg := noc.DefaultConfig()
	pt, err := noc.MeasureLoadPoint(cfg, noc.UniformRandom{}, 0.02, noc.SweepConfig{
		Cycles: 2000,
		Type:   noc.CacheRequest,
		Seed:   1,
	})
	if err != nil {
		panic(err)
	}
	zero, err := noc.ZeroLoadLatency(cfg, noc.UniformRandom{}, 100000, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("near zero-load bound: %v\n", pt.AvgLatency < zero*1.1)
	// Output:
	// near zero-load bound: true
}
