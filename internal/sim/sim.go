// Package sim drives the flit-level NoC with CMP traffic, standing in
// for the loop the paper closes with Simics+GEMS+Garnet: threads on
// tiles issue shared-cache and memory-controller requests, banks and
// controllers answer them, and per-application packet latency
// statistics come out.
//
// RateDriven is the one driver: threads inject requests as Bernoulli
// processes at exactly the per-thread rates (c_j, m_j) of the OBM
// problem; L2 banks and the corner memory controllers generate the
// replies. It feeds the network the same statistics the analytic model
// consumes, so measured APLs validate the model and the power numbers
// (Figure 11) reflect each mapping.
package sim

import (
	"context"
	"fmt"

	"obm/internal/core"
	"obm/internal/engine"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/noc"
	"obm/internal/stats"
)

// simPollMask sets how often the cycle loops poll cancellation (every
// simPollMask+1 cycles — cheap relative to a network step, fine-grained
// enough that a cancelled simulation unwinds within microseconds).
const simPollMask = 4095

// CyclesPerRateUnit converts the paper's request rates (requests per
// microsecond at the 2 GHz clock of Table 2) into per-cycle injection
// probabilities: rate r means r/2000 requests per cycle.
const CyclesPerRateUnit = 2000

// Memory-system latencies of Table 2, in cycles: an L2 bank access, an
// off-chip access, and the minimum gap between requests entering
// service at one memory controller.
const (
	l2Latency  = 6
	memLatency = 128
	memGap     = 4
)

// memController is one corner memory controller: a FIFO served at one
// request per memGap cycles, each completing memLatency cycles after it
// enters service.
type memController struct {
	nextStart int64 // earliest cycle the next request may enter service
}

// Submit enqueues a request at cycle now and returns the cycle its data
// is ready to be sent back on-chip.
func (mc *memController) Submit(now int64) (ready int64) {
	start := max(now, mc.nextStart)
	mc.nextStart = start + memGap
	return start + memLatency
}

// Result carries everything an experiment reads from one simulation.
type Result struct {
	// Net is the final network statistics snapshot.
	Net noc.Stats
	// AppAPL is the measured average packet latency per application.
	AppAPL []float64
	// MaxAPL and DevAPL summarize AppAPL over applications that sent
	// packets.
	MaxAPL, DevAPL float64
	// GlobalAPL is the volume-weighted mean latency over all packets.
	GlobalAPL float64
	// Cycles is the simulated duration including drain.
	Cycles int64
}

func summarize(net noc.Stats, numApps int) Result {
	res := Result{Net: net, AppAPL: make([]float64, numApps)}
	var active []float64
	for a := 0; a < numApps; a++ {
		res.AppAPL[a] = net.AppAPL(a)
		if a < len(net.ByApp) && net.ByApp[a].Packets > 0 {
			active = append(active, res.AppAPL[a])
		}
	}
	if len(active) > 0 {
		res.MaxAPL = stats.MustMax(active)
		res.DevAPL = stats.StdDev(active)
	}
	res.GlobalAPL = net.AvgLatency()
	res.Cycles = net.Cycles
	return res
}

// RateDrivenConfig configures an open-loop simulation of a mapped
// problem.
type RateDrivenConfig struct {
	// Noc configures the network; zero value selects noc.DefaultConfig
	// resized to the problem's mesh.
	Noc noc.Config
	// WarmupCycles run before statistics collection starts (the
	// counters reset at the end of warmup). The network starts empty,
	// so paper-scale loads need no warmup; provided for steady-state
	// measurements at higher loads.
	WarmupCycles int64
	// MeasureCycles is the measured injection window.
	MeasureCycles int64
	// DrainCycles bounds the post-injection drain.
	DrainCycles int64
	// Seed drives the Bernoulli injectors.
	Seed uint64
	// BurstFactor switches injection from memoryless Bernoulli to a
	// two-state on/off (Markov-modulated) process: during ON phases a
	// thread injects at BurstFactor times its mean rate and is silent
	// otherwise, with the duty cycle chosen so the long-run rate is
	// unchanged. 0 or 1 keeps the Bernoulli default; real applications
	// burst, and burstiness stresses queuing without changing means.
	BurstFactor float64
	// BurstLen is the mean ON-phase length in cycles (default 200).
	BurstLen float64
}

// DefaultRateDrivenConfig returns a measurement window long enough for
// every application to deliver thousands of packets at Table 3 rates.
func DefaultRateDrivenConfig() RateDrivenConfig {
	return RateDrivenConfig{
		MeasureCycles: 200_000,
		DrainCycles:   100_000,
		Seed:          1,
	}
}

// RateDriven simulates problem p under mapping m and returns measured
// statistics.
//
// Traffic model per thread j on tile pi(j): with probability c_j/2000
// per cycle the thread issues a shared-cache transaction — a 1-flit
// request to a uniformly random L2 bank (the address-interleaving of
// Figure 2), answered by a 5-flit data reply after the bank's access
// latency; with probability m_j/2000 it issues a memory transaction — a
// 1-flit request to the nearest corner controller, answered by a 5-flit
// reply after the 128-cycle memory latency. Both directions are
// attributed to the thread's application, matching the paper's
// per-application APL accounting.
// Cancellation: the cycle and drain loops poll ctx every
// simPollMask+1 cycles and return a wrapped ctx.Err() when it fires;
// the polls never touch the injector's random stream, so an
// uncancelled run is bit-identical for any context.
func RateDriven(ctx context.Context, p *core.Problem, m core.Mapping, cfg RateDrivenConfig) (Result, error) {
	if err := m.Validate(p.N()); err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	msh := p.Model().Mesh()
	ncfg := cfg.Noc
	if ncfg == (noc.Config{}) {
		ncfg = noc.DefaultConfig()
		ncfg.Rows = msh.Rows()
		ncfg.Cols = msh.Cols()
		ncfg.Torus = p.Model().Topology() == model.TopologyTorus
	}
	if ncfg.Rows != msh.Rows() || ncfg.Cols != msh.Cols() {
		return Result{}, fmt.Errorf("sim: NoC %dx%d does not match problem mesh %v", ncfg.Rows, ncfg.Cols, msh)
	}
	if cfg.MeasureCycles <= 0 {
		return Result{}, fmt.Errorf("sim: need positive measurement window")
	}
	net, err := noc.New(ncfg)
	if err != nil {
		return Result{}, err
	}

	// Reply generation: when a request arrives, schedule the reply after
	// the service latency.
	type pendingReply struct {
		at  int64
		pkt *noc.Packet
	}
	replies := make(map[int64][]pendingReply)
	placement := p.Model().Placement()
	mcs := make(map[mesh.Tile]*memController)
	for _, c := range placement.Tiles() {
		mcs[c] = &memController{}
	}
	net.SetDeliveryHandler(func(pkt *noc.Packet) {
		switch pkt.Type {
		case noc.CacheRequest:
			at := net.Cycle() + l2Latency
			reply := net.AllocPacket()
			reply.Src, reply.Dst, reply.Type, reply.App = pkt.Dst, pkt.Src, noc.CacheReply, pkt.App
			replies[at] = append(replies[at], pendingReply{at, reply})
		case noc.MemRequest:
			mc := mcs[pkt.Dst]
			at := mc.Submit(net.Cycle())
			reply := net.AllocPacket()
			reply.Src, reply.Dst, reply.Type, reply.App = pkt.Dst, pkt.Src, noc.MemReply, pkt.App
			replies[at] = append(replies[at], pendingReply{at, reply})
		}
	})
	flush := func(now int64) error {
		if due, ok := replies[now]; ok {
			for _, r := range due {
				if err := net.Inject(r.pkt); err != nil {
					return err
				}
			}
			delete(replies, now)
		}
		return nil
	}

	rng := stats.NewRand(cfg.Seed)
	n := p.N()
	// Per-thread invariants of the cycle loop: per-cycle injection
	// probabilities, source tile, nearest memory controller and
	// application.
	pc := make([]float64, n)
	pm := make([]float64, n)
	srcs := make([]mesh.Tile, n)
	mcOf := make([]mesh.Tile, n)
	apps := make([]int, n)
	for j := 0; j < n; j++ {
		pc[j] = p.CacheRate(j) / CyclesPerRateUnit
		pm[j] = p.MemRate(j) / CyclesPerRateUnit
		srcs[j] = p.TileOfSlot(m[j])
		mcOf[j], _ = placement.Nearest(msh, srcs[j])
		apps[j] = p.AppOfThread(j)
	}
	// Optional on/off burst modulation: scale rates up during ON phases
	// and gate them off otherwise, preserving the long-run mean.
	burst := cfg.BurstFactor > 1
	var on []bool
	var pOffOn, pOnOff float64
	if burst {
		bl := cfg.BurstLen
		if bl <= 0 {
			bl = 200
		}
		pOnOff = 1 / bl
		// Duty cycle 1/BurstFactor: mean OFF length = bl*(factor-1).
		pOffOn = 1 / (bl * (cfg.BurstFactor - 1))
		on = make([]bool, n)
		for j := range on {
			on[j] = rng.Float64() < 1/cfg.BurstFactor
		}
		for j := 0; j < n; j++ {
			pc[j] *= cfg.BurstFactor
			pm[j] *= cfg.BurstFactor
		}
	}

	rep := engine.StartStage(ctx, "sim")
	total := cfg.WarmupCycles + cfg.MeasureCycles
	for cyc := int64(0); cyc < total; cyc++ {
		if cyc&simPollMask == simPollMask {
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("sim: interrupted after %d/%d cycles: %w", cyc, total, err)
			}
			rep.Report(int(cyc), int(total))
		}
		if cyc == cfg.WarmupCycles && cyc > 0 {
			net.ResetStats()
		}
		now := net.Cycle()
		if err := flush(now); err != nil {
			return Result{}, err
		}
		for j := 0; j < n; j++ {
			if burst {
				if on[j] {
					if rng.Float64() < pOnOff {
						on[j] = false
					}
				} else if rng.Float64() < pOffOn {
					on[j] = true
				}
				if !on[j] {
					continue
				}
			}
			if pc[j] > 0 && rng.Float64() < pc[j] {
				pkt := net.AllocPacket() // recycled after delivery; nothing retains it
				pkt.Src = srcs[j]
				pkt.Dst = mesh.Tile(rng.Intn(msh.NumTiles())) // uniform bank hash
				pkt.Type, pkt.App = noc.CacheRequest, apps[j]
				if err := net.Inject(pkt); err != nil {
					return Result{}, err
				}
			}
			if pm[j] > 0 && rng.Float64() < pm[j] {
				pkt := net.AllocPacket()
				pkt.Src, pkt.Dst = srcs[j], mcOf[j]
				pkt.Type, pkt.App = noc.MemRequest, apps[j]
				if err := net.Inject(pkt); err != nil {
					return Result{}, err
				}
			}
		}
		net.Step()
	}
	// Drain: keep flushing replies until the network and reply queues are
	// empty.
	drain := cfg.DrainCycles
	if drain <= 0 {
		drain = 100_000
	}
	deadline := net.Cycle() + drain
	for net.Busy() || len(replies) > 0 {
		if net.Cycle()&simPollMask == simPollMask {
			if err := ctx.Err(); err != nil {
				return Result{}, fmt.Errorf("sim: interrupted during drain at cycle %d: %w", net.Cycle(), err)
			}
		}
		if net.Cycle() >= deadline {
			return Result{}, fmt.Errorf("sim: network failed to drain within %d cycles", drain)
		}
		if err := flush(net.Cycle()); err != nil {
			return Result{}, err
		}
		net.Step()
	}
	return summarize(net.Stats(), p.NumApps()), nil
}
