package sim

import (
	"context"
	"fmt"

	"obm/internal/cache"
	"obm/internal/core"
	"obm/internal/engine"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/noc"
	"obm/internal/stats"
)

// CacheDrivenConfig configures a closed-loop full-hierarchy simulation.
type CacheDrivenConfig struct {
	// Noc configures the network; zero selects the default resized to
	// the problem's mesh.
	Noc noc.Config
	// Cache configures the memory system; zero selects
	// cache.DefaultConfig for the problem size.
	Cache cache.Config
	// Stream shapes the synthetic address streams; zero selects
	// cache.DefaultStreamConfig.
	Stream cache.StreamConfig
	// Cycles is the simulated duration (injection stops, then drains).
	Cycles int64
	// MSHRs bounds each thread's outstanding misses (default 4).
	MSHRs int
	// BaseIssueProb scales how often a thread attempts an access per
	// cycle before rate weighting (default 0.5).
	BaseIssueProb float64
	// Seed drives streams and issue timing.
	Seed uint64
}

// DefaultCacheDrivenConfig returns a window that exercises all traffic
// kinds within a second of host time.
func DefaultCacheDrivenConfig() CacheDrivenConfig {
	return CacheDrivenConfig{
		Cycles:        100_000,
		MSHRs:         4,
		BaseIssueProb: 0.5,
		Seed:          1,
	}
}

// CacheStats reports closed-loop memory-system behaviour.
type CacheStats struct {
	// Accesses and L1Misses count thread references.
	Accesses, L1Misses uint64
	// L2Hits and L2Misses count bank lookups.
	L2Hits, L2Misses uint64
	// Forwards counts coherence forward/invalidate packets.
	Forwards uint64
	// MemRequests counts controller fetches.
	MemRequests uint64
	// L1Writebacks counts dirty L1 evictions sent to their bank;
	// L2Writebacks counts dirty data leaving the chip (bank eviction or
	// a writeback arriving for a block the bank no longer holds).
	L1Writebacks, L2Writebacks uint64
}

// L1MissRate returns the fraction of accesses missing in L1.
func (s CacheStats) L1MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.L1Misses) / float64(s.Accesses)
}

// CacheDrivenResult extends Result with memory-system statistics.
type CacheDrivenResult struct {
	Result
	Cache CacheStats
}

// request context attached to packets via UserData.
type reqCtx struct {
	thread int
	addr   uint64
	write  bool
}

// CacheDriven runs the closed-loop simulation of problem p's workload
// under mapping m: every thread walks a synthetic address stream through
// a private L1; misses travel the network to the address-hashed L2 bank;
// bank misses travel on to the nearest memory controller; replies and
// coherence forwards flow back. Thread issue rates are weighted by the
// workload's cache rates so heavy applications stay heavy.
// Cancellation: the cycle and drain loops poll ctx every
// simPollMask+1 cycles and return a wrapped ctx.Err() when it fires
// without perturbing the streams of an uncancelled run.
func CacheDriven(ctx context.Context, p *core.Problem, m core.Mapping, cfg CacheDrivenConfig) (CacheDrivenResult, error) {
	if err := m.Validate(p.N()); err != nil {
		return CacheDrivenResult{}, fmt.Errorf("sim: %w", err)
	}
	if cfg.Cycles <= 0 {
		return CacheDrivenResult{}, fmt.Errorf("sim: need positive cycle count")
	}
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 4
	}
	if cfg.BaseIssueProb <= 0 {
		cfg.BaseIssueProb = 0.5
	}
	if p.Capacity() != 1 {
		return CacheDrivenResult{}, fmt.Errorf("sim: closed-loop mode models one thread per tile (capacity %d unsupported)", p.Capacity())
	}
	msh := p.Model().Mesh()
	n := p.N()
	ncfg := cfg.Noc
	if ncfg == (noc.Config{}) {
		ncfg = noc.DefaultConfig()
		ncfg.Rows, ncfg.Cols = msh.Rows(), msh.Cols()
		ncfg.Torus = p.Model().Topology() == model.TopologyTorus
	}
	ccfg := cfg.Cache
	if ccfg == (cache.Config{}) {
		ccfg = cache.DefaultConfig(n)
	}
	scfg := cfg.Stream
	if scfg == (cache.StreamConfig{}) {
		scfg = cache.DefaultStreamConfig()
	}
	net, err := noc.New(ncfg)
	if err != nil {
		return CacheDrivenResult{}, err
	}
	if err := ccfg.Validate(); err != nil {
		return CacheDrivenResult{}, err
	}

	// Build the hierarchy.
	rng := stats.NewRand(cfg.Seed)
	l1s := make([]*cache.SetAssoc, n)   // per tile
	banks := make([]*cache.Bank, n)     // per tile
	streams := make([]*cache.Stream, n) // per thread
	outstanding := make([]int, n)       // per thread
	issueProb := make([]float64, n)
	placement := p.Model().Placement()
	mcs := make(map[mesh.Tile]*cache.MemoryController)
	for _, c := range placement.Tiles() {
		mcs[c] = cache.NewMemoryController(ccfg, int(c))
	}
	var maxRate float64
	for j := 0; j < n; j++ {
		if r := p.CacheRate(j); r > maxRate {
			maxRate = r
		}
	}
	for t := 0; t < n; t++ {
		l1, err := cache.NewSetAssoc(ccfg.L1Size, ccfg.L1Ways, ccfg.BlockSize)
		if err != nil {
			// The L1 geometry comes from the caller's CacheDrivenConfig, so
			// a bad shape is an input error, not an invariant violation.
			return CacheDrivenResult{}, fmt.Errorf("sim: l1 config: %w", err)
		}
		l1s[t] = l1
		b, err := cache.NewBank(ccfg, t)
		if err != nil {
			return CacheDrivenResult{}, err
		}
		banks[t] = b
	}
	for j := 0; j < n; j++ {
		app := p.AppOfThread(j)
		// Threads of one application share a region; private regions are
		// disjoint per thread.
		privBase := uint64(1+j) << 32
		sharedBase := uint64(1+n+app) << 32
		s, err := cache.NewStream(scfg, ccfg.BlockSize, privBase, sharedBase, rng.Split())
		if err != nil {
			return CacheDrivenResult{}, err
		}
		streams[j] = s
		if maxRate > 0 {
			issueProb[j] = cfg.BaseIssueProb * p.CacheRate(j) / maxRate
		} else {
			issueProb[j] = cfg.BaseIssueProb
		}
	}

	var cs CacheStats
	type pendingSend struct {
		pkt *noc.Packet
	}
	sendAt := make(map[int64][]pendingSend)
	schedule := func(at int64, pkt *noc.Packet) {
		// The flush for the current cycle has already run by the time a
		// delivery handler executes, so anything due now (or earlier)
		// must land in the next cycle's bucket or it would be orphaned.
		if at <= net.Cycle() {
			at = net.Cycle() + 1
		}
		sendAt[at] = append(sendAt[at], pendingSend{pkt})
	}
	tileOfThread := m // mapping: thread -> tile
	threadOfTile := m.InverseOn(n)

	// MSHR merging. threadMiss[j] holds the blocks thread j is already
	// waiting on — a re-reference merges instead of issuing a duplicate
	// request. bankMiss[t] holds each bank's outstanding fetches with the
	// contexts waiting on them, so concurrent misses to one block fetch
	// from memory once.
	threadMiss := make([]map[uint64]bool, n)
	for j := range threadMiss {
		threadMiss[j] = make(map[uint64]bool)
	}
	bankMiss := make([]map[uint64][]reqCtx, n)
	for t := range bankMiss {
		bankMiss[t] = make(map[uint64][]reqCtx)
	}

	net.SetDeliveryHandler(func(pkt *noc.Packet) {
		now := net.Cycle()
		switch pkt.Type {
		case noc.CacheRequest:
			ctx := pkt.UserData.(reqCtx)
			bank := banks[pkt.Dst]
			res := bank.Access(ctx.addr, int(pkt.Src), ctx.write)
			for _, fwd := range res.Forwards {
				cs.Forwards++
				schedule(now+int64(ccfg.L2Latency), &noc.Packet{
					Src: pkt.Dst, Dst: mesh.Tile(fwd), Type: noc.CacheForward,
					App: pkt.App, UserData: ctx,
				})
			}
			if res.Hit {
				cs.L2Hits++
				schedule(now+int64(ccfg.L2Latency), &noc.Packet{
					Src: pkt.Dst, Dst: pkt.Src, Type: noc.CacheReply,
					App: pkt.App, UserData: ctx,
				})
			} else {
				cs.L2Misses++
				block := ccfg.BlockAddr(ctx.addr)
				waiting := bankMiss[pkt.Dst][block]
				bankMiss[pkt.Dst][block] = append(waiting, ctx)
				if len(waiting) > 0 {
					break // fetch already in flight; merge
				}
				cs.MemRequests++
				mcTile, _ := placement.Nearest(msh, pkt.Dst)
				schedule(now+int64(ccfg.L2Latency), &noc.Packet{
					Src: pkt.Dst, Dst: mcTile, Type: noc.MemRequest,
					App: pkt.App, UserData: reqCtx{thread: ctx.thread, addr: ctx.addr, write: ctx.write},
				})
			}
		case noc.MemRequest:
			ctx := pkt.UserData.(reqCtx)
			mc := mcs[pkt.Dst]
			ready := mc.Submit(now)
			// Data returns to the bank that asked.
			schedule(ready, &noc.Packet{
				Src: pkt.Dst, Dst: pkt.Src, Type: noc.MemReply,
				App: pkt.App, UserData: ctx,
			})
		case noc.MemReply:
			ctx := pkt.UserData.(reqCtx)
			bank := banks[pkt.Dst]
			block := ccfg.BlockAddr(ctx.addr)
			// Answer every context merged onto this fetch.
			waiters := bankMiss[pkt.Dst][block]
			delete(bankMiss[pkt.Dst], block)
			if len(waiters) == 0 {
				waiters = []reqCtx{ctx}
			}
			for _, w := range waiters {
				origTile := tileOfThread[w.thread]
				_, evDirty, wasEv := bank.Fill(w.addr, int(origTile))
				if wasEv && evDirty {
					// Dirty L2 victim leaves the chip.
					cs.L2Writebacks++
					mcTile, _ := placement.Nearest(msh, pkt.Dst)
					schedule(now+int64(ccfg.L2Latency), &noc.Packet{
						Src: pkt.Dst, Dst: mcTile, Type: noc.Writeback,
						App: pkt.App, UserData: w,
					})
				}
				schedule(now+int64(ccfg.L2Latency), &noc.Packet{
					Src: pkt.Dst, Dst: origTile, Type: noc.CacheReply,
					App: p.AppOfThread(w.thread), UserData: w,
				})
			}
		case noc.CacheReply:
			ctx := pkt.UserData.(reqCtx)
			tile := tileOfThread[ctx.thread]
			if pkt.Dst == tile {
				evicted, evDirty, wasEv := l1s[tile].InsertDirty(ctx.addr, ctx.write)
				if wasEv && evDirty {
					// Dirty L1 victim returns to its home bank.
					cs.L1Writebacks++
					bankTile := mesh.Tile(ccfg.BankOf(evicted))
					schedule(now, &noc.Packet{
						Src: tile, Dst: bankTile, Type: noc.Writeback,
						App: pkt.App, UserData: reqCtx{thread: ctx.thread, addr: evicted, write: true},
					})
				}
				delete(threadMiss[ctx.thread], ccfg.BlockAddr(ctx.addr))
				outstanding[ctx.thread]--
			}
		case noc.CacheForward:
			// A forward invalidates or downgrades the L1 copy it reaches.
			ctx := pkt.UserData.(reqCtx)
			if th := threadOfTile[pkt.Dst]; th >= 0 && ctx.write {
				l1s[pkt.Dst].Invalidate(ctx.addr)
			}
		case noc.Writeback:
			ctx := pkt.UserData.(reqCtx)
			if _, isMC := mcs[pkt.Dst]; isMC {
				break // data left the chip; nothing more to do
			}
			bank := banks[pkt.Dst]
			if !bank.ReceiveWriteback(ctx.addr, int(pkt.Src)) {
				// Bank no longer holds the block: forward to memory.
				cs.L2Writebacks++
				mcTile, _ := placement.Nearest(msh, pkt.Dst)
				schedule(now+int64(ccfg.L2Latency), &noc.Packet{
					Src: pkt.Dst, Dst: mcTile, Type: noc.Writeback,
					App: pkt.App, UserData: ctx,
				})
			}
		}
	})
	flush := func(now int64) error {
		if due, ok := sendAt[now]; ok {
			for _, s := range due {
				if err := net.Inject(s.pkt); err != nil {
					return err
				}
			}
			delete(sendAt, now)
		}
		return nil
	}

	rep := engine.StartStage(ctx, "sim")
	for cyc := int64(0); cyc < cfg.Cycles; cyc++ {
		if cyc&simPollMask == simPollMask {
			if err := ctx.Err(); err != nil {
				return CacheDrivenResult{}, fmt.Errorf("sim: interrupted after %d/%d cycles: %w", cyc, cfg.Cycles, err)
			}
			rep.Report(int(cyc), int(cfg.Cycles))
		}
		now := net.Cycle()
		if err := flush(now); err != nil {
			return CacheDrivenResult{}, err
		}
		for j := 0; j < n; j++ {
			if outstanding[j] >= cfg.MSHRs {
				continue
			}
			if rng.Float64() >= issueProb[j] {
				continue
			}
			acc := streams[j].Next()
			tile := tileOfThread[j]
			cs.Accesses++
			if l1s[tile].Lookup(acc.Addr) {
				if acc.Write {
					l1s[tile].MarkDirty(acc.Addr)
				}
				continue // L1 hit: no network traffic
			}
			if threadMiss[j][ccfg.BlockAddr(acc.Addr)] {
				continue // miss already outstanding: MSHR merge
			}
			cs.L1Misses++
			threadMiss[j][ccfg.BlockAddr(acc.Addr)] = true
			outstanding[j]++
			bankTile := mesh.Tile(ccfg.BankOf(acc.Addr))
			pkt := &noc.Packet{
				Src: tile, Dst: bankTile, Type: noc.CacheRequest,
				App: p.AppOfThread(j), UserData: reqCtx{thread: j, addr: acc.Addr, write: acc.Write},
			}
			if err := net.Inject(pkt); err != nil {
				return CacheDrivenResult{}, err
			}
		}
		net.Step()
	}
	// Drain outstanding transactions.
	deadline := net.Cycle() + 500_000
	for net.Busy() || len(sendAt) > 0 {
		if net.Cycle()&simPollMask == simPollMask {
			if err := ctx.Err(); err != nil {
				return CacheDrivenResult{}, fmt.Errorf("sim: interrupted during drain at cycle %d: %w", net.Cycle(), err)
			}
		}
		if net.Cycle() >= deadline {
			return CacheDrivenResult{}, fmt.Errorf("sim: closed-loop drain exceeded %d cycles", 500_000)
		}
		if err := flush(net.Cycle()); err != nil {
			return CacheDrivenResult{}, err
		}
		net.Step()
	}
	return CacheDrivenResult{
		Result: summarize(net.Stats(), p.NumApps()),
		Cache:  cs,
	}, nil
}
