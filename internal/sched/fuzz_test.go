package sched

import (
	"fmt"
	"testing"
	"time"

	"obm/internal/workload"
)

// FuzzStreamOverrides hardens the -stream spec, which reads untrusted
// text from the CLI and the HTTP job API: any spec that WithOverrides
// and Validate accept must build a generator that emits exactly Events
// events, promptly, at non-negative non-decreasing times, with every
// request rate finite and within workload.MaxRate.
func FuzzStreamOverrides(f *testing.F) {
	for _, s := range []string{
		"", "load=0.8,maxthreads=24",
		"load=0.8, gap=50, minthreads=4,maxthreads=24,appsigma=1.5,threadsigma=0.2",
		"load=1", "load=1e-9", "load=0", "load=-1", "load=NaN", "load=Inf",
		"gap=1", "gap=0.5", "gap=1e9", "gap=1e300", "gap=NaN", "gap=-Inf",
		"minthreads=1,maxthreads=1", "minthreads=64,maxthreads=64", "maxthreads=-5",
		"maxthreads=9223372036854775807",
		"appsigma=3.2,threadsigma=0", "appsigma=NaN", "threadsigma=1e6", "appsigma=-1",
		"load", "bogus=1",
	} {
		f.Add(s, uint16(500), uint8(64), uint64(1))
	}
	f.Fuzz(func(t *testing.T, spec string, events uint16, tiles uint8, seed uint64) {
		base := GenConfig{Events: int(events%2000) + 1, Tiles: int(tiles) + 1, Seed: seed}
		cfg, err := base.WithOverrides(spec)
		if err != nil || cfg.Validate() != nil {
			return
		}
		g, err := NewGenerator(cfg)
		if err != nil {
			t.Fatalf("%q: Validate accepted a config NewGenerator rejects: %v", spec, err)
		}
		done := make(chan error, 1)
		go func() { done <- drain(g, cfg.Events) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%q on %d tiles: %v", spec, cfg.Tiles, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%q on %d tiles: %d events not generated within 10s", spec, cfg.Tiles, cfg.Events)
		}
	})
}

// drain pulls every event from g and checks the stream's invariants.
func drain(g *Generator, want int) error {
	var n int
	var last int64
	for {
		e, ok := g.Next()
		if !ok {
			break
		}
		n++
		if e.Time < last {
			return fmt.Errorf("event %d at time %d before %d", n, e.Time, last)
		}
		last = e.Time
		if e.Arrive == nil {
			continue
		}
		for _, th := range e.Arrive.Threads {
			if !(th.CacheRate >= 0 && th.CacheRate <= workload.MaxRate && th.MemRate >= 0 && th.MemRate <= workload.MaxRate) {
				return fmt.Errorf("event %d rates (%g, %g) outside [0, %g]", n, th.CacheRate, th.MemRate, workload.MaxRate)
			}
		}
	}
	if n != want {
		return fmt.Errorf("emitted %d events, want %d", n, want)
	}
	if end := g.End(); end < last {
		return fmt.Errorf("End %d before last event %d", end, last)
	}
	return nil
}
