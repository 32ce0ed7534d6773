package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on may change speed by more than the
// regressions it must catch: a shared VM's CPU slows by up to 2× for
// seconds to minutes at a time, as neighbours load it. End-to-end times
// are therefore reported at a reference host speed: the benchmark times
// a fixed CPU kernel of its own, which no change to the program can
// speed up, right before and after each daemon lives, and divides each
// time by the kernel's slowdown against calibRef. Records keep the raw
// times and the slowdowns.

const (
	// calibRef is the kernel's chunk time on the tuning host when it
	// runs fast; normalized times read as seconds on that host.
	calibRef = time.Millisecond
	// calibChunks is how many chunks one speed reading takes the
	// median of.
	calibChunks = 7
)

// calibSink keeps the kernel's result alive.
var calibSink atomic.Uint64

// calibChunk runs the kernel once: integer hashing into an L1-sized
// table, a floating-point reduction, and a branchy sort, the mix of
// work the mappers and the simulator do.
func calibChunk() time.Duration {
	start := time.Now()
	var tab [4096]uint64
	x := uint64(88172645463325252)
	for i := 0; i < 180_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		tab[x&4095] += x
	}
	var fs [2048]float64
	for i := range fs {
		fs[i] = float64(tab[i] >> 11)
	}
	acc := 0.0
	for r := 0; r < 60; r++ {
		for i := range fs {
			acc = acc*0.999 + fs[i]*1e-9
		}
	}
	sort.Float64s(fs[:])
	calibSink.Add(x + uint64(acc) + uint64(fs[7]))
	return time.Since(start)
}

// hostSlowdown reads the host's current speed as a multiple of
// calibRef: the kernel runs on two threads at once, one per vCPU of the
// 2-core host the daemon spreads over, and each thread reports its
// median chunk time over calibChunks chunks; the reading is their mean.
func hostSlowdown() float64 {
	var per [2]float64
	var wg sync.WaitGroup
	for t := range per {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			ts := make([]float64, calibChunks)
			for i := range ts {
				ts[i] = float64(calibChunk())
			}
			per[t] = median(ts)
		}(t)
	}
	wg.Wait()
	return (per[0] + per[1]) / 2 / float64(calibRef)
}
