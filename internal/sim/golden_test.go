package sim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"obm/internal/core"
	"obm/internal/mapping"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/stats"
	"obm/internal/workload"
)

// fpResult hashes the observable outcome of a simulation (FNV-1a over
// the counters and the per-application latencies' bit patterns), so the
// golden tests can assert bit-identical behaviour, not approximate
// agreement.
func fpResult(r Result) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v int64) { h ^= uint64(v); h *= 1099511628211 }
	mix(r.Net.Cycles)
	mix(r.Net.InjectedPackets)
	mix(r.Net.DeliveredPackets)
	mix(r.Net.FlitHops)
	mix(r.Net.QueuingSum)
	for _, a := range r.AppAPL {
		mix(int64(math.Float64bits(a)))
	}
	mix(int64(math.Float64bits(r.GlobalAPL)))
	return h
}

func goldenProblem(t *testing.T) (*core.Problem, core.Mapping) {
	t.Helper()
	lm := model.MustNew(mesh.MustNew(8, 8), model.DefaultParams())
	p, err := core.NewProblem(lm, workload.MustConfig("C1"))
	if err != nil {
		t.Fatal(err)
	}
	mp, err := mapping.MapAndCheck(context.Background(), mapping.SortSelectSwap{}, p)
	if err != nil {
		t.Fatal(err)
	}
	return p, mp
}

func goldenCfg() RateDrivenConfig {
	cfg := DefaultRateDrivenConfig()
	cfg.Seed = 7
	cfg.MeasureCycles = 20_000
	return cfg
}

// TestGoldenRateDriven pins the end-to-end simulation outcome for a
// fixed seed, with Bernoulli and with bursty injection. The Bernoulli
// fingerprint was captured from the pre-overhaul simulator (map-based
// event scheduling, full router scans, per-packet allocation), so it
// certifies that the calendar-queue rings, the active worklists, and
// the packet free list changed nothing observable.
func TestGoldenRateDriven(t *testing.T) {
	p, mp := goldenProblem(t)

	r, err := RateDriven(context.Background(), p, mp, goldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fpResult(r), uint64(11149828048932253940); got != want {
		t.Errorf("rate-driven fingerprint = %d, want %d", got, want)
	}

	burst := goldenCfg()
	burst.BurstFactor = 4
	rb, err := RateDriven(context.Background(), p, mp, burst)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fpResult(rb), uint64(12617254091024200703); got != want {
		t.Errorf("burst fingerprint = %d, want %d", got, want)
	}
}

// TestRunReplicasOrdering checks results come back in job order no
// matter how the workers interleave, and that every index is passed
// exactly once.
func TestRunReplicasOrdering(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	out, err := RunReplicas(context.Background(), 50, func(_ context.Context, i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	if out, err := RunReplicas[int](context.Background(), 0, nil); err != nil || out != nil {
		t.Fatalf("RunReplicas(0) = %v, %v, want nil, nil", out, err)
	}
}

// TestRunReplicasErrors checks failed jobs surface their errors while
// the rest still complete.
func TestRunReplicasErrors(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	bad := errors.New("job 3 failed")
	out, err := RunReplicas(context.Background(), 6, func(_ context.Context, i int) (int, error) {
		if i == 3 {
			return 0, bad
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "job 3 failed") {
		t.Fatalf("err = %v, want it to mention job 3", err)
	}
	if out[2] != 2 || out[4] != 4 {
		t.Fatalf("healthy jobs lost: %v", out)
	}
}

// TestRunReplicasRateDrivenDeterminism checks the two guarantees the
// experiments build on when they fan RateDriven jobs out over
// RunReplicas: a one-job batch is bit-identical to the serial RateDriven
// call, and a parallel N-job batch seeding job i with stream i equals N
// serial runs of those seeds.
func TestRunReplicasRateDrivenDeterminism(t *testing.T) {
	p, mp := goldenProblem(t)
	cfg := goldenCfg()
	cfg.MeasureCycles = 5_000
	replicas := func(n int) ([]Result, error) {
		return RunReplicas(context.Background(), n, func(ctx context.Context, i int) (Result, error) {
			c := cfg
			c.Seed = stats.SplitSeed(cfg.Seed, i)
			return RateDriven(ctx, p, mp, c)
		})
	}

	serial, err := RateDriven(context.Background(), p, mp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	one, err := replicas(1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fpResult(one[0]), fpResult(serial); got != want {
		t.Errorf("1-replica run fingerprint = %d, serial = %d", got, want)
	}

	const n = 3
	par, err := replicas(n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		c := cfg
		c.Seed = stats.SplitSeed(cfg.Seed, i)
		ref, err := RateDriven(context.Background(), p, mp, c)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fpResult(par[i]), fpResult(ref); got != want {
			t.Errorf("replica %d fingerprint = %d, serial reference = %d", i, got, want)
		}
		if !reflect.DeepEqual(par[i].AppAPL, ref.AppAPL) {
			t.Errorf("replica %d AppAPL = %v, want %v", i, par[i].AppAPL, ref.AppAPL)
		}
	}
	if fpResult(par[1]) == fpResult(par[0]) {
		t.Error("distinct replicas produced identical outcomes; seeds not propagating")
	}
}
