package experiments

import (
	"context"
	"fmt"

	"obm/internal/model"
	"obm/internal/sched"
	"obm/internal/sim"
)

// streamScheme pairs a row label with a fully assembled stream
// configuration. Its one stateful part, the placement, belongs to the
// one job that runs it.
type streamScheme struct {
	name string
	cfg  sched.StreamConfig
}

// runStreams replays one timeline under every scheme, each scheme a
// job of its own on sim.RunReplicas, and returns the metrics in scheme
// order whatever the core count. open gives each job a private source
// of the timeline, and each job builds its own StreamRunner; the jobs
// share only read-only values (the latency model, the value-typed
// remappers and costs, and the applications a scenario points to,
// which the runner copies before placing). A scheme's error is
// prefixed "<exp> scheme <name>:".
func runStreams(ctx context.Context, exp string, lm *model.LatencyModel, schemes []streamScheme, open func() (sched.Source, error)) ([]sched.StreamMetrics, error) {
	mets, err := sim.RunReplicas(ctx, len(schemes), func(ctx context.Context, i int) (sched.StreamMetrics, error) {
		met, err := runStream(ctx, lm, schemes[i].cfg, open)
		if err != nil {
			return met, fmt.Errorf("%s scheme %s: %w", exp, schemes[i].name, err)
		}
		return met, nil
	})
	if err != nil {
		return nil, err
	}
	return mets, nil
}

// runStream replays a freshly opened timeline under one configuration.
func runStream(ctx context.Context, lm *model.LatencyModel, cfg sched.StreamConfig, open func() (sched.Source, error)) (sched.StreamMetrics, error) {
	src, err := open()
	if err != nil {
		return sched.StreamMetrics{}, err
	}
	r, err := sched.NewStreamRunner(lm, cfg)
	if err != nil {
		return sched.StreamMetrics{}, err
	}
	return r.Run(ctx, src)
}
