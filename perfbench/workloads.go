package main

import (
	"time"

	"obm/internal/service"
	"obm/internal/stats"
)

// Experiment sets. paperIDs are the paper's tables and figures whose
// envelopes hold no wall times (ablation and scaling are left out:
// their outputs include measured run times), except fig12: its 100×
// budget annealing sweep took 60% of a pass, too few passes fitted in a
// run, and run_s spread twice as wide. simIDs spend their time in the
// flit-level simulator; churnIDs in the streaming scheduler.
var (
	paperIDs = []string{"table1", "table3", "table4", "fig4", "fig5", "fig8", "fig9", "fig10", "gap", "seeds", "objective", "pareto"}
	simIDs   = []string{"validate", "loadsweep", "tail", "fig11", "congestion"}
	churnIDs = []string{"dynstream", "dynamic"}
)

// workloadDef is one set of inputs the benchmark drives through spawned
// daemons. A pass is one fresh daemon serving the whole job list; a run
// is a whole number of passes, so every run of a workload does the same
// work and its medians compare across runs.
type workloadDef struct {
	name string
	why  string
	// clients is the number of closed-loop clients, each on its own
	// connection.
	clients int
	// nominal is one pass's wall time on the 2-core host the benchmark
	// was tuned on; it turns --seconds into a pass count.
	nominal time.Duration
	// warm: every pass serves from a cache directory that paper-cold's
	// requests filled during set-up; otherwise each pass starts from an
	// empty one.
	warm bool
	// quick is the mapper budget the workload's jobs use, and so the one
	// the traced run's mapper probes use.
	quick bool
	jobs  func(seed uint64) []service.Request
}

// churnSeeds is how many timelines, each from a seed derived from the
// workload seed, one churn pass replays.
const churnSeeds = 2

// warmRounds is how many times one daemon-warm pass resubmits the
// paper request set.
const warmRounds = 20

var workloads = []workloadDef{
	{
		name: "paper-cold", clients: 1, nominal: 1700 * time.Millisecond,
		why:  "the paper's tables and figures at full budget, one job per experiment, on an empty cache: mapper compute and artifact writes",
		jobs: func(seed uint64) []service.Request { return perExperiment(paperIDs, seed, false) },
	},
	{
		name: "sim-sweep", clients: 1, nominal: 4500 * time.Millisecond, quick: true,
		why:  "flit-level NoC simulation experiments at quick budget: the simulator dominates and mapper inputs are few and cheap",
		jobs: func(seed uint64) []service.Request { return perExperiment(simIDs, seed, true) },
	},
	{
		name: "churn", clients: 1, nominal: 3200 * time.Millisecond, quick: true,
		why: "dynamic remapping over generated arrival/departure timelines: the streaming scheduler dominates and nothing is served from the store",
		jobs: func(seed uint64) []service.Request {
			var reqs []service.Request
			for i := 0; i < churnSeeds; i++ {
				reqs = append(reqs, perExperiment(churnIDs, stats.SplitSeed(seed, i), true)...)
			}
			return reqs
		},
	},
	{
		name: "daemon-warm", clients: 2, nominal: 2500 * time.Millisecond, warm: true,
		why: "paper-cold's requests resubmitted as many small jobs by 2 clients against a warm store: reads, queueing, HTTP and encoding",
		jobs: func(seed uint64) []service.Request {
			var reqs []service.Request
			for i := 0; i < warmRounds; i++ {
				reqs = append(reqs, perExperiment(paperIDs, seed, false)...)
			}
			return reqs
		},
	},
}

// perExperiment returns one request per experiment ID.
func perExperiment(ids []string, seed uint64, quick bool) []service.Request {
	reqs := make([]service.Request, len(ids))
	for i, id := range ids {
		reqs[i] = service.Request{Experiments: []string{id}, Seed: seed, Quick: quick}
	}
	return reqs
}

// minPasses keeps every median over at least three passes.
const minPasses = 3

// passCount sizes a run: as many passes as fit in seconds at the
// workload's nominal pass time, and at least minPasses. The count
// depends only on the arguments, never on measured speed, so a faster
// program does the same work in less time.
func passCount(w workloadDef, seconds int) int {
	n := int((time.Duration(seconds)*time.Second + w.nominal/2) / w.nominal)
	return max(n, minPasses)
}

// fidelityRequests are the reference runs behind the fidelity metrics:
// fig9 at full budget and validate plus dynstream at quick budget, all
// at the paper's default seed 1, so the metrics are the same whatever
// the workload seed.
func fidelityRequests() []service.Request {
	return []service.Request{
		{Experiments: []string{"fig9"}, Seed: 1},
		{Experiments: []string{"validate", "dynstream"}, Seed: 1, Quick: true},
	}
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
