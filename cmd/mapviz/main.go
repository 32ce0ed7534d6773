// Command mapviz maps a configuration with any of the algorithms and
// pretty-prints the resulting placement grid, per-application APLs and
// balance metrics.
//
// Usage:
//
//	mapviz -config C1 -algo sss
//	mapviz -config C4 -algo global,mc,sa,sss     # side by side metrics
//	mapviz -config C2 -algo sss -grid            # include the tile grid
//	mapviz -parsec canneal,x264,ferret,vips      # custom benchmark mix
//	mapviz -workload mix.json                    # user-defined workload
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"obm/internal/core"
	"obm/internal/mapping"
	"obm/internal/mesh"
	"obm/internal/model"
	"obm/internal/workload"
)

func mapperFor(name string, seed uint64) (mapping.Mapper, error) {
	switch strings.ToLower(name) {
	case "global":
		return mapping.Global{}, nil
	case "greedy":
		return mapping.Greedy{}, nil
	case "mc":
		return mapping.MonteCarlo{Samples: 10_000, Seed: seed}, nil
	case "sa":
		return mapping.Annealing{Iters: 18_000, Seed: seed}, nil
	case "clustersa":
		return mapping.ClusterSA{Seed: seed}, nil
	case "sss":
		return mapping.SortSelectSwap{}, nil
	case "sss-noswap":
		return mapping.SortSelectSwap{DisableSwap: true}, nil
	case "sss-multipass":
		return mapping.SortSelectSwap{Passes: 5}, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q (want global, greedy, mc, sa, clustersa, sss, sss-noswap, sss-multipass)", name)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool; factored out of main so the tests can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mapviz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		config = fs.String("config", "C1", "paper configuration C1..C8")
		wlPath = fs.String("workload", "", "JSON workload file (overrides -config; see workload.WriteJSON schema)")
		parsec = fs.String("parsec", "", "comma-separated PARSEC benchmark mix (overrides -config), e.g. canneal,x264,ferret,vips")
		algos  = fs.String("algo", "sss", "comma-separated algorithms (see mapperFor)")
		seed   = fs.Uint64("seed", 1, "random seed for stochastic algorithms")
		grid   = fs.Bool("grid", false, "print the application-to-tile grid per algorithm")
		n      = fs.Int("n", 8, "mesh dimension (n x n); workload is padded to fit")
		torus  = fs.Bool("torus", false, "use a torus latency model instead of a mesh")
		cap    = fs.Int("capacity", 1, "threads per tile (the paper footnote's generalization)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	msh, err := mesh.New(*n, *n)
	if err != nil {
		fmt.Fprintln(stderr, "mapviz:", err)
		return 2
	}
	var lm *model.LatencyModel
	if *torus {
		lm, err = model.NewTorus(msh, model.DefaultParams(), model.CornersPlacement(msh))
	} else {
		lm, err = model.New(msh, model.DefaultParams())
	}
	if err != nil {
		fmt.Fprintln(stderr, "mapviz:", err)
		return 2
	}

	var w *workload.Workload
	switch {
	case *parsec != "":
		names := strings.Split(*parsec, ",")
		w, err = workload.FromPARSEC(names, lm.NumTiles()/len(names), *seed)
	case *wlPath != "":
		var f *os.File
		f, err = os.Open(*wlPath)
		if err == nil {
			w, err = workload.ReadJSON(f)
			f.Close()
		}
	default:
		w, err = workload.Config(*config)
	}
	if err != nil {
		fmt.Fprintln(stderr, "mapviz:", err)
		return 2
	}
	if err := w.PadTo(lm.NumTiles() * *cap); err != nil {
		fmt.Fprintln(stderr, "mapviz:", err)
		return 2
	}
	p, err := core.NewProblemWithCapacity(lm, w, *cap)
	if err != nil {
		fmt.Fprintln(stderr, "mapviz:", err)
		return 2
	}

	tw := tabwriter.NewWriter(stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\tmax-APL\tdev-APL\tg-APL\tmin/max")
	for _, name := range strings.Split(*algos, ",") {
		m, err := mapperFor(strings.TrimSpace(name), *seed)
		if err != nil {
			fmt.Fprintln(stderr, "mapviz:", err)
			return 2
		}
		mp, err := mapping.MapAndCheck(context.Background(), m, p)
		if err != nil {
			fmt.Fprintln(stderr, "mapviz:", err)
			return 1
		}
		ev := p.Evaluate(mp)
		fmt.Fprintf(tw, "%s\t%.3f\t%.4f\t%.3f\t%.4f\n",
			m.Name(), ev.MaxAPL, ev.DevAPL, ev.GlobalAPL, ev.MinMaxRatio)
		if *grid {
			tw.Flush()
			for _, row := range p.AppGrid(mp) {
				fmt.Fprint(stdout, "  ")
				for _, v := range row {
					fmt.Fprintf(stdout, "%2d ", v)
				}
				fmt.Fprintln(stdout)
			}
			for i, apl := range ev.APLs {
				if p.AppWeight(i) > 0 {
					fmt.Fprintf(stdout, "  app %d (%s): APL %.3f\n", i+1, w.Apps[i].Name, apl)
				}
			}
		}
	}
	tw.Flush()
	return 0
}
