package experiments

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"obm/internal/core"
	"obm/internal/mesh"
)

// TestCapacityPinned pins every number the capacity experiment derives
// from its chip: each mapper's mapping and the bits of its evaluation,
// and the random baseline's bits, at the quick and the full budget.
// The pins were recorded when the chip was a Problem with two threads
// per tile; they hold for any construction of the chip that every
// mapper sees the same way.
func TestCapacityPinned(t *testing.T) {
	for _, c := range []struct {
		quick bool
		want  string
	}{
		{true, "9bb7898074b39c73"},
		{false, "10479fbe40ce54c5"},
	} {
		t.Run(fmt.Sprintf("quick=%t", c.quick), func(t *testing.T) {
			sp, err := Options{Quick: c.quick, Seed: 1}.Spec()
			if err != nil {
				t.Fatal(err)
			}
			p, err := capacityProblem()
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
			putFloats := func(vs ...float64) {
				for _, v := range vs {
					put(math.Float64bits(v))
				}
			}
			rand, err := core.RandomAverages([]*core.Problem{p}, sp.Seed+71, capacityRandomDraws(sp))
			if err != nil {
				t.Fatal(err)
			}
			putFloats(rand[0].GlobalAPL, rand[0].MaxAPL, rand[0].DevAPL)
			for _, m := range capacityMappers(sp) {
				mp, err := m.Map(context.Background(), p)
				if err != nil {
					t.Fatal(err)
				}
				for _, tile := range mp {
					put(uint64(tile))
				}
				ev := p.Evaluate(mp)
				putFloats(ev.APLs...)
				putFloats(ev.MaxAPL, ev.DevAPL, ev.GlobalAPL, ev.MinMaxRatio)
			}
			if got := fmt.Sprintf("%016x", h.Sum64()); got != c.want {
				t.Errorf("capacity pin = %s, want %s", got, c.want)
			}
		})
	}
}

// TestCapacityTableLayout: place s of the capacity chip carries tile
// s/2's TC and TM bits from the paper model, so every thread costs the
// same on it as on that tile, and the chip's TC order lists places 2t
// and 2t+1 for each tile t in the paper model's order.
func TestCapacityTableLayout(t *testing.T) {
	p, err := capacityProblem()
	if err != nil {
		t.Fatal(err)
	}
	chip, lm := paperModel(), p.Model()
	if p.N() != capacityTiles*capacityPerTile || lm.NumTiles() != p.N() {
		t.Fatalf("%d threads on %d places, want %d", p.N(), lm.NumTiles(), capacityTiles*capacityPerTile)
	}
	for s := range mesh.Tile(p.N()) {
		tile := s / capacityPerTile
		if math.Float64bits(lm.TC(s)) != math.Float64bits(chip.TC(tile)) ||
			math.Float64bits(lm.TM(s)) != math.Float64bits(chip.TM(tile)) {
			t.Fatalf("place %d: TC/TM %v/%v, tile %d has %v/%v", s, lm.TC(s), lm.TM(s), tile, chip.TC(tile), chip.TM(tile))
		}
		for j := range p.N() {
			want := chip.Cost(p.CacheRate(j), p.MemRate(j), tile)
			if got := p.ThreadCost(j, s); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("ThreadCost(%d, %d) = %v, want tile %d's %v", j, s, got, tile, want)
			}
		}
	}
	order := lm.TilesByTC()
	for i, tile := range chip.TilesByTC() {
		for k := range mesh.Tile(capacityPerTile) {
			if got, want := order[capacityPerTile*i+int(k)], capacityPerTile*tile+k; got != want {
				t.Fatalf("TC order position %d = %d, want %d", capacityPerTile*i+int(k), got, want)
			}
		}
	}
}

// TestCapacityLowerBound: the capacity chip's lower bound is positive
// and no mapper of the experiment beats it.
func TestCapacityLowerBound(t *testing.T) {
	p, err := capacityProblem()
	if err != nil {
		t.Fatal(err)
	}
	lb, err := p.LowerBound()
	if err != nil {
		t.Fatal(err)
	}
	if lb <= 0 {
		t.Fatalf("bound %v, want > 0", lb)
	}
	sp, err := quickOpts().Spec()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range capacityMappers(sp) {
		mp, err := m.Map(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if obj := p.MaxAPL(mp); obj < lb-1e-9 {
			t.Errorf("%s max-APL %v beats the bound %v", m.Name(), obj, lb)
		}
	}
}
