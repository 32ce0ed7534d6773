package core

import (
	"math"
	"strings"
	"testing"

	"obm/internal/stats"
)

// FuzzParseObjective hardens the -objective spec parser, which reads
// untrusted text from the CLI and the HTTP job API: anything that
// parses must have a stable fingerprint that re-parses to itself, and
// must score a fixed small problem to a finite value.
func FuzzParseObjective(f *testing.F) {
	for _, s := range []string{
		"", "max", "maxapl", "max-apl", "MaxAPL", " dev ",
		"dev", "devapl", "dev-apl",
		"global", "gapl", "g-apl",
		"ratio", "minmax", "minmaxratio", "minmax-ratio",
		"energy",
		"weighted:max=1,dev=2", "weighted:global=0.5,ratio=3", "weighted:energy=1e-3",
		"weighted:", "weighted:max", "weighted:max=", "weighted:max=0", "weighted:max=-1",
		"weighted:max=nan", "weighted:max=inf", "weighted:max=1e12", "weighted:max=1e308",
		"weighted:max=1,max=0", "weighted:max=1,", "weighted:foo=1", "weighted:max=0x1p-3",
	} {
		f.Add(s)
	}
	p := objTestProblem(f)
	m := RandomMapping(p.N(), stats.NewRand(1))

	f.Fuzz(func(t *testing.T, spec string) {
		obj, err := ParseObjective(spec)
		if err != nil {
			return
		}
		fp := obj.Fingerprint()
		if fp == "" || fp != obj.Fingerprint() {
			t.Fatalf("%q: unstable fingerprint %q", spec, fp)
		}
		// The fingerprint names the objective exactly: spelled back as a
		// spec it parses to the same fingerprint.
		again, err := ParseObjective(specOf(fp))
		if err != nil {
			t.Fatalf("%q: fingerprint %q does not re-parse: %v", spec, fp, err)
		}
		if got := again.Fingerprint(); got != fp {
			t.Fatalf("%q: fingerprint %q re-parses to %q", spec, fp, got)
		}
		if v := p.ObjectiveValue(m, obj); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%q (%s) scores %v", spec, fp, v)
		}
	})
}

// specOf turns a fingerprint back into ParseObjective's spelling:
// "weighted(max=1,dev=2)" becomes "weighted:max=1,dev=2"; named
// objectives' fingerprints are already valid spellings.
func specOf(fp string) string {
	if inner, ok := strings.CutPrefix(fp, "weighted("); ok {
		return "weighted:" + strings.TrimSuffix(inner, ")")
	}
	return fp
}
