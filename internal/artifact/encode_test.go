package artifact

import (
	"errors"
	"math"
	"strings"
	"testing"

	"obm/internal/core"
	"obm/internal/mesh"
)

// testArtifact builds a small artifact with floats chosen to expose
// any lossy encoding: values with no short decimal form, a negative
// zero, and a subnormal. It carries a two-member Pareto set so the
// schema-v2 set section is covered by every round-trip, truncation,
// bit-rot, and cross-process test.
func testArtifact() (WorkUnit, Artifact) {
	wu := NewWorkUnit("p8x8c1-0123456789abcdef", "sss(w=4)", "maxapl")
	a := Artifact{
		Mapping: core.Mapping{3, 1, mesh.Tile(0), 2},
		Eval: core.Evaluation{
			APLs:        []float64{0.1 + 0.2, math.Nextafter(21.5, 22), math.Copysign(0, -1), 5e-324},
			MaxAPL:      math.Nextafter(21.5, 22),
			DevAPL:      0.030000000000000002,
			GlobalAPL:   21.0 / 7.0,
			MinMaxRatio: 0.9999999999999999,
		},
		Set: []core.ParetoMember{
			{Mapping: core.Mapping{3, 1, 0, 2}, Vector: []float64{0.1 + 0.2, math.Copysign(0, -1), 5e-324}},
			{Mapping: core.Mapping{0, 1, 2, 3}, Vector: []float64{math.Nextafter(21.5, 22), 1.0 / 3.0, 7}},
		},
	}
	return wu, a
}

func TestEncodeDecodeRoundTripBitIdentical(t *testing.T) {
	wu, a := testArtifact()
	key, got, err := Decode(Encode(wu, a))
	if err != nil {
		t.Fatal(err)
	}
	if key != wu.Key() {
		t.Errorf("embedded key = %q, want %q", key, wu.Key())
	}
	if len(got.Mapping) != len(a.Mapping) {
		t.Fatalf("mapping length %d, want %d", len(got.Mapping), len(a.Mapping))
	}
	for j := range a.Mapping {
		if got.Mapping[j] != a.Mapping[j] {
			t.Errorf("mapping[%d] = %d, want %d", j, got.Mapping[j], a.Mapping[j])
		}
	}
	if len(got.Eval.APLs) != len(a.Eval.APLs) {
		t.Fatalf("APL count %d, want %d", len(got.Eval.APLs), len(a.Eval.APLs))
	}
	for i := range a.Eval.APLs {
		if math.Float64bits(got.Eval.APLs[i]) != math.Float64bits(a.Eval.APLs[i]) {
			t.Errorf("APLs[%d] bits %016x, want %016x", i,
				math.Float64bits(got.Eval.APLs[i]), math.Float64bits(a.Eval.APLs[i]))
		}
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"MaxAPL", got.Eval.MaxAPL, a.Eval.MaxAPL},
		{"DevAPL", got.Eval.DevAPL, a.Eval.DevAPL},
		{"GlobalAPL", got.Eval.GlobalAPL, a.Eval.GlobalAPL},
		{"MinMaxRatio", got.Eval.MinMaxRatio, a.Eval.MinMaxRatio},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Errorf("%s bits %016x, want %016x", f.name, math.Float64bits(f.got), math.Float64bits(f.want))
		}
	}
	if len(got.Set) != len(a.Set) {
		t.Fatalf("set member count %d, want %d", len(got.Set), len(a.Set))
	}
	for i := range a.Set {
		for j := range a.Set[i].Mapping {
			if got.Set[i].Mapping[j] != a.Set[i].Mapping[j] {
				t.Errorf("set[%d].Mapping[%d] = %d, want %d", i, j, got.Set[i].Mapping[j], a.Set[i].Mapping[j])
			}
		}
		for d := range a.Set[i].Vector {
			if math.Float64bits(got.Set[i].Vector[d]) != math.Float64bits(a.Set[i].Vector[d]) {
				t.Errorf("set[%d].Vector[%d] bits %016x, want %016x", i, d,
					math.Float64bits(got.Set[i].Vector[d]), math.Float64bits(a.Set[i].Vector[d]))
			}
		}
	}
}

// TestEncodeDecodeEmptySet: scalar artifacts (no set) still round-trip
// with a nil Set, not an empty non-nil one.
func TestEncodeDecodeEmptySet(t *testing.T) {
	wu, a := testArtifact()
	a.Set = nil
	_, got, err := Decode(Encode(wu, a))
	if err != nil {
		t.Fatal(err)
	}
	if got.Set != nil {
		t.Fatalf("empty set decoded as %v, want nil", got.Set)
	}
}

// TestDecodeTruncated feeds Decode every proper prefix of a valid
// encoding: all must fail with ErrCorrupt, none may panic — a SIGKILL
// mid-write (pre-atomic-rename this was possible) must never produce a
// frame that parses.
func TestDecodeTruncated(t *testing.T) {
	wu, a := testArtifact()
	data := Encode(wu, a)
	for n := 0; n < len(data); n++ {
		if _, _, err := Decode(data[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrCorrupt", n, len(data), err)
		}
	}
}

// TestDecodeBitRot flips one bit in every byte position in turn; the
// checksum must catch each (a flip in the checksum itself included).
func TestDecodeBitRot(t *testing.T) {
	wu, a := testArtifact()
	data := Encode(wu, a)
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, _, err := Decode(mut); err == nil {
			t.Fatalf("bit flip at byte %d decoded cleanly", i)
		}
	}
}

func TestDecodeWrongSchema(t *testing.T) {
	wu, a := testArtifact()
	data := encodeFrame(wu.Key(), SchemaVersion+41, a)
	_, _, err := Decode(data)
	if !errors.Is(err, ErrSchema) {
		t.Fatalf("err = %v, want ErrSchema", err)
	}
	// The typed error names both versions, so mixed-schema cache dirs
	// produce a diagnosable message.
	var se *SchemaError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T, want *SchemaError", err)
	}
	if se.Found != SchemaVersion+41 || se.Supported != SchemaVersion {
		t.Fatalf("SchemaError = %+v, want Found=%d Supported=%d", se, SchemaVersion+41, SchemaVersion)
	}
	for _, part := range []string{"v43", "v2"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q does not name %s", err.Error(), part)
		}
	}
}

func TestWorkUnitKey(t *testing.T) {
	wu := NewWorkUnit("pA", "mB", "oC")
	if got, want := wu.Key(), "wu2|pA|mB|oC"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
	// The zero schema resolves to the current version: the two forms
	// address the same storage.
	if (WorkUnit{Problem: "pA", Mapper: "mB", Objective: "oC"}).Key() != wu.Key() {
		t.Error("zero-schema key differs from explicit current version")
	}
	// Any component change must change the key.
	for _, alt := range []WorkUnit{
		{Problem: "pX", Mapper: "mB", Objective: "oC"},
		{Problem: "pA", Mapper: "mX", Objective: "oC"},
		{Problem: "pA", Mapper: "mB", Objective: "oX"},
		{Problem: "pA", Mapper: "mB", Objective: "oC", Schema: SchemaVersion + 1},
	} {
		if alt.Key() == wu.Key() {
			t.Errorf("%+v shares a key with %+v", alt, wu)
		}
	}
}

func TestArtifactCloneIndependent(t *testing.T) {
	_, a := testArtifact()
	c := a.Clone()
	c.Mapping[0], c.Eval.APLs[0] = 99, -1
	c.Set[0].Mapping[0], c.Set[0].Vector[0] = 99, -1
	if a.Mapping[0] == 99 || a.Eval.APLs[0] == -1 {
		t.Error("Clone shares storage with the original")
	}
	if a.Set[0].Mapping[0] == 99 || a.Set[0].Vector[0] == -1 {
		t.Error("Clone shares set storage with the original")
	}
}
