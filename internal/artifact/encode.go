package artifact

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"obm/internal/core"
	"obm/internal/mesh"
)

// The on-disk artifact format is self-describing, versioned, and
// checksummed so a reader can always tell a valid artifact from a
// truncated, corrupted, or foreign file without any out-of-band state:
//
//	offset  size  field
//	0       4     magic "OBMA"
//	4       4     schema version (uint32 LE)
//	8       4     key length K (uint32 LE)
//	12      K     WorkUnit.Key() bytes (self-describing: a reader can
//	              verify the file answers the question it was asked)
//	...     4     mapping length N (uint32 LE)
//	...     4*N   mapping tiles (uint32 LE each)
//	...     4     APL count A (uint32 LE)
//	...     8*A   per-application APLs (float64 bits LE)
//	...     8*4   MaxAPL, DevAPL, GlobalAPL, MinMaxRatio (float64 bits LE)
//	...     4     Pareto-set member count S (uint32 LE; 0 for scalar
//	              artifacts) — new in schema v2
//	...           S members, each:
//	                4    mapping length N_i (uint32 LE)
//	                4*N_i  mapping tiles (uint32 LE each)
//	                4    vector dimension D_i (uint32 LE)
//	                8*D_i  cost vector (float64 bits LE)
//	...     8     FNV-1a 64 checksum of every preceding byte (uint64 LE)
//
// Float64 values are stored as raw IEEE-754 bits, so a decoded
// artifact is bit-identical to the encoded one — the golden round-trip
// tests rely on it.
var magic = [4]byte{'O', 'B', 'M', 'A'}

// ErrCorrupt marks an artifact file that is truncated, fails its
// checksum, or is structurally inconsistent. The store treats it as a
// miss: the file is discarded and the work recomputed.
var ErrCorrupt = errors.New("artifact: corrupt encoding")

// ErrSchema marks an artifact encoded under a different schema
// version. Like corruption it degrades to recompute; unlike corruption
// it is expected after an upgrade. Concrete mismatches are reported as
// a *SchemaError, which errors.Is-matches this sentinel.
var ErrSchema = errors.New("artifact: schema version mismatch")

// SchemaError is the typed form of ErrSchema: it names both the
// version found in the file and the version this build supports, so a
// cache directory shared across a schema bump produces a diagnosable
// mismatch (and a clean recompute) instead of an opaque failure.
type SchemaError struct {
	// Found is the schema version embedded in the file.
	Found int
	// Supported is this build's SchemaVersion.
	Supported int
}

// Error implements error.
func (e *SchemaError) Error() string {
	return fmt.Sprintf("artifact: schema version mismatch: file has v%d, this build reads v%d", e.Found, e.Supported)
}

// Is makes errors.Is(err, ErrSchema) match every *SchemaError.
func (e *SchemaError) Is(target error) bool { return target == ErrSchema }

// Encode serializes the artifact for wu into the versioned binary
// form. The inverse is Decode; Encode(wu, a) round-trips bit-exactly.
func Encode(wu WorkUnit, a Artifact) []byte {
	return encodeFrame(wu.Key(), uint32(wu.schemaOrDefault()), a)
}

// encodeFrame is Encode with the key and schema version given
// explicitly; the tests use it to craft wrong-version files with valid
// checksums and to re-encode decoded frames whose key no WorkUnit
// spells.
func encodeFrame(key string, version uint32, a Artifact) []byte {
	n, ap := len(a.Mapping), len(a.Eval.APLs)
	size := 4 + 4 + 4 + len(key) + 4 + 4*n + 4 + 8*ap + 8*4 + 4 + 8
	for _, m := range a.Set {
		size += 4 + 4*len(m.Mapping) + 4 + 8*len(m.Vector)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, magic[:]...)
	buf = le32(buf, version)
	buf = le32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = le32(buf, uint32(n))
	for _, t := range a.Mapping {
		buf = le32(buf, uint32(t))
	}
	buf = le32(buf, uint32(ap))
	for _, v := range a.Eval.APLs {
		buf = le64(buf, math.Float64bits(v))
	}
	buf = le64(buf, math.Float64bits(a.Eval.MaxAPL))
	buf = le64(buf, math.Float64bits(a.Eval.DevAPL))
	buf = le64(buf, math.Float64bits(a.Eval.GlobalAPL))
	buf = le64(buf, math.Float64bits(a.Eval.MinMaxRatio))
	buf = le32(buf, uint32(len(a.Set)))
	for _, m := range a.Set {
		buf = le32(buf, uint32(len(m.Mapping)))
		for _, t := range m.Mapping {
			buf = le32(buf, uint32(t))
		}
		buf = le32(buf, uint32(len(m.Vector)))
		for _, v := range m.Vector {
			buf = le64(buf, math.Float64bits(v))
		}
	}
	h := fnv.New64a()
	h.Write(buf)
	return le64(buf, h.Sum64())
}

func le32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func le64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// Decode parses an encoded artifact, returning the embedded WorkUnit
// key and the decoded artifact. It fails with ErrCorrupt (possibly
// wrapped) on truncation, checksum mismatch, or structural nonsense,
// and with ErrSchema when the version differs from SchemaVersion —
// both of which the disk tier converts into a clean recompute.
func Decode(data []byte) (key string, a Artifact, err error) {
	// Verify the trailing checksum first: it covers every other field,
	// so any later parse error on checksum-valid data is a real format
	// bug, not bit rot.
	if len(data) < 4+4+4+4+4+8*4+4+8 {
		return "", Artifact{}, fmt.Errorf("%w: %d bytes is shorter than the minimal frame", ErrCorrupt, len(data))
	}
	body, tail := data[:len(data)-8], data[len(data)-8:]
	h := fnv.New64a()
	h.Write(body)
	if got, want := binary.LittleEndian.Uint64(tail), h.Sum64(); got != want {
		return "", Artifact{}, fmt.Errorf("%w: checksum %016x != %016x", ErrCorrupt, got, want)
	}
	c := cursor{b: body}
	if m := c.bytes(4); m == nil || [4]byte(m) != magic {
		return "", Artifact{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	version := c.u32()
	if c.err == nil && version != SchemaVersion {
		return "", Artifact{}, &SchemaError{Found: int(version), Supported: SchemaVersion}
	}
	key = string(c.bytes(int(c.u32())))
	n := int(c.u32())
	if c.err == nil && (n < 0 || n > len(c.b)/4) {
		return "", Artifact{}, fmt.Errorf("%w: mapping length %d exceeds frame", ErrCorrupt, n)
	}
	if c.err == nil {
		a.Mapping = make(core.Mapping, n)
		for j := range a.Mapping {
			a.Mapping[j] = mesh.Tile(c.u32())
		}
	}
	ap := int(c.u32())
	if c.err == nil && (ap < 0 || ap > len(c.b)/8) {
		return "", Artifact{}, fmt.Errorf("%w: APL count %d exceeds frame", ErrCorrupt, ap)
	}
	if c.err == nil {
		a.Eval.APLs = make([]float64, ap)
		for i := range a.Eval.APLs {
			a.Eval.APLs[i] = math.Float64frombits(c.u64())
		}
	}
	a.Eval.MaxAPL = math.Float64frombits(c.u64())
	a.Eval.DevAPL = math.Float64frombits(c.u64())
	a.Eval.GlobalAPL = math.Float64frombits(c.u64())
	a.Eval.MinMaxRatio = math.Float64frombits(c.u64())
	s := int(c.u32())
	if c.err == nil && (s < 0 || s > len(c.b)/8) {
		return "", Artifact{}, fmt.Errorf("%w: set member count %d exceeds frame", ErrCorrupt, s)
	}
	if c.err == nil && s > 0 {
		a.Set = make([]SetMember, s)
		for i := range a.Set {
			mn := int(c.u32())
			if c.err == nil && (mn < 0 || mn > len(c.b)/4) {
				return "", Artifact{}, fmt.Errorf("%w: set member %d mapping length %d exceeds frame", ErrCorrupt, i, mn)
			}
			if c.err != nil {
				break
			}
			a.Set[i].Mapping = make(core.Mapping, mn)
			for j := range a.Set[i].Mapping {
				a.Set[i].Mapping[j] = mesh.Tile(c.u32())
			}
			vd := int(c.u32())
			if c.err == nil && (vd < 0 || vd > len(c.b)/8) {
				return "", Artifact{}, fmt.Errorf("%w: set member %d vector dimension %d exceeds frame", ErrCorrupt, i, vd)
			}
			if c.err != nil {
				break
			}
			a.Set[i].Vector = make([]float64, vd)
			for d := range a.Set[i].Vector {
				a.Set[i].Vector[d] = math.Float64frombits(c.u64())
			}
		}
	}
	if c.err != nil {
		return "", Artifact{}, c.err
	}
	if len(c.b) != 0 {
		return "", Artifact{}, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(c.b))
	}
	return key, a, nil
}

// cursor is a bounds-checked little-endian reader; the first overrun
// latches an ErrCorrupt and every later read returns zero.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) bytes(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.b) {
		c.err = fmt.Errorf("%w: truncated (want %d bytes, have %d)", ErrCorrupt, n, len(c.b))
		return nil
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out
}

func (c *cursor) u32() uint32 {
	b := c.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (c *cursor) u64() uint64 {
	b := c.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
