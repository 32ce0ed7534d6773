package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"testing"
)

// FuzzDecode hardens the OBMA reader, which parses whatever bytes sit
// in the cache directory: any input either fails with ErrCorrupt or
// ErrSchema, or decodes to an artifact that re-encodes under its
// embedded key to exactly the input bytes. With fix set the FNV-64a
// trailer is recomputed first, so mutations reach the parser instead
// of stopping at the checksum.
func FuzzDecode(f *testing.F) {
	wu, a := testArtifact()
	scalar := a
	scalar.Set = nil
	for _, data := range [][]byte{Encode(wu, a), Encode(wu, scalar)} {
		f.Add(data, false)
		f.Add(data, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, fix bool) {
		if fix && len(data) >= 8 {
			data = bytes.Clone(data)
			h := fnv.New64a()
			h.Write(data[:len(data)-8])
			binary.LittleEndian.PutUint64(data[len(data)-8:], h.Sum64())
		}
		key, art, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrSchema) {
				t.Fatalf("error matches neither ErrCorrupt nor ErrSchema: %v", err)
			}
			return
		}
		if again := encodeFrame(key, SchemaVersion, art); !bytes.Equal(again, data) {
			t.Fatalf("decoded frame re-encodes to different bytes:\n got %x\nwant %x", again, data)
		}
	})
}
