package artifact

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreGet writes arbitrary bytes where an object file would live and
// calls Get. The decoder must never panic and may only return either a miss
// or the exact payload a legitimate Put would have produced for those bytes.
func FuzzStoreGet(f *testing.F) {
	s := Open(f.TempDir())
	id := NewKey("fuzz").Str("probe").ID()
	// Seed with a valid artifact, its prefixes, and a few mutations.
	valid := buildValid([]byte("seed payload"))
	f.Add(valid)
	f.Add(valid[:headerSize])
	f.Add(valid[:headerSize-1])
	f.Add([]byte{})
	mut := append([]byte(nil), valid...)
	mut[0] ^= 0xff
	f.Add(mut)
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := s.path(id)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Skip(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Skip(err)
		}
		// The file was swapped out-of-band (bypassing Put, which would
		// invalidate); drop the in-process entry so Get reads the new bytes.
		s.mem.remove(id)
		payload, ok := s.Get(id)
		if !ok {
			return
		}
		// A hit must mean the bytes were a well-formed artifact whose
		// payload re-encodes to exactly the input file.
		if !bytes.Equal(buildValid(payload), raw) {
			t.Fatalf("hit on malformed file: payload %q from %d raw bytes", payload, len(raw))
		}
	})
}

// buildValid encodes payload into the on-disk artifact format (duplicating
// Put's header layout so the fuzz oracle is independent of Put's I/O path).
func buildValid(payload []byte) []byte {
	s := Open(os.TempDir() + "/artifact-oracle")
	id := NewKey("oracle").Bytes(payload).ID()
	s.Put(id, payload)
	defer os.RemoveAll(s.Dir())
	raw, err := os.ReadFile(s.path(id))
	if err != nil {
		panic(err)
	}
	return raw
}

// FuzzDec drives the record decoder with arbitrary payloads under a fixed
// read schedule. It must never panic; any malformed input must surface via
// Err/Close rather than a wrong silent zero.
func FuzzDec(f *testing.F) {
	var e Enc
	e.Uint(1).Int(-2).Float(3.5).Bool(true).Str("s").
		Floats([]float64{1, 2})
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Add([]byte{tagF64s, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, raw []byte) {
		d := NewDec(raw)
		d.Uint()
		d.Int()
		d.Float()
		d.Bool()
		d.Str()
		d.Floats()
		err := d.Close()
		// Re-decoding must be deterministic.
		d2 := NewDec(raw)
		d2.Uint()
		d2.Int()
		d2.Float()
		d2.Bool()
		d2.Str()
		d2.Floats()
		if (err == nil) != (d2.Close() == nil) {
			t.Fatal("nondeterministic decode")
		}
	})
}
