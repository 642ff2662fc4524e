package pvt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"testing"

	"climcompress/internal/compress"
	_ "climcompress/internal/compress/tsblob"
	"climcompress/internal/ensemble"
	"climcompress/internal/field"
	"climcompress/internal/grid"
)

// hashSource is a deterministic ensemble.Source: regenerating a member
// always yields identical bits, which is the contract the streamed verify
// path relies on.
type hashSource struct {
	g  *grid.Grid
	nm int
}

func (s *hashSource) Members() int { return s.nm }

func (s *hashSource) Field(varIdx, m int) *field.Field {
	f := field.New("X", "1", s.g, false)
	for i := range f.Data {
		f.Data[i] = hashValue(varIdx, m, i)
	}
	return f
}

func hashValue(varIdx, m, i int) float32 {
	x := uint64(varIdx)*0x9e3779b97f4a7c15 + uint64(m)*0xbf58476d1ce4e5b9 + uint64(i)*0x94d049bb133111eb
	x ^= x >> 31
	x *= 0xd6e8feb86659fd93
	x ^= x >> 27
	mu := 50 + 10*math.Sin(float64(i)/9)
	return float32(mu + float64(x%100000)/50000 - 1)
}

// digestValue writes v into h field by field, in declaration order, with
// floats taken as their exact bit patterns; slices are length-prefixed.
func digestValue(h hash.Hash, v reflect.Value) {
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.String:
		put(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Slice, reflect.Array:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			digestValue(h, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			digestValue(h, v.Field(i))
		}
	default:
		panic(fmt.Sprintf("digestValue: unhandled kind %s", v.Kind()))
	}
}

// resultDigest is the SHA-256 of every field of r.
func resultDigest(r Result) string {
	h := sha256.New()
	digestValue(h, reflect.ValueOf(r))
	return hex.EncodeToString(h.Sum(nil))
}

// verifyDigests pins the Result of every verification route, recorded
// from the original materialized implementation, so any change to the
// arithmetic or accumulation order of the per-member checks, the bias
// regression or the compression-ratio bookkeeping shows up as a digest
// mismatch. Keys are codec/withBias; VerifyData always runs the bias test,
// so its digest does not depend on withBias.
var verifyDigests = map[string]struct{ verify, verifyData string }{
	"nc/false": {
		"e04698688d467a1ba36efa3e13d480ee7a9d98969564160231df1b056b231917",
		"211340162c3e1918653c4ad804ff97662b0f0a8c060e5d3ecd5d3b8e5a05b4d5",
	},
	"nc/true": {
		"8646a41011be3a103190a6e7315967fb22f4ba7435941939b78013e169a28352",
		"211340162c3e1918653c4ad804ff97662b0f0a8c060e5d3ecd5d3b8e5a05b4d5",
	},
	"fpzip-24/false": {
		"9452d7d94cc821b44edf659522ed7a88155abc1aa742f12113bfbb85a90d10f2",
		"528037894f1ef81635be87341d4b95a287bb6a06487c5723f72acd7b99e48c0b",
	},
	"fpzip-24/true": {
		"e77907ea36549f251386de976a5905eb70d53be63d34549643fc725fb017a4ad",
		"528037894f1ef81635be87341d4b95a287bb6a06487c5723f72acd7b99e48c0b",
	},
	"apax-4/false": {
		"126f0686d859df38d59c7d0e35d5c0155bee7bde7f4c56c6a7ec2f10b61ec400",
		"0cd15f1c3bc893bfbcbd4f8d20564704f9fa4c8c988ee71b942d35d21bdaa4d5",
	},
	"apax-4/true": {
		"89a512406e1526556db29432dcd0f15d5f76b073f04c2478467c0cf22804d56e",
		"0cd15f1c3bc893bfbcbd4f8d20564704f9fa4c8c988ee71b942d35d21bdaa4d5",
	},
	"tsblob/false": {
		"1c8f4e255af5b4b39efc36e3bf0dff1879269c4ac827c238aac9307c47baee8e",
		"59f50db236c3d89895242519f837d69d8414bece8919483dd0df4ac94e064c92",
	},
	"tsblob/true": {
		"cd0916c632d5ddd4bec49e04aaf31110049351eb597b361434e6becca0e4f961",
		"59f50db236c3d89895242519f837d69d8414bece8919483dd0df4ac94e064c92",
	},
}

// TestVerifyStreamMatchesMaterialized checks that stats built from
// materialized fields (ensemble.Build) and from a regenerating source
// (ensemble.BuildStream) both verify to the pinned Result, for lossless and
// lossy codecs, with and without the bias test, and that VerifyData over
// the codec's reconstructions matches its own pinned Result.
func TestVerifyStreamMatchesMaterialized(t *testing.T) {
	src := &hashSource{g: grid.Test(), nm: 15}
	fields := make([]*field.Field, src.nm)
	for m := range fields {
		fields[m] = src.Field(0, m)
	}
	built, err := ensemble.Build(fields)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := ensemble.BuildStream(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	shape := compress.Shape{NLev: 1, NLat: src.g.NLat, NLon: src.g.NLon}

	for _, name := range []string{"nc", "fpzip-24", "apax-4", "tsblob"} {
		codec, err := compress.New(name)
		if err != nil {
			t.Fatal(err)
		}
		recon := make([][]float32, len(fields))
		for m, f := range fields {
			buf, err := codec.Compress(f.Data, shape)
			if err != nil {
				t.Fatal(err)
			}
			if recon[m], err = codec.Decompress(buf); err != nil {
				t.Fatal(err)
			}
		}
		for _, withBias := range []bool{false, true} {
			key := fmt.Sprintf("%s/%v", name, withBias)
			want := verifyDigests[key]
			for _, route := range []struct {
				name string
				vs   *ensemble.VarStats
			}{{"Build", built}, {"BuildStream", streamed}} {
				v := &Verifier{Stats: route.vs, Shape: shape, Thr: Default(), WithBias: withBias}
				res, err := v.Verify(codec)
				if err != nil {
					t.Fatalf("%s %s: %v", key, route.name, err)
				}
				if got := resultDigest(res); got != want.verify {
					t.Errorf("%s %s: Verify digest %s, want %s", key, route.name, got, want.verify)
				}
			}
			v := &Verifier{Stats: built, Shape: shape, Thr: Default(), WithBias: withBias}
			res, err := v.VerifyData(name, recon)
			if err != nil {
				t.Fatalf("%s VerifyData: %v", key, err)
			}
			if got := resultDigest(res); got != want.verifyData {
				t.Errorf("%s: VerifyData digest %s, want %s", key, got, want.verifyData)
			}
		}
	}
}
