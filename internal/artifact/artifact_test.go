package artifact

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"climcompress/internal/blob"
)

func TestNilStoreSafe(t *testing.T) {
	var s *Store
	if s.Enabled() {
		t.Fatal("nil store enabled")
	}
	if _, ok := s.Get("deadbeef"); ok {
		t.Fatal("nil store hit")
	}
	s.Put("deadbeef", []byte("x")) // must not panic
	s.Remove("deadbeef")
	if s.Trim(1) != 0 {
		t.Fatal("nil store trimmed")
	}
	if s.L96Dir() != "" {
		t.Fatal("nil store has an l96 dir")
	}
	if got := Open(""); got != nil {
		t.Fatal("Open(\"\") should be the disabled store")
	}
}

func TestRoundTrip(t *testing.T) {
	s := Open(t.TempDir())
	id := NewKey("test").Str("hello").Uint(42).ID()
	if _, ok := s.Get(id); ok {
		t.Fatal("hit before put")
	}
	payload := []byte("the payload")
	s.Put(id, payload)
	got, ok := s.Get(id)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("roundtrip: got %q ok=%v", got, ok)
	}
	st := s.Stats()
	if st.Puts != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
	s.Remove(id)
	if _, ok := s.Get(id); ok {
		t.Fatal("hit after remove")
	}
}

func TestEmptyPayload(t *testing.T) {
	s := Open(t.TempDir())
	id := NewKey("test").Str("empty").ID()
	s.Put(id, nil)
	got, ok := s.Get(id)
	if !ok || len(got) != 0 {
		t.Fatalf("empty payload: got %v ok=%v", got, ok)
	}
}

func TestKeyDistinct(t *testing.T) {
	// Field boundaries must matter: ("ab", "c") != ("a", "bc"), and the
	// kind partitions the space.
	ids := map[ID]string{}
	add := func(label string, id ID) {
		if prev, dup := ids[id]; dup {
			t.Fatalf("key collision: %s == %s", label, prev)
		}
		ids[id] = label
	}
	add("ab|c", NewKey("k").Str("ab").Str("c").ID())
	add("a|bc", NewKey("k").Str("a").Str("bc").ID())
	add("kind2", NewKey("k2").Str("ab").Str("c").ID())
	add("uint", NewKey("k").Uint(0x6162).Str("c").ID())
	add("float0", NewKey("k").Float(0).ID())
	add("float-0", NewKey("k").Float(mustNeg0()).ID())
	add("bool-t", NewKey("k").Bool(true).ID())
	add("bool-f", NewKey("k").Bool(false).ID())
}

func mustNeg0() float64 {
	z := 0.0
	return -z
}

func TestKeyReusableAfterID(t *testing.T) {
	k := NewKey("k").Str("a")
	id1 := k.ID()
	if id2 := k.ID(); id1 != id2 {
		t.Fatal("ID not idempotent")
	}
	k.Str("b")
	if id3 := k.ID(); id3 == id1 {
		t.Fatal("extending the key did not change the ID")
	}
}

// corrupt loads the object file behind id, applies mutate, writes it back.
func corrupt(t *testing.T, s *Store, id ID, mutate func([]byte) []byte) {
	t.Helper()
	path := s.path(id)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(buf), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptionIsAMiss(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"flipped payload byte", func(b []byte) []byte { b[len(b)-1] ^= 1; return b }},
		{"flipped checksum byte", func(b []byte) []byte { b[20] ^= 1; return b }},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-3] }},
		{"truncated header", func(b []byte) []byte { return b[:10] }},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xff) }},
		{"wrong magic", func(b []byte) []byte { b[0] ^= 1; return b }},
		{"future version", func(b []byte) []byte { b[4]++; return b }},
		{"empty file", func(b []byte) []byte { return nil }},
		{"huge declared length", func(b []byte) []byte { b[8], b[15] = 0xff, 0x7f; return b }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := Open(t.TempDir())
			id := NewKey("test").Str(tc.name).ID()
			s.Put(id, []byte("payload payload payload"))
			corrupt(t, s, id, tc.mutate)
			if got, ok := s.Get(id); ok {
				t.Fatalf("corrupt artifact served as a hit: %q", got)
			}
			if s.Stats().BadReads != 1 {
				t.Fatalf("bad read not counted: %+v", s.Stats())
			}
		})
	}
}

func TestInvalidIDRejected(t *testing.T) {
	s := Open(t.TempDir())
	for _, id := range []ID{"", "short", ID("../../../../etc/passwd0000000000000000000000000000000000000000000000"), ID(string(make([]byte, 64)))} {
		s.Put(id, []byte("x"))
		if _, ok := s.Get(id); ok {
			t.Fatalf("invalid id %q accepted", id)
		}
	}
	// Nothing may have been written anywhere under the root.
	n := 0
	filepath.Walk(s.Dir(), func(path string, info os.FileInfo, err error) error {
		if err == nil && info != nil && !info.IsDir() {
			n++
		}
		return nil
	})
	if n != 0 {
		t.Fatalf("%d files written for invalid ids", n)
	}
}

func TestTrimEvictsOldestFirst(t *testing.T) {
	s := Open(t.TempDir())
	old := NewKey("test").Str("old").ID()
	neu := NewKey("test").Str("new").ID()
	payload := make([]byte, 1000)
	s.Put(old, payload)
	s.Put(neu, payload)
	// Backdate the first object so mtime ordering is unambiguous.
	past := time.Now().Add(-time.Hour)
	os.Chtimes(s.path(old), past, past)

	if n := s.Trim(0); n != 0 {
		t.Fatalf("Trim(0) removed %d", n)
	}
	if n := s.Trim(1 << 30); n != 0 {
		t.Fatalf("Trim(huge) removed %d", n)
	}
	if n := s.Trim(int64(headerSize + 1000 + 10)); n != 1 {
		t.Fatalf("Trim removed %d files, want 1", n)
	}
	if _, ok := s.Get(old); ok {
		t.Fatal("oldest artifact survived trim")
	}
	if _, ok := s.Get(neu); !ok {
		t.Fatal("newest artifact evicted")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var e Enc
	e.Uint(7).Int(-3).Float(3.5).Bool(true).Bool(false).Str("hé").
		Floats([]float64{1, -2.25, 0})
	d := NewDec(e.Bytes())
	if v := d.Uint(); v != 7 {
		t.Fatalf("Uint %d", v)
	}
	if v := d.Int(); v != -3 {
		t.Fatalf("Int %d", v)
	}
	if v := d.Float(); v != 3.5 {
		t.Fatalf("Float %v", v)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool")
	}
	if v := d.Str(); v != "hé" {
		t.Fatalf("Str %q", v)
	}
	f := d.Floats()
	if len(f) != 3 || f[1] != -2.25 {
		t.Fatalf("Floats %v", f)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecordSchemaMismatch(t *testing.T) {
	var e Enc
	e.Uint(7)
	d := NewDec(e.Bytes())
	if v := d.Float(); v != 0 || d.Err() == nil {
		t.Fatal("wrong-type read must error")
	}
	// All subsequent reads stay zero after the first error.
	if d.Uint() != 0 || d.Str() != "" || d.Floats() != nil {
		t.Fatal("reads after error not zero")
	}
}

func TestRecordTrailingBytes(t *testing.T) {
	var e Enc
	e.Uint(7)
	payload := append(e.Bytes(), 0xaa)
	d := NewDec(payload)
	d.Uint()
	if d.Close() == nil {
		t.Fatal("trailing bytes must fail Close")
	}
}

func TestRecordHugeVectorLength(t *testing.T) {
	// A corrupt length prefix must fail cleanly before allocating.
	var e Enc
	e.Floats([]float64{1})
	payload := e.Bytes()
	payload[1] = 0xff // length LSB
	payload[8] = 0x7f // length MSB: absurd
	d := NewDec(payload)
	if v := d.Floats(); v != nil || d.Err() == nil {
		t.Fatal("huge vector length must error")
	}
}

// TestScoreRecordSteadyStateAllocs pins the read cost of the cache's
// hottest payload shape, a per-member score record (two float64 vectors at
// paper-scale ensemble size), in both record formats: the v2 blob record
// is validated and read in place with no allocation, and the v1 tagged
// stream allocates only its two decoded slices.
func TestScoreRecordSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under -race")
	}
	const members = 101
	rmsz := make([]float64, members)
	enmax := make([]float64, members)
	for i := range rmsz {
		rmsz[i] = 1 + float64(i)/members
		enmax[i] = 2 - float64(i)/members
	}
	w := blob.GetWriter()
	w.AddF64s(rmsz)
	w.AddF64s(enmax)
	v2 := w.AppendTo(nil)
	blob.PutWriter(w)
	var e Enc
	e.Floats(rmsz).Floats(enmax)
	v1 := e.Bytes()

	if allocs := testing.AllocsPerRun(10, func() {
		b, err := OpenRecord(v2)
		if err != nil {
			t.Fatal(err)
		}
		rv, err1 := b.F64(0)
		ev, err2 := b.F64(1)
		if err1 != nil || err2 != nil || rv.At(members-1) != rmsz[members-1] || ev.At(0) != enmax[0] {
			t.Fatal("v2 score record unreadable")
		}
	}); allocs > 0 {
		t.Errorf("v2 score record read allocates %.1f/op in steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		d := NewDec(v1)
		r, en := d.Floats(), d.Floats()
		if d.Close() != nil || len(r) != members || len(en) != members {
			t.Fatal("v1 score record unreadable")
		}
	}); allocs > 2 {
		t.Errorf("v1 score record decode allocates %.1f/op in steady state, want ≤ 2", allocs)
	}
}

func TestStatsJSONRoundTrip(t *testing.T) {
	// The Stats struct is the wire schema of climatebenchd's GET /stats:
	// every counter — including the PR 5 claim counters — must survive a
	// JSON round-trip under its documented key.
	want := Stats{Hits: 1, Misses: 2, Puts: 3, BadReads: 4, Claims: 5, ClaimLosses: 6}
	buf, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"hits", "misses", "puts", "bad_reads", "claims", "claim_losses"} {
		if !bytes.Contains(buf, []byte(`"`+key+`"`)) {
			t.Fatalf("marshalled stats %s lack key %q", buf, key)
		}
	}
	var got Stats
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round-trip: got %+v, want %+v", got, want)
	}
}

func TestStatsSnapshotUnderTraffic(t *testing.T) {
	// Stats must stay callable (and individually exact once quiescent)
	// while other goroutines hammer the counters.
	dir := t.TempDir()
	s := Open(dir)
	var wg sync.WaitGroup
	const writers, rounds = 4, 50
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				id := NewKey("stats-traffic").Int(w).Int(i).ID()
				s.Get(id) // miss
				s.Put(id, []byte("x"))
				s.Get(id) // hit
			}
		}(w)
	}
	for i := 0; i < 100; i++ {
		_ = s.Stats() // must not race or tear
	}
	wg.Wait()
	st := s.Stats()
	if st.Hits != writers*rounds || st.Misses != writers*rounds || st.Puts != writers*rounds {
		t.Fatalf("quiescent stats %+v, want %d of each of hits/misses/puts", st, writers*rounds)
	}
	if st.String() == "" || !strings.Contains(st.String(), "claims") {
		t.Fatalf("Stats.String() = %q lacks claim counters", st.String())
	}
}
