package index

import (
	"errors"
	"math/rand/v2"
	"reflect"
	"testing"

	"genasm/internal/seq"
)

func testRef(n int, seed uint64) []byte {
	return seq.Random(rand.New(rand.NewPCG(seed, 0)), n)
}

func TestBuildValidation(t *testing.T) {
	ref := testRef(100, 1)
	if _, err := Build(ref, 0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := Build(ref, 32); err == nil {
		t.Error("k=32 should fail (exceeds packing)")
	}
	if _, err := Build(ref[:5], 10); err == nil {
		t.Error("ref shorter than k should fail")
	}
	if _, err := Build([]byte{9}, 1); err == nil {
		t.Error("invalid codes should fail")
	}
	if _, err := BuildMinimizer(ref, 11, 0); err == nil {
		t.Error("window 0 should fail")
	}
}

func TestLookupExact(t *testing.T) {
	ref := testRef(1000, 2)
	idx, err := Build(ref, 11)
	if err != nil {
		t.Fatal(err)
	}
	if idx.K() != 11 {
		t.Fatalf("K = %d", idx.K())
	}
	// Every k-mer position must be findable.
	for i := 0; i+11 <= len(ref); i += 37 {
		locs := idx.Lookup(ref[i : i+11])
		found := false
		for _, l := range locs {
			if int(l) == i {
				found = true
			}
		}
		if !found {
			t.Fatalf("position %d not found in lookup result %v", i, locs)
		}
	}
	// Wrong-length query returns nil.
	if idx.Lookup(ref[:5]) != nil {
		t.Error("wrong-length lookup should return nil")
	}
	if idx.Seeds() != len(ref)-11+1 {
		t.Errorf("Seeds = %d, want %d", idx.Seeds(), len(ref)-11+1)
	}
}

func TestMinimizerSmallerIndex(t *testing.T) {
	ref := testRef(20000, 3)
	full, err := Build(ref, 15)
	if err != nil {
		t.Fatal(err)
	}
	mini, err := BuildMinimizer(ref, 15, 10)
	if err != nil {
		t.Fatal(err)
	}
	if mini.Seeds() >= full.Seeds()/2 {
		t.Errorf("minimizer index %d seeds, full %d: expected substantial shrink", mini.Seeds(), full.Seeds())
	}
	if mini.Seeds() < full.Seeds()/20 {
		t.Errorf("minimizer index %d seeds suspiciously small vs %d", mini.Seeds(), full.Seeds())
	}
}

func TestCandidateLocationsExactRead(t *testing.T) {
	ref := testRef(50000, 4)
	idx, err := Build(ref, 15)
	if err != nil {
		t.Fatal(err)
	}
	read := ref[12345 : 12345+100]
	cands := idx.CandidateLocations(read, 5)
	if len(cands) == 0 {
		t.Fatal("no candidates for exact read")
	}
	best := cands[0]
	if best.Pos < 12345-16 || best.Pos > 12345+16 {
		t.Fatalf("best candidate at %d, want ~12345", best.Pos)
	}
	if best.Votes < 50 {
		t.Fatalf("votes = %d, expected most of %d k-mers", best.Votes, 100-15+1)
	}
}

func TestCandidateLocationsWithErrors(t *testing.T) {
	ref := testRef(50000, 5)
	idx, err := Build(ref, 13)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(6, 6))
	read := append([]byte(nil), ref[30000:30150]...)
	for e := 0; e < 7; e++ { // ~5% errors
		p := rng.IntN(len(read))
		read[p] = (read[p] + byte(1+rng.IntN(3))) % 4
	}
	cands := idx.CandidateLocations(read, 10)
	if len(cands) == 0 {
		t.Fatal("no candidates for five-percent-error read")
	}
	found := false
	for _, c := range cands {
		if c.Pos >= 30000-16 && c.Pos <= 30000+16 {
			found = true
		}
	}
	if !found {
		t.Fatalf("true location 30000 not among candidates %v", cands)
	}
}

func TestCandidateLocationsMinimizerIndex(t *testing.T) {
	ref := testRef(50000, 7)
	idx, err := BuildMinimizer(ref, 15, 8)
	if err != nil {
		t.Fatal(err)
	}
	read := ref[41000:41120]
	cands := idx.CandidateLocations(read, 5)
	if len(cands) == 0 {
		t.Fatal("no candidates via minimizer index")
	}
	if cands[0].Pos < 41000-16 || cands[0].Pos > 41000+16 {
		t.Fatalf("best candidate at %d, want ~41000", cands[0].Pos)
	}
}

func TestCandidateCap(t *testing.T) {
	// Repeat-heavy reference: the same 20-mer everywhere.
	ref := make([]byte, 4000)
	for i := range ref {
		ref[i] = byte(i % 4)
	}
	idx, err := Build(ref, 11)
	if err != nil {
		t.Fatal(err)
	}
	read := ref[100:200]
	cands := idx.CandidateLocations(read, 3)
	if len(cands) > 3 {
		t.Fatalf("cap violated: %d candidates", len(cands))
	}
}

// TestKRangeTypedError pins the typed error for out-of-range seed
// lengths: callers (the public MapperConfig validation among them) match
// it with errors.As instead of parsing a generic build failure.
func TestKRangeTypedError(t *testing.T) {
	ref := testRef(100, 8)
	for _, k := range []int{0, -3, MaxK + 1, 64} {
		var kerr *KRangeError
		_, err := Build(ref, k)
		if !errors.As(err, &kerr) {
			t.Errorf("Build k=%d: want *KRangeError, got %v", k, err)
			continue
		}
		if kerr.K != k {
			t.Errorf("KRangeError.K = %d, want %d", kerr.K, k)
		}
	}
	if _, err := Build(ref, MaxK); err != nil {
		t.Errorf("k=MaxK should build: %v", err)
	}
}

// TestRefExactlyK covers the smallest legal reference: one k-mer, one
// seed, and a lookup that finds it.
func TestRefExactlyK(t *testing.T) {
	ref := testRef(15, 9)
	idx, err := Build(ref, 15)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Seeds() != 1 {
		t.Errorf("Seeds = %d, want 1", idx.Seeds())
	}
	cands := idx.CandidateLocations(ref, 0)
	if len(cands) != 1 || cands[0].Pos != 0 || cands[0].Votes != 1 {
		t.Errorf("candidates = %v, want one at 0 with 1 vote", cands)
	}
	// Minimizer path with the single possible window.
	mini, err := BuildMinimizer(ref, 15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mini.Seeds() != 1 {
		t.Errorf("minimizer Seeds = %d, want 1", mini.Seeds())
	}
}

// TestMinimizerWindowOne pins the w=1 degenerate case: every window holds
// exactly one k-mer, so the "sampled" index keeps every seed and produces
// the same candidates as the full hash index.
func TestMinimizerWindowOne(t *testing.T) {
	ref := testRef(5000, 10)
	full, err := Build(ref, 13)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := BuildMinimizer(ref, 13, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w1.Seeds() != full.Seeds() {
		t.Errorf("w=1 minimizer has %d seeds, full index %d", w1.Seeds(), full.Seeds())
	}
	read := ref[1234:1334]
	if got, want := w1.CandidateLocations(read, 0), full.CandidateLocations(read, 0); !reflect.DeepEqual(got, want) {
		t.Errorf("w=1 candidates %v, full %v", got, want)
	}
	if st := w1.Stats(); st.Backend != BackendMinimizer || st.MinimizerW != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHashIndexStats(t *testing.T) {
	ref := testRef(2000, 15)
	idx, err := Build(ref, 11)
	if err != nil {
		t.Fatal(err)
	}
	st := idx.Stats()
	if st.Backend != BackendHash || st.K != 11 || st.MinimizerW != 0 ||
		st.RefLen != 2000 || st.Seeds != 2000-11+1 || st.Buckets == 0 || st.Bytes <= 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPackDistinct(t *testing.T) {
	a := pack([]byte{0, 1, 2, 3})
	b := pack([]byte{3, 2, 1, 0})
	c := pack([]byte{0, 1, 2, 2})
	if a == b || a == c || b == c {
		t.Fatalf("pack collisions: %d %d %d", a, b, c)
	}
}
