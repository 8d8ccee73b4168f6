package index

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"

	"genasm/internal/seq"
)

// tableRefs are references shaped to stress the directory: random bases;
// a homopolymer (all-A then all-T, so the first and last slots are used
// and nearly every other slot is empty); poly-A runs punctuated by random
// bases (many distinct keys share slot 0); a dinucleotide repeat; and a
// genome half covered by exact repeats (many locations per key).
func tableRefs() map[string][]byte {
	rng := rand.New(rand.NewPCG(40, 0))
	var runs []byte
	for len(runs) < 3000 {
		runs = append(runs, make([]byte, 40)...)
		runs = append(runs, seq.Random(rng, 8)...)
	}
	return map[string][]byte{
		"random":       testRef(3000, 41),
		"homopolymer":  append(make([]byte, 1500), bytes.Repeat([]byte{3}, 1500)...),
		"polyA-runs":   runs,
		"dinucleotide": bytes.Repeat([]byte{0, 1}, 1500),
		"repeat50": seq.Genome(rng, seq.GenomeConfig{
			Length: 3000, RepeatFraction: 0.5, RepeatLength: 200,
		}),
	}
}

// oracleTable is the naive seed table the CSR layout must reproduce:
// every indexed position under its packed k-mer, positions ascending.
// Minimizers are selected by the textbook definition, one window at a
// time with the k-mers repacked from scratch.
func oracleTable(ref []byte, k, w int) map[uint64][]int32 {
	n := len(ref) - k + 1
	keep := make([]bool, n)
	if w == 0 {
		for p := range keep {
			keep[p] = true
		}
	} else {
		last := -1
		for s := 0; s+w <= n; s++ {
			best := s
			for j := s + 1; j < s+w; j++ {
				if mix(pack(ref[j:j+k])) < mix(pack(ref[best:best+k])) {
					best = j
				}
			}
			if best != last {
				keep[best] = true
				last = best
			}
		}
	}
	oracle := make(map[uint64][]int32)
	for p, ok := range keep {
		if ok {
			key := pack(ref[p : p+k])
			oracle[key] = append(oracle[key], int32(p))
		}
	}
	return oracle
}

// unpack is the inverse of pack for a k-mer of length k.
func unpack(key uint64, k int) []byte {
	kmer := make([]byte, k)
	for i := k - 1; i >= 0; i-- {
		kmer[i] = byte(key & 3)
		key >>= 2
	}
	return kmer
}

// oracleCandidates seeds a read against the oracle table through the
// shared vote aggregation.
func oracleCandidates(oracle map[uint64][]int32, k int, read []byte) []Candidate {
	var s SeedScratch
	s.begin()
	for off := 0; off+k <= len(read); off++ {
		kmer := read[off : off+k]
		if slices.ContainsFunc(kmer, func(c byte) bool { return c > 3 }) {
			continue
		}
		for _, p := range oracle[pack(kmer)] {
			s.vote(int(p) - off)
		}
	}
	return slices.Clone(s.collect(0))
}

// TestTableMatchesOracle pins the CSR seed table, built and re-wrapped
// through NewTableIndex, to a naive map-of-slices oracle: table structure,
// every Lookup and every CandidateLocationsInto, for both hash-family
// backends over k from 1 to MaxK and references that leave directory
// slots empty, use the first and last slot, and crowd many keys into one
// slot.
func TestTableMatchesOracle(t *testing.T) {
	var sawEmpty, sawFirst, sawLast bool
	maxKeysPerSlot := 0
	for name, ref := range tableRefs() {
		for _, k := range []int{1, 2, 7, 15, 31} {
			for _, w := range []int{0, 5} {
				built, err := build(ref, k, w)
				if err != nil {
					t.Fatalf("%s k=%d w=%d: %v", name, k, w, err)
				}
				keys, offs, locs, dir := built.Table()
				wrapped, err := NewTableIndex(ref, k, w, keys, offs, locs, dir)
				if err != nil {
					t.Fatalf("%s k=%d w=%d: built table rejected: %v", name, k, w, err)
				}
				oracle := oracleTable(ref, k, w)
				if len(keys) != len(oracle) || built.Stats().Buckets != len(oracle) {
					t.Fatalf("%s k=%d w=%d: %d keys, oracle %d", name, k, w, len(keys), len(oracle))
				}
				for i, key := range keys {
					if !slices.Equal(locs[offs[i]:offs[i+1]], oracle[key]) {
						t.Fatalf("%s k=%d w=%d: key %d locations %v, oracle %v", name, k, w, key, locs[offs[i]:offs[i+1]], oracle[key])
					}
				}
				for s := 0; s+1 < len(dir); s++ {
					n := int(dir[s+1] - dir[s])
					sawEmpty = sawEmpty || n == 0
					sawFirst = sawFirst || (s == 0 && n > 0)
					sawLast = sawLast || (s+2 == len(dir) && n > 0)
					maxKeysPerSlot = max(maxKeysPerSlot, n)
				}

				// Lookups: every k-mer for small k, otherwise every indexed
				// k-mer plus random probes (mostly absent).
				rng := rand.New(rand.NewPCG(uint64(k), uint64(w)))
				var probes []uint64
				if k <= 5 {
					for key := uint64(0); key <= kmerMask(k); key++ {
						probes = append(probes, key)
					}
				} else {
					for key := range oracle {
						probes = append(probes, key)
					}
					for range 200 {
						probes = append(probes, rng.Uint64()&kmerMask(k))
					}
				}
				for _, key := range probes {
					kmer := unpack(key, k)
					for _, idx := range []*TableIndex{built, wrapped} {
						if got := idx.Lookup(kmer); !slices.Equal(got, oracle[key]) {
							t.Fatalf("%s k=%d w=%d: Lookup(%v) = %v, oracle %v", name, k, w, kmer, got, oracle[key])
						}
					}
				}

				// Candidates: exact, mutated and invalid-code reads.
				var s SeedScratch
				for trial := 0; trial < 12; trial++ {
					p := rng.IntN(len(ref) - 100)
					read := slices.Clone(ref[p : p+100])
					switch trial % 3 {
					case 1:
						for e := 0; e < 5; e++ {
							q := rng.IntN(len(read))
							read[q] = (read[q] + byte(1+rng.IntN(3))) % 4
						}
					case 2:
						read[rng.IntN(len(read))] = 4
					}
					want := oracleCandidates(oracle, k, read)
					for _, idx := range []*TableIndex{built, wrapped} {
						if got := idx.CandidateLocationsInto(&s, read, 0); !slices.Equal(got, want) {
							t.Fatalf("%s k=%d w=%d trial %d: candidates %v, oracle %v", name, k, w, trial, got, want)
						}
					}
				}
			}
		}
	}
	if !sawEmpty || !sawFirst || !sawLast || maxKeysPerSlot < 16 {
		t.Errorf("directory shapes not all exercised: empty=%v first=%v last=%v max keys/slot=%d",
			sawEmpty, sawFirst, sawLast, maxKeysPerSlot)
	}
}

// TestLookupNonDNA pins Lookup on seeds holding codes outside the DNA
// alphabet: they pack past the k-mer range, so they must miss instead of
// indexing past the directory.
func TestLookupNonDNA(t *testing.T) {
	ref := testRef(2000, 42)
	for _, k := range []int{1, 2, 11, MaxK} {
		idx, err := Build(ref, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range []byte{4, 255} {
			first := slices.Clone(ref[:k])
			first[0] = bad
			last := slices.Clone(ref[:k])
			last[k-1] = bad
			for _, kmer := range [][]byte{first, last} {
				if got := idx.Lookup(kmer); got != nil {
					t.Errorf("k=%d: Lookup(%v) = %v, want nil", k, kmer, got)
				}
			}
		}
	}
}

// TestNewTableIndexRejects feeds damaged tables to NewTableIndex: each
// must be an error, never a table that could index out of bounds.
func TestNewTableIndexRejects(t *testing.T) {
	ref := testRef(2000, 43)
	built, err := Build(ref, 9)
	if err != nil {
		t.Fatal(err)
	}
	keys, offs, locs, dir := built.Table()
	last := len(dir) - 1
	cases := []struct {
		name   string
		mutate func(keys []uint64, offs []uint32, locs []int32, dir []uint32) ([]uint64, []uint32, []int32, []uint32)
	}{
		{"directory too short", func(ks []uint64, os []uint32, ls []int32, d []uint32) ([]uint64, []uint32, []int32, []uint32) {
			return ks, os, ls, d[:last]
		}},
		{"directory too long", func(ks []uint64, os []uint32, ls []int32, d []uint32) ([]uint64, []uint32, []int32, []uint32) {
			return ks, os, ls, append(d, d[last])
		}},
		{"directory first entry", func(ks []uint64, os []uint32, ls []int32, d []uint32) ([]uint64, []uint32, []int32, []uint32) {
			d[0] = 1
			return ks, os, ls, d
		}},
		{"directory not monotone", func(ks []uint64, os []uint32, ls []int32, d []uint32) ([]uint64, []uint32, []int32, []uint32) {
			d[last/2] = d[last/2+1] + 1
			return ks, os, ls, d
		}},
		{"directory last entry", func(ks []uint64, os []uint32, ls []int32, d []uint32) ([]uint64, []uint32, []int32, []uint32) {
			d[last]--
			return ks, os, ls, d
		}},
		{"keys not ascending", func(ks []uint64, os []uint32, ls []int32, d []uint32) ([]uint64, []uint32, []int32, []uint32) {
			ks[1] = ks[0]
			return ks, os, ls, d
		}},
		{"key beyond k-mer range", func(ks []uint64, os []uint32, ls []int32, d []uint32) ([]uint64, []uint32, []int32, []uint32) {
			ks[len(ks)-1] = kmerMask(9) + 1
			return ks, os, ls, d
		}},
		{"offsets short", func(ks []uint64, os []uint32, ls []int32, d []uint32) ([]uint64, []uint32, []int32, []uint32) {
			return ks, os[:len(os)-1], ls, d
		}},
		{"offsets not monotone", func(ks []uint64, os []uint32, ls []int32, d []uint32) ([]uint64, []uint32, []int32, []uint32) {
			os[1] = os[2] + 1
			return ks, os, ls, d
		}},
		{"location out of range", func(ks []uint64, os []uint32, ls []int32, d []uint32) ([]uint64, []uint32, []int32, []uint32) {
			ls[3] = int32(len(ref))
			return ks, os, ls, d
		}},
	}
	for _, tc := range cases {
		ks, os, ls, d := tc.mutate(slices.Clone(keys), slices.Clone(offs), slices.Clone(locs), slices.Clone(dir))
		if _, err := NewTableIndex(ref, 9, 0, ks, os, ls, d); err == nil {
			t.Errorf("%s: damaged table accepted", tc.name)
		}
	}
	if _, err := NewTableIndex(ref, 9, -1, keys, offs, locs, dir); err == nil {
		t.Error("negative window accepted")
	}
}
