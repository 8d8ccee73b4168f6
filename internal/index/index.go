// Package index implements the candidate-generation backends of read
// mapping (Figure 1, steps 0 and 1, and the "hash-table based indexing"
// use case of Section 11): a k-mer seed table over the reference (all
// fixed-length seeds keyed to their locations), minimizer sampling as used
// by Minimap2-class mappers to shrink the index, and an SA-IS suffix array
// with binary-search seeding. All backends implement SeedIndex, so the
// mapping pipeline is agnostic to which one generated its candidates.
package index

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
)

// TableIndex is the seed table of the hash and minimizer backends: a CSR
// layout of flat arrays, identical whether it was built in memory or
// served zero-copy from an mmapped index file (NewTableIndex).
//
//   - keys: the distinct packed k-mers, ascending.
//   - offs: len(keys)+1 offsets; offs[i]:offs[i+1] brackets key i's span of
//     locs.
//   - locs: reference positions, ascending within each key.
//   - dir: a bucket directory on the keys' top bits; the keys of slot s are
//     keys[dir[s]:dir[s+1]]. Its size is fixed by the seed count and k
//     (about four seeds per slot), so a lookup reads one directory entry
//     and searches a handful of keys.
type TableIndex struct {
	k     int
	w     int // minimizer window; 0 for the unsampled hash backend
	ref   []byte
	keys  []uint64
	offs  []uint32
	locs  []int32
	dir   []uint32
	shift uint // key >> shift is the key's directory slot
}

// Build indexes every k-mer of the encoded reference.
func Build(ref []byte, k int) (*TableIndex, error) {
	return build(ref, k, 0)
}

// BuildMinimizer indexes only window minimizers: for every window of w
// consecutive k-mers, the lexicographically smallest (after hashing) is
// kept. This is Minimap2's sampling scheme, shrinking the index roughly
// 2/(w+1)-fold while preserving mapability. w=1 degenerates to keeping
// every k-mer (each window holds exactly one candidate).
func BuildMinimizer(ref []byte, k, w int) (*TableIndex, error) {
	if w < 1 {
		return nil, fmt.Errorf("index: minimizer window %d < 1", w)
	}
	return build(ref, k, w)
}

func build(ref []byte, k, w int) (*TableIndex, error) {
	if k < 1 || k > MaxK {
		return nil, &KRangeError{K: k}
	}
	if len(ref) < k {
		return nil, fmt.Errorf("index: reference length %d < k=%d", len(ref), k)
	}
	// One rolling pass validates the codes and packs every k-mer with a
	// 2-bit shift-in: O(n) total instead of O(n·k) per-position repacking.
	kmers := make([]uint64, len(ref)-k+1)
	mask := kmerMask(k)
	var key uint64
	for i, c := range ref {
		if c > 3 {
			return nil, fmt.Errorf("index: invalid code %d at %d", c, i)
		}
		key = key<<2 | uint64(c)
		if i >= k-1 {
			kmers[i-k+1] = key & mask
		}
	}
	var sampled []int32
	if w > 0 {
		sampled = minimizers(kmers, w)
	}
	return newTable(ref, k, w, kmers, sampled), nil
}

// minimizers returns the ascending positions of the window minimizers of
// the packed k-mers, ordered by their mixed hash (first minimum wins).
func minimizers(kmers []uint64, w int) []int32 {
	hashes := make([]uint64, len(kmers))
	for i, km := range kmers {
		hashes[i] = mix(km)
	}
	pos := make([]int32, 0, 2*len(kmers)/(w+1)+1)
	lastKept := -1
	for s := 0; s+w <= len(kmers); s++ {
		best := s
		for j := s + 1; j < s+w; j++ {
			if hashes[j] < hashes[best] {
				best = j
			}
		}
		if best != lastKept {
			pos = append(pos, int32(best))
			lastKept = best
		}
	}
	return pos
}

// newTable lays out the seeds — the positions in sampled, or every
// position when sampled is nil — whose packed k-mer at position p is
// kmers[p]. A counting sort on the directory slot groups the seeds, then
// each slot is ordered by (k-mer, position), so the table is built from
// flat arrays with no per-key allocation.
func newTable(ref []byte, k, w int, kmers []uint64, sampled []int32) *TableIndex {
	n := len(kmers)
	if sampled != nil {
		n = len(sampled)
	}
	seed := func(i int) int32 {
		if sampled == nil {
			return int32(i)
		}
		return sampled[i]
	}
	slots, shift := dirShape(n, k)

	// cnt[s] counts slot s's seeds; the exclusive prefix sum turns it into
	// the slot's first index in locs, and placing the seeds advances it to
	// the slot's end.
	cnt := make([]uint32, slots+1)
	for i := 0; i < n; i++ {
		cnt[kmers[seed(i)]>>shift]++
	}
	var sum uint32
	for s := range cnt {
		cnt[s], sum = sum, sum+cnt[s]
	}
	locs := make([]int32, n)
	for i := 0; i < n; i++ {
		p := seed(i)
		s := kmers[p] >> shift
		locs[cnt[s]] = p
		cnt[s]++
	}
	byKey := func(a, b int32) int {
		return cmp.Or(cmp.Compare(kmers[a], kmers[b]), cmp.Compare(a, b))
	}
	lo := uint32(0)
	for _, hi := range cnt[:slots] {
		if hi-lo > 1 {
			slices.SortFunc(locs[lo:hi], byKey)
		}
		lo = hi
	}

	distinct := 0
	for i, p := range locs {
		if i == 0 || kmers[p] != kmers[locs[i-1]] {
			distinct++
		}
	}
	keys := make([]uint64, 0, distinct)
	offs := make([]uint32, 0, distinct+1)
	for i, p := range locs {
		if i == 0 || kmers[p] != kmers[locs[i-1]] {
			keys = append(keys, kmers[p])
			offs = append(offs, uint32(i))
		}
	}
	offs = append(offs, uint32(n))

	// The directory counts keys per slot the same way: dir[s] is the
	// number of keys in slots before s.
	dir := cnt
	clear(dir)
	for _, key := range keys {
		dir[key>>shift+1]++
	}
	for s := 1; s < len(dir); s++ {
		dir[s] += dir[s-1]
	}
	return &TableIndex{k: k, w: w, ref: ref, keys: keys, offs: offs, locs: locs, dir: dir, shift: shift}
}

// dirShape sizes the directory of a table holding the given number of
// seeds: a power-of-two slot count giving about four seeds per slot, never
// more slots than there are distinct k-mers, each slot addressed by the
// key's top bits (key >> shift).
func dirShape(seeds, k int) (slots int, shift uint) {
	b := min(bits.Len(uint(seeds/4)), 2*k)
	return 1 << b, uint(2*k - b)
}

// NewTableIndex wraps the arrays of a seed table (for example views into
// an mmap-loaded index file) without rebuilding it; w is the minimizer
// window, 0 for the unsampled hash backend. The structure is bounds-checked
// here once, so a corrupt file surfaces as an error, never as a panic in
// the seeding hot path: offsets are monotone and cover locs exactly, keys
// are strictly ascending k-mers, every location is a valid k-mer start,
// and the directory has the size its seed count fixes and is monotone
// from 0 to len(keys).
func NewTableIndex(ref []byte, k, w int, keys []uint64, offs []uint32, locs []int32, dir []uint32) (*TableIndex, error) {
	if k < 1 || k > MaxK {
		return nil, &KRangeError{K: k}
	}
	if w < 0 {
		return nil, fmt.Errorf("index: minimizer window %d < 0", w)
	}
	if len(ref) < k {
		return nil, fmt.Errorf("index: reference length %d < k=%d", len(ref), k)
	}
	if len(offs) != len(keys)+1 {
		return nil, fmt.Errorf("index: %d offsets for %d keys", len(offs), len(keys))
	}
	if offs[0] != 0 || int(offs[len(offs)-1]) != len(locs) {
		return nil, fmt.Errorf("index: offsets span [%d,%d] over %d locations", offs[0], offs[len(offs)-1], len(locs))
	}
	for i, o := range offs[1:] {
		if o < offs[i] {
			return nil, fmt.Errorf("index: offsets not monotone at %d", i+1)
		}
	}
	limit := uint32(len(ref) - k)
	for i, p := range locs {
		if uint32(p) > limit {
			return nil, fmt.Errorf("index: location %d out of range: %d", i, p)
		}
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return nil, fmt.Errorf("index: keys not strictly ascending at %d", i)
		}
	}
	if len(keys) > 0 && keys[len(keys)-1] > kmerMask(k) {
		return nil, fmt.Errorf("index: key exceeds the %d-mer range", k)
	}
	slots, shift := dirShape(len(locs), k)
	if len(dir) != slots+1 {
		return nil, fmt.Errorf("index: directory has %d entries, want %d for %d seeds", len(dir), slots+1, len(locs))
	}
	if dir[0] != 0 || int(dir[slots]) != len(keys) {
		return nil, fmt.Errorf("index: directory spans [%d,%d] over %d keys", dir[0], dir[slots], len(keys))
	}
	for s, d := range dir[1:] {
		if d < dir[s] {
			return nil, fmt.Errorf("index: directory not monotone at %d", s+1)
		}
	}
	return &TableIndex{k: k, w: w, ref: ref, keys: keys, offs: offs, locs: locs, dir: dir, shift: shift}, nil
}

// kmerMask is the low-bits mask of a packed k-mer (2 bits per base).
func kmerMask(k int) uint64 {
	return uint64(1)<<(2*k) - 1
}

// pack encodes a k-mer of 2-bit codes into a uint64.
func pack(kmer []byte) uint64 {
	var v uint64
	for _, c := range kmer {
		v = v<<2 | uint64(c)
	}
	return v
}

// mix is a 64-bit finalizer (splitmix64) used to order minimizer
// candidates pseudo-randomly, avoiding the poly-A bias of lexicographic
// order.
func mix(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// K returns the seed length.
func (t *TableIndex) K() int { return t.k }

// Seeds returns the number of indexed seed positions.
func (t *TableIndex) Seeds() int { return len(t.locs) }

// Ref returns the indexed reference.
func (t *TableIndex) Ref() []byte { return t.ref }

// Table returns the table's arrays (shared, not to be modified) — the
// backend payload of the on-disk format; see TableIndex.
func (t *TableIndex) Table() (keys []uint64, offs []uint32, locs []int32, dir []uint32) {
	return t.keys, t.offs, t.locs, t.dir
}

// Stats implements SeedIndex; Bytes is the footprint of the arrays plus
// the reference.
func (t *TableIndex) Stats() Stats {
	backend := BackendHash
	if t.w > 0 {
		backend = BackendMinimizer
	}
	return Stats{
		Backend:    backend,
		K:          t.k,
		MinimizerW: t.w,
		RefLen:     len(t.ref),
		Seeds:      len(t.locs),
		Buckets:    len(t.keys),
		Bytes:      int64(len(t.ref)) + 8*int64(len(t.keys)) + 4*int64(len(t.offs)+len(t.locs)+len(t.dir)),
	}
}

// span returns the locations of a packed k-mer (nil if absent). The
// search covers only the keys of the k-mer's directory slot; it is a
// manual loop so the seeding hot path stays allocation-free.
func (t *TableIndex) span(key uint64) []int32 {
	s := key >> t.shift
	lo, end := int(t.dir[s]), int(t.dir[s+1])
	hi := end
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && t.keys[lo] == key {
		return t.locs[t.offs[lo]:t.offs[lo+1]]
	}
	return nil
}

// Lookup returns the reference positions of the seed (nil if absent or if
// the seed holds a code outside the DNA alphabet). The returned slice is
// shared with the index and must not be modified.
func (t *TableIndex) Lookup(kmer []byte) []int32 {
	if len(kmer) != t.k {
		return nil
	}
	for _, c := range kmer {
		if c > 3 {
			return nil
		}
	}
	return t.span(pack(kmer))
}

// CandidateLocations runs the seeding step (Figure 1, step 1) with
// throwaway scratch; see CandidateLocationsInto.
func (t *TableIndex) CandidateLocations(read []byte, maxCandidates int) []Candidate {
	var s SeedScratch
	return t.CandidateLocationsInto(&s, read, maxCandidates)
}

// CandidateLocationsInto implements SeedIndex: every k-mer of the read is
// looked up and each hit votes for the implied read start position (hit
// position minus read offset); SeedScratch.collect aggregates the votes
// into ranked candidates. The returned slice views s.cands and stays valid
// until the scratch's next use. Read k-mers are packed with a rolling
// 2-bit update (O(n) instead of O(n·k)); k-mers containing codes outside
// the DNA alphabet cast no votes.
func (t *TableIndex) CandidateLocationsInto(s *SeedScratch, read []byte, maxCandidates int) []Candidate {
	s.begin()
	mask := kmerMask(t.k)
	var key uint64
	valid := 0 // consecutive in-alphabet codes ending at the current base
	for i, c := range read {
		if c > 3 {
			valid = 0
			continue
		}
		valid++
		key = key<<2 | uint64(c)
		if valid < t.k {
			continue
		}
		off := i - t.k + 1
		for _, pos := range t.span(key & mask) {
			s.vote(int(pos) - off)
		}
	}
	return s.collect(maxCandidates)
}
