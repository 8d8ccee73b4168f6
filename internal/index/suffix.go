package index

import "fmt"

// SuffixIndex is the suffix-array backend of SeedIndex: SA-IS construction
// (linear-time induced sorting, the algorithm Minimap2-era toolchains use
// for BWT/FM construction) and binary-search seeding. Where the hash
// backends trade memory for O(1) per-k-mer lookups, the suffix array is a
// compact ordered structure — 4 bytes per base, no buckets — whose lookups
// cost O(log n) comparisons, the classic B-tree-vs-hash tradeoff of
// database index design. Seed hits feed the same SeedScratch voting as
// every other backend, so candidates are identical by construction.
type SuffixIndex struct {
	k   int
	ref []byte
	sa  []int32
}

// BuildSuffixArray builds the suffix array of the encoded reference with
// SA-IS and returns it as a SeedIndex with seed length k.
func BuildSuffixArray(ref []byte, k int) (*SuffixIndex, error) {
	if k < 1 || k > MaxK {
		return nil, &KRangeError{K: k}
	}
	if len(ref) < k {
		return nil, fmt.Errorf("index: reference length %d < k=%d", len(ref), k)
	}
	for i, c := range ref {
		if c > 3 {
			return nil, fmt.Errorf("index: invalid code %d at %d", c, i)
		}
	}
	return &SuffixIndex{k: k, ref: ref, sa: suffixArray(ref)}, nil
}

// NewSuffixIndex wraps a prebuilt suffix array (for example a view into an
// mmap-loaded index file) without rebuilding it. The array must be the
// suffix array of ref; entries are bounds-checked here so a corrupt file
// surfaces as an error, never a panic in the seeding hot path.
func NewSuffixIndex(ref []byte, sa []int32, k int) (*SuffixIndex, error) {
	if k < 1 || k > MaxK {
		return nil, &KRangeError{K: k}
	}
	if len(sa) != len(ref) {
		return nil, fmt.Errorf("index: suffix array length %d != reference length %d", len(sa), len(ref))
	}
	for i, p := range sa {
		if p < 0 || int(p) >= len(ref) {
			return nil, fmt.Errorf("index: suffix array entry %d out of range: %d", i, p)
		}
	}
	return &SuffixIndex{k: k, ref: ref, sa: sa}, nil
}

// K implements SeedIndex.
func (si *SuffixIndex) K() int { return si.k }

// Ref implements SeedIndex.
func (si *SuffixIndex) Ref() []byte { return si.ref }

// SA returns the suffix array (shared, not to be modified) — the backend
// payload of the on-disk format.
func (si *SuffixIndex) SA() []int32 { return si.sa }

// Stats implements SeedIndex.
func (si *SuffixIndex) Stats() Stats {
	return Stats{
		Backend: BackendSuffixArray,
		K:       si.k,
		RefLen:  len(si.ref),
		Seeds:   len(si.sa),
		Bytes:   int64(len(si.ref)) + 4*int64(len(si.sa)),
	}
}

// CandidateLocationsInto implements SeedIndex: every k-mer of the read is
// located in the suffix array with two binary searches (lower and upper
// bound over k-byte prefixes) and each occurrence votes for the implied
// read start, aggregated by the shared SeedScratch. K-mers containing
// codes outside the DNA alphabet cast no votes. The hot path performs no
// allocations: the searches are manual loops over the shared array.
func (si *SuffixIndex) CandidateLocationsInto(s *SeedScratch, read []byte, maxCandidates int) []Candidate {
	s.begin()
	k := si.k
	lastBad := -1
	for i, c := range read {
		if c > 3 {
			lastBad = i
			continue
		}
		off := i - k + 1
		if off < 0 || lastBad >= off {
			continue
		}
		lo, hi := si.searchRange(read[off : off+k])
		for _, p := range si.sa[lo:hi] {
			s.vote(int(p) - off)
		}
	}
	return s.collect(maxCandidates)
}

// cmpPrefix compares the suffix starting at p against kmer over at most
// len(kmer) bytes: negative/zero/positive as the suffix's k-prefix sorts
// before/equals/after kmer. A suffix shorter than k that matches as far as
// it goes sorts before (so positions past len(ref)-k never report a hit).
func (si *SuffixIndex) cmpPrefix(p int32, kmer []byte) int {
	suf := si.ref[p:]
	for i, c := range kmer {
		if i >= len(suf) {
			return -1
		}
		if suf[i] != c {
			return int(suf[i]) - int(c)
		}
	}
	return 0
}

// searchRange returns the half-open suffix-array interval of suffixes
// whose first k bytes equal kmer.
func (si *SuffixIndex) searchRange(kmer []byte) (int, int) {
	// Lower bound: first suffix not below kmer.
	lo, hi := 0, len(si.sa)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if si.cmpPrefix(si.sa[mid], kmer) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := lo
	// Upper bound: first suffix whose k-prefix exceeds kmer.
	hi = len(si.sa)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if si.cmpPrefix(si.sa[mid], kmer) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return start, lo
}

// suffixArray computes the suffix array of s (codes 0..3) via SA-IS. A
// unique smallest sentinel is appended internally (codes shift to 1..4),
// so the recursion always works on sentinel-terminated strings; the
// sentinel's own suffix is dropped from the result.
func suffixArray(s []byte) []int32 {
	n := len(s)
	w := make([]int32, n+1)
	for i, c := range s {
		w[i] = int32(c) + 1
	}
	w[n] = 0
	sa := make([]int32, n+1)
	sais(w, 5, sa)
	return sa[1:]
}

// sais fills sa with the suffix array of s, which must end with a unique
// smallest sentinel (s[n-1] strictly below every other value); values lie
// in [0, sigma). This is the induced-sorting algorithm of Nong, Zhang and
// Chan (2009): classify suffixes L/S, sort the LMS substrings by one
// induction pass, name them to form a reduced string, recurse if names
// repeat, then induce the full order from the sorted LMS suffixes.
func sais(s []int32, sigma int, sa []int32) {
	n := len(s)
	if n == 1 {
		sa[0] = 0
		return
	}
	// Classify: t[i] reports suffix i S-type (smaller than its successor).
	t := make([]bool, n)
	t[n-1] = true
	for i := n - 2; i >= 0; i-- {
		t[i] = s[i] < s[i+1] || (s[i] == s[i+1] && t[i+1])
	}
	isLMS := func(i int32) bool { return i > 0 && t[i] && !t[i-1] }

	bkt := make([]int32, sigma)
	bktTails := func() {
		for i := range bkt {
			bkt[i] = 0
		}
		for _, c := range s {
			bkt[c]++
		}
		var sum int32
		for i := range bkt {
			sum += bkt[i]
			bkt[i] = sum
		}
	}
	bktHeads := func() {
		for i := range bkt {
			bkt[i] = 0
		}
		for _, c := range s {
			bkt[c]++
		}
		var sum int32
		for i := range bkt {
			c := bkt[i]
			bkt[i] = sum
			sum += c
		}
	}

	// induce derives the order of all L then all S suffixes from the
	// currently placed entries (sa uses -1 for empty slots).
	induce := func() {
		bktHeads()
		for i := 0; i < n; i++ {
			j := sa[i] - 1
			if sa[i] > 0 && !t[j] {
				sa[bkt[s[j]]] = j
				bkt[s[j]]++
			}
		}
		bktTails()
		for i := n - 1; i >= 0; i-- {
			j := sa[i] - 1
			if sa[i] > 0 && t[j] {
				bkt[s[j]]--
				sa[bkt[s[j]]] = j
			}
		}
	}

	// Pass 1: drop the LMS suffixes at their bucket tails in text order
	// and induce — this sorts the LMS *substrings*.
	for i := range sa {
		sa[i] = -1
	}
	bktTails()
	for i := int32(1); i < int32(n); i++ {
		if isLMS(i) {
			bkt[s[i]]--
			sa[bkt[s[i]]] = i
		}
	}
	induce()

	// Compact the sorted LMS positions to the front of sa.
	n1 := 0
	for i := 0; i < n; i++ {
		if isLMS(sa[i]) {
			sa[n1] = sa[i]
			n1++
		}
	}

	// Name the LMS substrings in sorted order; equal neighbors share a
	// name. Names are scattered at pos/2 in sa's tail (no two LMS
	// positions are adjacent, so the slots cannot collide).
	for i := n1; i < n; i++ {
		sa[i] = -1
	}
	var names int32
	prev := int32(-1)
	for i := 0; i < n1; i++ {
		pos := sa[i]
		if prev < 0 || !lmsEqual(s, t, isLMS, prev, pos) {
			names++
			prev = pos
		}
		sa[n1+int(pos)/2] = names - 1
	}
	// Collapse the scattered names into the reduced string s1: the LMS
	// substring sequence in text order.
	s1 := make([]int32, 0, n1)
	for i := n1; i < n; i++ {
		if sa[i] >= 0 {
			s1 = append(s1, sa[i])
		}
	}

	// Sort the LMS suffixes: directly if every name is unique, otherwise
	// by recursion on the reduced string (which ends with the sentinel's
	// name 0, itself unique and smallest).
	sa1 := make([]int32, n1)
	if int(names) == n1 {
		for i, c := range s1 {
			sa1[c] = int32(i)
		}
	} else {
		sais(s1, int(names), sa1)
	}

	// Map reduced positions back to text positions.
	lms := make([]int32, 0, n1)
	for i := int32(1); i < int32(n); i++ {
		if isLMS(i) {
			lms = append(lms, i)
		}
	}
	for i := range sa1 {
		sa1[i] = lms[sa1[i]]
	}

	// Pass 2: place the now fully sorted LMS suffixes at their bucket
	// tails and induce the final order.
	for i := range sa {
		sa[i] = -1
	}
	bktTails()
	for i := n1 - 1; i >= 0; i-- {
		j := sa1[i]
		bkt[s[j]]--
		sa[bkt[s[j]]] = j
	}
	induce()
}

// lmsEqual reports whether the LMS substrings at a and b are identical
// (same characters and types up to and including the next LMS position).
func lmsEqual(s []int32, t []bool, isLMS func(int32) bool, a, b int32) bool {
	n := int32(len(s))
	if a == n-1 || b == n-1 {
		return a == b // the sentinel's LMS substring is unique
	}
	if s[a] != s[b] {
		return false
	}
	for i := int32(1); ; i++ {
		aEnd, bEnd := isLMS(a+i), isLMS(b+i)
		if aEnd && bEnd {
			return s[a+i] == s[b+i]
		}
		if aEnd != bEnd || s[a+i] != s[b+i] || t[a+i] != t[b+i] {
			return false
		}
	}
}
