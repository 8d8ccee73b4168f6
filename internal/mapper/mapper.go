// Package mapper assembles the full read-mapping pipeline of Figure 1:
// indexing (offline), seeding, pre-alignment filtering and read alignment,
// with the alignment step pluggable so the pipeline can run with GenASM,
// with classic affine-gap DP (the BWA-MEM/Minimap2 stand-in) or with GACT
// — enabling the Figure 11 end-to-end comparison of swapping only the
// alignment step.
package mapper

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"genasm/internal/cigar"
	"genasm/internal/core"
	"genasm/internal/dp"
	"genasm/internal/filter"
	"genasm/internal/gact"
	"genasm/internal/index"
	"genasm/internal/seq"
)

// Aligner is the pipeline's pluggable alignment step: align read against a
// candidate reference region.
type Aligner interface {
	Name() string
	// AlignRegion aligns read (fully consumed) against region; start is
	// the offset within region where the alignment begins.
	AlignRegion(region, read []byte) (cg cigar.Cigar, start int, err error)
}

// ContextAligner is an Aligner that can honor context cancellation — e.g.
// one drawing scratch from a bounded workspace pool, where a saturated pool
// should return ctx.Err() instead of blocking a mapping pipeline forever.
// MapReadContext prefers this method when the alignment step provides it.
type ContextAligner interface {
	Aligner
	AlignRegionContext(ctx context.Context, region, read []byte) (cg cigar.Cigar, start int, err error)
}

// IntoAligner is an Aligner that can append the alignment's CIGAR into a
// caller-provided buffer (reusing its capacity; pass buf[:0] semantics are
// the caller's choice via CloneInto) instead of allocating a fresh one per
// call. The returned CIGAR is owned by the caller. The pipeline's per-read
// loop prefers this method, making the per-candidate alignment step
// allocation-free in steady state.
type IntoAligner interface {
	Aligner
	AlignRegionInto(ctx context.Context, region, read []byte, buf cigar.Cigar) (cigar.Cigar, int, error)
}

// alignRegion dispatches to the context-aware alignment step when available.
func alignRegion(ctx context.Context, a Aligner, region, read []byte) (cigar.Cigar, int, error) {
	if ca, ok := a.(ContextAligner); ok {
		return ca.AlignRegionContext(ctx, region, read)
	}
	return a.AlignRegion(region, read)
}

// alignRegionInto dispatches to the buffer-reusing alignment step when
// available, falling back to copying a plain AlignRegion result into buf
// so the caller always owns what it gets back.
func alignRegionInto(ctx context.Context, a Aligner, region, read []byte, buf cigar.Cigar) (cigar.Cigar, int, error) {
	if ia, ok := a.(IntoAligner); ok {
		return ia.AlignRegionInto(ctx, region, read, buf)
	}
	cg, start, err := alignRegion(ctx, a, region, read)
	if err != nil {
		return buf, start, err
	}
	return cg.CloneInto(buf), start, nil
}

// GenASMAligner is the paper's accelerator algorithm as the alignment step.
type GenASMAligner struct {
	ws *core.Workspace
}

// NewGenASMAligner builds a GenASM alignment step with the paper's default
// configuration (W=64, O=24, search in the first window).
func NewGenASMAligner() (*GenASMAligner, error) {
	ws, err := core.New(core.Config{FindFirstWindowStart: true})
	if err != nil {
		return nil, err
	}
	return &GenASMAligner{ws: ws}, nil
}

// Name implements Aligner.
func (a *GenASMAligner) Name() string { return "GenASM" }

// AlignRegion implements Aligner. The returned CIGAR is cloned out of the
// workspace's arena, so it is safe to retain across calls.
func (a *GenASMAligner) AlignRegion(region, read []byte) (cigar.Cigar, int, error) {
	aln, err := a.ws.Align(region, read)
	if err != nil {
		return nil, 0, err
	}
	return aln.Cigar.Clone(), aln.TextStart, nil
}

// AlignRegionInto implements IntoAligner: the workspace-arena CIGAR is
// copied into buf's storage, avoiding the per-call clone.
func (a *GenASMAligner) AlignRegionInto(_ context.Context, region, read []byte, buf cigar.Cigar) (cigar.Cigar, int, error) {
	aln, err := a.ws.Align(region, read)
	if err != nil {
		return buf, 0, err
	}
	return aln.Cigar.CloneInto(buf), aln.TextStart, nil
}

// DPAligner is the software-baseline alignment step: banded affine-gap
// fit alignment, the algorithmic core of BWA-MEM's and Minimap2's
// alignment steps.
type DPAligner struct {
	// Scoring defaults to cigar.Minimap2.
	Scoring cigar.Scoring
	// Band restricts the DP to a diagonal band (0 = full matrix).
	Band int
}

// Name implements Aligner.
func (a DPAligner) Name() string { return "DP" }

// AlignRegion implements Aligner.
func (a DPAligner) AlignRegion(region, read []byte) (cigar.Cigar, int, error) {
	sc := a.Scoring
	if sc == (cigar.Scoring{}) {
		sc = cigar.Minimap2
	}
	res := dp.Align(region, read, sc, dp.Fit, a.Band)
	return res.Cigar, res.TextStart, nil
}

// GACTAligner is Darwin's tiled DP as the alignment step.
type GACTAligner struct {
	Config gact.Config
}

// Name implements Aligner.
func (GACTAligner) Name() string { return "GACT" }

// Anchored reports that GACT starts its alignment exactly at the region
// start, so the pipeline hands it regions without leading slack.
func (GACTAligner) Anchored() bool { return true }

// AlignRegion implements Aligner.
func (a GACTAligner) AlignRegion(region, read []byte) (cigar.Cigar, int, error) {
	res, err := gact.Align(region, read, a.Config)
	if err != nil {
		return nil, 0, err
	}
	return res.Cigar, 0, nil
}

// Config parameterizes the pipeline.
type Config struct {
	// SeedK is the seed length (default 15).
	SeedK int
	// MinimizerW samples the index with minimizers when > 0.
	MinimizerW int
	// MaxCandidates bounds the candidate locations tried per strand
	// (default 8).
	MaxCandidates int
	// ErrorRate is the expected sequencing error rate, used for region
	// slack and the filtering threshold (default 0.10).
	ErrorRate float64
	// Filter is the optional pre-alignment filter (step 2 of Figure 1);
	// nil maps without filtering.
	Filter filter.Filter
	// Aligner is the alignment step (step 3); defaults to GenASM.
	Aligner Aligner
	// Trace optionally observes every pipeline stage (seeding, filtering,
	// alignment) of every read. Hooks must be concurrency-safe; see Trace.
	Trace *Trace
}

func (c Config) withDefaults() (Config, error) {
	if c.SeedK == 0 {
		c.SeedK = 15
	}
	if c.SeedK < 1 || c.SeedK > index.MaxK {
		return c, &index.KRangeError{K: c.SeedK}
	}
	if c.MaxCandidates == 0 {
		c.MaxCandidates = 8
	}
	if c.ErrorRate == 0 {
		c.ErrorRate = 0.10
	}
	if c.Aligner == nil {
		a, err := NewGenASMAligner()
		if err != nil {
			return c, err
		}
		c.Aligner = a
	}
	return c, nil
}

// Mapping is the result of mapping one read.
type Mapping struct {
	// Mapped reports whether any candidate produced an alignment.
	Mapped bool
	// Pos is the reference position the read aligned to.
	Pos int
	// RevComp reports whether the reverse-complement strand aligned.
	RevComp bool
	// Cigar of the best alignment.
	Cigar cigar.Cigar
	// Distance is the edit distance of the best alignment.
	Distance int
	// Candidates is the number of candidate locations considered.
	Candidates int
	// Filtered is the number of candidates rejected by the pre-alignment
	// filter.
	Filtered int
	// Aligned is the number of candidates that reached the alignment
	// step.
	Aligned int
}

// mapScratch is the per-read scratch of the mapping pipeline: the
// reverse-complement buffer, the seeding vote maps and candidate list, the
// pre-alignment filter's searcher, and a CIGAR double-buffer (the current
// candidate's alignment and the best one kept so far). One scratch serves
// one in-flight MapRead; the Mapper pools them so steady-state mapping
// performs no per-read scratch allocations.
type mapScratch struct {
	rc   []byte
	seed index.SeedScratch
	flt  filter.Scratch
	cur  cigar.Cigar
	best cigar.Cigar
}

// Mapper maps reads against an indexed reference. It is safe for
// concurrent use when its Aligner and Filter are (per-read scratch is
// pooled internally).
type Mapper struct {
	cfg     Config
	idx     index.SeedIndex
	ref     []byte
	scratch sync.Pool // of *mapScratch
}

// New indexes the encoded reference and returns a ready Mapper.
func New(ref []byte, cfg Config) (*Mapper, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	var idx *index.TableIndex
	if cfg.MinimizerW > 0 {
		idx, err = index.BuildMinimizer(ref, cfg.SeedK, cfg.MinimizerW)
	} else {
		idx, err = index.Build(ref, cfg.SeedK)
	}
	if err != nil {
		return nil, err
	}
	return &Mapper{cfg: cfg, idx: idx, ref: ref}, nil
}

// NewFromIndex builds a Mapper over a prebuilt seed index — any SeedIndex
// backend, including one loaded from an index file — skipping the indexing
// step entirely. The seeding parameters come from the index itself;
// cfg.SeedK and cfg.MinimizerW are ignored.
func NewFromIndex(idx index.SeedIndex, cfg Config) (*Mapper, error) {
	st := idx.Stats()
	cfg.SeedK = st.K
	cfg.MinimizerW = st.MinimizerW
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Mapper{cfg: cfg, idx: idx, ref: idx.Ref()}, nil
}

// Index exposes the underlying seed index.
func (m *Mapper) Index() index.SeedIndex { return m.idx }

// MapRead maps one encoded read, trying both strands, and returns the
// lowest-edit-distance alignment across all surviving candidates.
func (m *Mapper) MapRead(read []byte) (Mapping, error) {
	return m.MapReadContext(context.Background(), read)
}

// MapReadContext is MapRead with cancellation: it checks ctx between
// candidates and returns ctx.Err() as soon as the context ends (including
// when a ContextAligner alignment step reports it).
func (m *Mapper) MapReadContext(ctx context.Context, read []byte) (Mapping, error) {
	if len(read) < m.cfg.SeedK {
		return Mapping{}, fmt.Errorf("mapper: read length %d below seed length %d", len(read), m.cfg.SeedK)
	}
	tr := m.cfg.Trace
	readStart := tr.now(tr != nil && tr.ReadDone != nil)
	s, _ := m.scratch.Get().(*mapScratch)
	if s == nil {
		s = &mapScratch{}
	}
	defer m.scratch.Put(s)
	best := Mapping{Distance: int(^uint(0) >> 1)}

	maxEdits := int(float64(len(read))*m.cfg.ErrorRate) + 4
	// Anything beyond this is a wrong location, not a noisy alignment.
	rejectAbove := 2*maxEdits + 8

	// Seed with a read prefix: implied start positions drift with
	// accumulated indel imbalance, so voting with the whole of a long read
	// smears candidates over hundreds of positions. A ~256 bp prefix keeps
	// the drift within the aligner's first search window while still
	// casting a couple hundred votes.
	seedLen := min(len(read), 256)

	// Aligners that anchor at the region start (GACT) would pay for any
	// leading slack as deletions; search-capable aligners get slack to
	// absorb anchor imprecision.
	leading := 16
	if a, ok := m.cfg.Aligner.(interface{ Anchored() bool }); ok && a.Anchored() {
		leading = 2
	}

	// A mapping at or below the expected error budget is a confident hit:
	// stop scanning further candidates (and skip the other strand), as
	// production mappers do once the best chain is aligned.
	good := func() bool { return best.Mapped && best.Distance <= maxEdits }

strands:
	for _, rc := range []bool{false, true} {
		if good() {
			break
		}
		r := read
		if rc {
			s.rc = seq.AppendReverseComplement(s.rc[:0], read)
			r = s.rc
		}
		seedStart := tr.now(tr != nil && tr.SeedingDone != nil)
		cands := m.idx.CandidateLocationsInto(&s.seed, r[:seedLen], m.cfg.MaxCandidates)
		if tr != nil && tr.SeedingDone != nil {
			seeds := 0
			for _, c := range cands {
				seeds += c.Votes
			}
			tr.SeedingDone(seeds, len(cands), time.Since(seedStart))
		}
		for _, cand := range cands {
			if err := ctx.Err(); err != nil {
				return Mapping{}, err
			}
			best.Candidates++
			// Candidate anchors are near-exact (the seeding step reports
			// the most-voted exact start), so only a small leading slack
			// is needed; the trailing slack absorbs deletion drift — the
			// paper's "text region of length m+k" (Section 6).
			start := max(0, cand.Pos-leading)
			end := min(len(m.ref), cand.Pos+len(r)+maxEdits+16)
			region := m.ref[start:end]

			if m.cfg.Filter != nil {
				filterStart := tr.now(tr != nil && tr.FilterDone != nil)
				ok, err := acceptFilter(&s.flt, m.cfg.Filter, region, r, maxEdits)
				if tr != nil && tr.FilterDone != nil {
					tr.FilterDone(ok && err == nil, time.Since(filterStart))
				}
				if err != nil {
					return Mapping{}, err
				}
				if !ok {
					best.Filtered++
					continue
				}
			}
			best.Aligned++
			alignStart := tr.now(tr != nil && tr.AlignDone != nil)
			cg, off, err := alignRegionInto(ctx, m.cfg.Aligner, region, r, s.cur)
			if tr != nil && tr.AlignDone != nil {
				tr.AlignDone(err == nil, time.Since(alignStart))
			}
			s.cur = cg // keep the (possibly grown) buffer either way
			if err != nil {
				// Cancellation must surface; so must a quarantined panic
				// (the pooled workspace is gone, retrying candidates on a
				// fresh one would mask real corruption). A single
				// over-budget candidate is not fatal and the next one is
				// tried.
				if ctx.Err() != nil {
					return Mapping{}, ctx.Err()
				}
				var pe *core.PanicError
				if errors.As(err, &pe) {
					return Mapping{}, err
				}
				continue
			}
			if d := cg.EditDistance(); d <= rejectAbove && d < best.Distance {
				best.Mapped = true
				best.Pos = start + off
				best.RevComp = rc
				best.Distance = d
				// Keep this CIGAR by swapping the double-buffer: the next
				// candidate aligns into the previous best's storage.
				s.cur, s.best = s.best, cg
			}
			if good() {
				break strands
			}
		}
	}
	if best.Mapped {
		// The kept CIGAR lives in pooled scratch; the caller-facing copy
		// is the one per-read allocation of the pipeline.
		best.Cigar = s.best.Clone()
	} else {
		best.Distance = 0
	}
	if tr != nil && tr.ReadDone != nil {
		tr.ReadDone(&best, time.Since(readStart))
	}
	return best, nil
}

// acceptFilter dispatches to the scratch-reusing filter path when the
// filter supports it.
func acceptFilter(s *filter.Scratch, f filter.Filter, region, read []byte, maxEdits int) (bool, error) {
	if sf, ok := f.(filter.ScratchFilter); ok {
		return sf.AcceptScratch(s, region, read, maxEdits)
	}
	return f.Accept(region, read, maxEdits)
}

// Stats aggregates mapping outcomes over a read set.
type Stats struct {
	Reads      int
	Mapped     int
	Correct    int // mapped within tolerance of the true location
	Candidates int
	Filtered   int
	Aligned    int
	TotalEdits int
}

// MapAll maps a simulated read set and scores positional correctness
// against the ground truth within the given tolerance.
func (m *Mapper) MapAll(reads [][]byte, truePos []int, tol int) ([]Mapping, Stats, error) {
	return m.MapAllContext(context.Background(), reads, truePos, tol)
}

// MapAllContext is MapAll with cancellation.
func (m *Mapper) MapAllContext(ctx context.Context, reads [][]byte, truePos []int, tol int) ([]Mapping, Stats, error) {
	if truePos != nil && len(truePos) != len(reads) {
		return nil, Stats{}, fmt.Errorf("mapper: %d reads but %d true positions", len(reads), len(truePos))
	}
	out := make([]Mapping, len(reads))
	var st Stats
	for i, r := range reads {
		mp, err := m.MapReadContext(ctx, r)
		if err != nil {
			return nil, Stats{}, fmt.Errorf("read %d: %w", i, err)
		}
		out[i] = mp
		st.Reads++
		st.Candidates += mp.Candidates
		st.Filtered += mp.Filtered
		st.Aligned += mp.Aligned
		if mp.Mapped {
			st.Mapped++
			st.TotalEdits += mp.Distance
			if truePos != nil && abs(mp.Pos-truePos[i]) <= tol {
				st.Correct++
			}
		}
	}
	return out, st, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
