package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"genasm"
)

// libSetup times set-ups of the library workloads: each builds the
// reference index and its mapper, BuildRefIndex plus NewMapperFromIndex.
type libSetup struct {
	eng            *genasm.Engine
	w              workload
	ref            []byte
	setups, builds []time.Duration
}

// run does one set-up after a collection and records its times.
func (s *libSetup) run() (*genasm.RefIndex, *genasm.Mapper, error) {
	runtime.GC()
	t0 := time.Now()
	ri, err := s.eng.BuildRefIndex(s.ref, genasm.RefIndexConfig{})
	if err != nil {
		return nil, nil, fmt.Errorf("building index: %w", err)
	}
	build := time.Since(t0)
	m, err := s.eng.NewMapperFromIndex(ri, genasm.MapperConfig{Prefilter: s.w.prefilter})
	if err != nil {
		return nil, nil, fmt.Errorf("building mapper: %w", err)
	}
	s.setups = append(s.setups, time.Since(t0))
	s.builds = append(s.builds, build)
	return ri, m, nil
}

// again is a set-up whose index and mapper are dropped.
func (s *libSetup) again() error {
	_, _, err := s.run()
	return err
}

// readPass maps every read once per round with sequential MapRead calls,
// keeping each read's best time and checking that every round reproduces
// the first round's mappings.
type readPass struct {
	name     string
	best     bestOf // per read
	sigs     []sig
	rounds   int
	calls    int
	failed   int
	failures []string
	// onBest, if set, runs after a read's call when it beat that read's
	// best time (the traced pass snapshots its layer record there).
	onBest func(i int)
	// after, if set, runs after every call (the traced pass checks its
	// work counts there).
	after func(i int)
}

func newReadPass(name string, n int) *readPass {
	return &readPass{name: name, best: newBestOf(n), sigs: make([]sig, n)}
}

func (p *readPass) round(ctx context.Context, m *genasm.Mapper, reads []genasm.Read, probs *problemLog) {
	first := p.rounds == 0
	p.rounds++
	for i, r := range reads {
		t0 := time.Now()
		mp, err := m.MapRead(ctx, r.Seq)
		d := time.Since(t0)
		p.calls++
		if err != nil {
			p.failed++
			if len(p.failures) < maxProblems {
				p.failures = append(p.failures, fmt.Sprintf("%s: MapRead %s: %v", p.name, r.Name, err))
			}
		}
		s := sigOf(mp, err)
		if first {
			p.sigs[i] = s
		} else if s != p.sigs[i] {
			probs.addf("%s: read %s mapped differently across rounds: %v then %v", p.name, r.Name, p.sigs[i], s)
		}
		if p.best.observe(i, d) && p.onBest != nil {
			p.onBest(i)
		}
		if p.after != nil {
			p.after(i)
		}
	}
}

// layers is what the MapTrace hooks record for one read.
type layers struct {
	seed                         time.Duration
	seedCalls, hits, cands       int
	filter                       time.Duration
	filterCalls, filterAccepted  int
	filterEach                   []time.Duration
	align                        time.Duration
	alignCalls, alignOK, readAln int
	alignEach                    []time.Duration
}

// counts are the parts of a layer record that must repeat exactly.
type counts struct {
	seedCalls, hits, cands, filterCalls, filterAccepted, alignCalls, alignOK, readAln int
}

func (l *layers) counts() counts {
	return counts{l.seedCalls, l.hits, l.cands, l.filterCalls, l.filterAccepted, l.alignCalls, l.alignOK, l.readAln}
}

func (l *layers) reset() {
	fe, ae := l.filterEach[:0], l.alignEach[:0]
	*l = layers{filterEach: fe, alignEach: ae}
}

func (l *layers) copyFrom(o *layers) {
	fe := append(l.filterEach[:0], o.filterEach...)
	ae := append(l.alignEach[:0], o.alignEach...)
	*l = *o
	l.filterEach, l.alignEach = fe, ae
}

// tracer attaches the public MapTrace hooks to a single mapping
// goroutine, accumulating into cur; it is not safe for concurrent reads.
type tracer struct {
	cur    layers
	best   []layers // per read, from the read's fastest traced round
	counts []counts // per read, from the first traced round
	seen   []bool
}

func newTracer(n int) *tracer {
	return &tracer{best: make([]layers, n), counts: make([]counts, n), seen: make([]bool, n)}
}

func (t *tracer) hooks() *genasm.MapTrace {
	return &genasm.MapTrace{
		SeedingDone: func(seeds, candidates int, d time.Duration) {
			t.cur.seed += d
			t.cur.seedCalls++
			t.cur.hits += seeds
			t.cur.cands += candidates
		},
		FilterDone: func(accepted bool, d time.Duration) {
			t.cur.filter += d
			t.cur.filterCalls++
			if accepted {
				t.cur.filterAccepted++
			}
			t.cur.filterEach = append(t.cur.filterEach, d)
		},
		AlignDone: func(ok bool, d time.Duration) {
			t.cur.align += d
			t.cur.alignCalls++
			if ok {
				t.cur.alignOK++
			}
			t.cur.alignEach = append(t.cur.alignEach, d)
		},
		ReadDone: func(candidates, filtered, accepted int, mapped bool, d time.Duration) {
			t.cur.readAln = accepted
		},
	}
}

// ledger is the per-layer attribution of a traced pass.
type ledger struct {
	reads                                    int
	total, seed, filter, align               time.Duration
	hits, cands                              int
	filterCalls, filterAccepted              int
	alignCalls, alignOK, aligned, alignBases int
	seedPerRead, filterEach, alignEach       []time.Duration
}

func (t *tracer) ledger(best bestOf, reads []genasm.Read) ledger {
	var l ledger
	l.reads = len(reads)
	for i, b := range t.best {
		l.total += best[i]
		l.seed += b.seed
		l.filter += b.filter
		l.align += b.align
		l.hits += b.hits
		l.cands += b.cands
		l.filterCalls += b.filterCalls
		l.filterAccepted += b.filterAccepted
		l.alignCalls += b.alignCalls
		l.alignOK += b.alignOK
		l.aligned += b.readAln
		l.alignBases += b.alignCalls * len(reads[i].Seq)
		l.seedPerRead = append(l.seedPerRead, b.seed)
		l.filterEach = append(l.filterEach, b.filterEach...)
		l.alignEach = append(l.alignEach, b.alignEach...)
	}
	return l
}

// set reports the mapper-pipeline layers (index, filter, core, mapper).
func (l ledger) set(m metricSet) {
	n, tot := float64(l.reads), float64(l.total)
	m.set("index.seed_us_p50", "us", us(quantile(l.seedPerRead, 0.50)))
	m.set("index.seed_share", "frac", ratio(float64(l.seed), tot))
	m.set("index.hits_per_read", "count", float64(l.hits)/n)
	m.set("index.cands_per_read", "count", float64(l.cands)/n)
	m.set("filter.calls_per_read", "count", float64(l.filterCalls)/n)
	m.set("filter.accept_frac", "frac", ratio(float64(l.filterAccepted), float64(l.filterCalls)))
	m.set("filter.us_p50", "us", us(quantile(l.filterEach, 0.50)))
	m.set("filter.share", "frac", ratio(float64(l.filter), tot))
	m.set("core.align_calls_per_read", "count", float64(l.alignCalls)/n)
	m.set("core.align_ok_frac", "frac", ratio(float64(l.alignOK), float64(l.alignCalls)))
	m.set("core.align_us_p50", "us", us(quantile(l.alignEach, 0.50)))
	m.set("core.align_us_p99", "us", us(quantile(l.alignEach, 0.99)))
	m.set("core.align_ns_per_base", "ns", ratio(float64(l.align), float64(l.alignBases)))
	m.set("core.align_share", "frac", ratio(float64(l.align), tot))
	m.set("mapper.aligned_per_read", "count", float64(l.aligned)/n)
	m.set("mapper.self_share", "frac", ratio(float64(l.total-l.seed-l.filter-l.align), tot))
}

// tracedPass runs pairs of untraced and traced rounds of sequential
// MapRead calls, with set-ups spread over them, and returns the traced ledger and the tracing overhead
// (traced over untraced best-time sum, minus one). Work counts must repeat
// exactly across traced rounds and mappings must match the untraced pass.
func tracedPass(ctx context.Context, eng *genasm.Engine, ri *genasm.RefIndex, cfg genasm.MapperConfig,
	plain *genasm.Mapper, reads []genasm.Read, pairs, setups int, setup func() error, deadline time.Time,
	probs *problemLog) (ledger, float64, *readPass, error) {
	tr := newTracer(len(reads))
	cfg.Trace = tr.hooks()
	traced, err := eng.NewMapperFromIndex(ri, cfg)
	if err != nil {
		return ledger{}, 0, nil, fmt.Errorf("building traced mapper: %w", err)
	}
	up := newReadPass("untraced", len(reads))
	tp := newReadPass("traced", len(reads))
	tp.onBest = func(i int) { tr.best[i].copyFrom(&tr.cur) }
	tp.after = func(i int) {
		c := tr.cur.counts()
		if !tr.seen[i] {
			tr.counts[i], tr.seen[i] = c, true
		} else if c != tr.counts[i] {
			probs.addf("traced: read %s work counts differ across rounds: %+v then %+v", reads[i].Name, tr.counts[i], c)
		}
		tr.cur.reset()
	}
	err = timedRounds(pairs, setups, 1, deadline, setup, func() error {
		up.round(ctx, plain, reads, probs)
		tp.round(ctx, traced, reads, probs)
		return nil
	})
	if err != nil {
		return ledger{}, 0, nil, err
	}
	for i := range reads {
		if up.sigs[i] != tp.sigs[i] {
			probs.addf("read %s maps differently with tracing: %v vs %v", reads[i].Name, up.sigs[i], tp.sigs[i])
		}
	}
	up.calls += tp.calls
	up.failed += tp.failed
	up.failures = append(up.failures, tp.failures...)
	overhead := float64(tp.best.sum())/float64(up.best.sum()) - 1
	return tr.ledger(tp.best, reads), overhead, up, nil
}

// runLibrary measures a workload through the public library API on one
// goroutine.
func runLibrary(w workload, in *inputs, budget time.Duration, trace bool, rep *report) (result, error) {
	ctx := context.Background()
	eng, err := genasm.NewEngine()
	if err != nil {
		return result{}, err
	}
	su := &libSetup{eng: eng, w: w, ref: in.ref}
	ri, m, err := su.run()
	if err != nil {
		return result{}, err
	}
	var probs problemLog
	mets := metricSet{}
	var pass *readPass
	deadline := time.Now().Add(budget)
	if trace {
		var l ledger
		var overhead float64
		l, overhead, pass, err = tracedPass(ctx, eng, ri, genasm.MapperConfig{Prefilter: w.prefilter}, m, in.reads,
			w.traceRounds, w.setups, su.again, deadline, &probs)
		if err != nil {
			return result{}, err
		}
		l.set(mets)
		mets.set("index.build_s", "s", median(seconds(su.builds)))
		mets.set("index.mb", "MB", float64(ri.Stats().Bytes)/(1<<20))
		mets.set("trace.overhead_frac", "frac", overhead)
		// These layers are bypassed by the library workloads: no index
		// file is loaded and no server or pool wait is involved.
		for _, k := range []struct{ name, unit string }{
			{"indexfile.load_s", "s"}, {"indexfile.file_mb", "MB"},
			{"pool.wait_us_p99", "us"}, {"pool.waits_per_req", "count"},
			{"server.handler_ms_p50", "ms"}, {"server.overhead_share", "frac"},
			{"http.loopback_ms_p50", "ms"},
		} {
			mets.set(k.name, k.unit, 0)
		}
	} else {
		pass = newReadPass("map", len(in.reads))
		err = timedRounds(w.rounds, w.setups, 1, deadline, su.again, func() error {
			pass.round(ctx, m, in.reads, &probs)
			return nil
		})
		if err != nil {
			return result{}, err
		}
		mapped, correct, precision := accuracy(in.truth, pass.sigs)
		mets.set("setup_s", "s", median(seconds(su.setups)))
		mets.set("reads_per_s", "1/s", float64(len(in.reads))/pass.best.sum().Seconds())
		p50, p99 := ms(quantile(pass.best, 0.50)), ms(quantile(pass.best, 0.99))
		// A library request is one MapRead call.
		mets.set("read_p50_ms", "ms", p50)
		mets.set("read_p99_ms", "ms", p99)
		mets.set("req_p50_ms", "ms", p50)
		mets.set("req_p99_ms", "ms", p99)
		mets.set("mapped_frac", "frac", mapped)
		mets.set("correct_frac", "frac", correct)
		mets.set("precision", "frac", precision)
		mets.set("ok_frac", "frac", float64(pass.calls-pass.failed)/float64(pass.calls))
		mets.set("rss_mb", "MB", rssMB())
	}
	// The index must still be live when rssMB collects garbage.
	runtime.KeepAlive(ri)
	rep.Rounds = pass.rounds
	rep.Setups = seconds(su.setups)
	rep.Digest = digest(pass.sigs)
	rep.Failures = pass.failures
	probs.into(rep)
	return result{Attempted: pass.calls, Failed: pass.failed, Metrics: mets}, nil
}
