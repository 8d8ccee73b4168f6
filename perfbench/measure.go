package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"genasm"
)

// sig is everything a read's mapping must repeat exactly: where it
// mapped and how much work the pipeline did to get there.
type sig struct {
	err                      bool
	mapped, rev              bool
	pos, dist                int
	cigar                    string
	cands, filtered, aligned int
}

func sigOf(mp genasm.ReadMapping, err error) sig {
	if err != nil {
		return sig{err: true}
	}
	return sig{
		mapped: mp.Mapped, rev: mp.RevComp, pos: mp.Pos, dist: mp.Distance,
		cigar: mp.ClassicCIGAR, cands: mp.Candidates, filtered: mp.Filtered, aligned: mp.Aligned,
	}
}

func (s sig) String() string {
	if s.err {
		return "error"
	}
	if !s.mapped {
		return fmt.Sprintf("unmapped c=%d f=%d a=%d", s.cands, s.filtered, s.aligned)
	}
	return fmt.Sprintf("pos=%d rev=%v %s nm=%d c=%d f=%d a=%d",
		s.pos, s.rev, s.cigar, s.dist, s.cands, s.filtered, s.aligned)
}

// digest hashes every read's signature in read order.
func digest(sigs []sig) string {
	h := fnv.New64a()
	for _, s := range sigs {
		fmt.Fprintln(h, s.String())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// accuracy scores mappings against simulated truth: mapped, correctly
// mapped, and the three fractions derived from them.
func accuracy(truth []origin, sigs []sig) (mappedFrac, correctFrac, precision float64) {
	var mapped, correct int
	for i, s := range sigs {
		if s.mapped {
			mapped++
			if isCorrect(truth[i], s.mapped, s.rev, s.pos) {
				correct++
			}
		}
	}
	n := float64(len(sigs))
	return float64(mapped) / n, float64(correct) / n, ratio(float64(correct), float64(mapped))
}

// bestOf keeps, per sample, the fastest of its rounds.
type bestOf []time.Duration

func newBestOf(n int) bestOf {
	b := make(bestOf, n)
	for i := range b {
		b[i] = math.MaxInt64
	}
	return b
}

// observe records d for sample i and reports whether it is a new best.
func (b bestOf) observe(i int, d time.Duration) bool {
	if d < b[i] {
		b[i] = d
		return true
	}
	return false
}

func (b bestOf) sum() time.Duration {
	var s time.Duration
	for _, d := range b {
		s += d
	}
	return s
}

// quantile is the nearest-rank q-quantile of ds.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rssMB is the process's resident set after a forced collection has
// returned freed memory to the OS, so repeated set-ups do not inflate it.
func rssMB() float64 {
	runtime.GC()
	debug.FreeOSMemory()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// metricSet builds a result's metric map.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// setupsBefore is how many of a run's n set-ups run before round r of
// rounds. They are spread evenly over the timed rounds, at least one before
// the first, so that one burst of load on a shared host cannot cover them
// all.
func setupsBefore(r, rounds, n int) int {
	ceil := func(a int) int { return (a + rounds - 1) / rounds }
	return ceil(n*(r+1)) - ceil(n*r)
}

// timedRounds runs round(r) for each of a workload's fixed rounds. Before
// each round it runs that round's share of `setups` calls of setup (see
// setupsBefore), less the `done` already run before round 0, followed by a
// collection so their garbage is not collected inside a timed round.
// --seconds is only a cap: rounds that outlast the deadline fail the run,
// so a faster or slower program never gets a different number of samples.
func timedRounds(rounds, setups, done int, deadline time.Time, setup func() error, round func() error) error {
	for r := range rounds {
		n := setupsBefore(r, rounds, setups)
		if r == 0 {
			n -= done
		}
		for range n {
			if err := setup(); err != nil {
				return err
			}
		}
		if n > 0 {
			runtime.GC()
		}
		if err := round(); err != nil {
			return err
		}
		if now := time.Now(); now.After(deadline) {
			return fmt.Errorf("%d of %d fixed rounds ran past the --seconds cap by %.1fs: "+
				"the host is too slow or too loaded for this workload", r+1, rounds, now.Sub(deadline).Seconds())
		}
	}
	return nil
}

// seconds lists durations in seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
