package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json the checks read.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec() (spec, error) {
	var s spec
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return s, fmt.Errorf("reading BENCHMARK.json (run from the repository root): %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return s, nil
}

// run is one child run's report and result.
type run struct {
	Report report `json:"report"`
	Result result `json:"result"`
}

// runSet is what steady writes with -out and compare reads.
type runSet struct {
	Runs []run `json:"runs"`
}

// runChild runs one benchmark process and parses its last two lines.
func runChild(workload string, seed uint64, seconds, trace int) (run, error) {
	exe, err := os.Executable()
	if err != nil {
		return run{}, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		return run{}, fmt.Errorf("%s seed %d: no result line (%v)\n%s", workload, seed, runErr, errb.String())
	}
	var r run
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &r.Report); err != nil {
		return run{}, fmt.Errorf("%s seed %d: report line: %w", workload, seed, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.Result); err != nil {
		return run{}, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if runErr != nil || !r.Result.Correct {
		return r, fmt.Errorf("%s seed %d: run failed (%v): %s", workload, seed, runErr, errb.String())
	}
	return r, nil
}

// quartiles matches Python's statistics.quantiles(values, n=4) with its
// default exclusive method.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := slices.Clone(values)
	slices.Sort(d)
	n := len(d)
	if n < 2 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), median(d), q(3)
}

func median(values []float64) float64 {
	d := slices.Clone(values)
	slices.Sort(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	return ratio(q3-q1, math.Abs(q2))
}

// exact reports whether a metric is a count or share that must repeat
// exactly on the same inputs.
func exact(name string) bool {
	if name == "trace.overhead_frac" {
		return false // a ratio of two timings
	}
	return strings.HasSuffix(name, "_per_read") || strings.HasSuffix(name, "_frac") ||
		name == "precision" || name == "index.mb" || name == "indexfile.file_mb"
}

func steadyMain(args []string) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	runs := fs.Int("runs", 5, "runs per workload, each on its own seed")
	first := fs.Uint64("seed", 1, "first seed")
	names := fs.String("workloads", strings.Join(workloadNames(), ","), "comma-separated workloads")
	seconds := fs.Int("seconds", 0, "run length (default: run_seconds from BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 checks the traced runs")
	out := fs.String("out", "", "write every run to this JSON file")
	if err := fs.Parse(args); err != nil || *runs < 1 {
		return 2
	}
	sp, err := readSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *seconds == 0 {
		*seconds = sp.RunSeconds
	}
	metricsOf := sp.EndToEnd
	if *trace == 1 {
		metricsOf = sp.PerLayer
	}
	var all runSet
	ok := true
	for _, w := range strings.Split(*names, ",") {
		if _, known := workloadByName(w); !known {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", w)
			return 2
		}
		var rs []run
		for i := range *runs {
			r, err := runChild(w, *first+uint64(i), *seconds, *trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "  %s seed %d done (%.1fs)\n", w, r.Report.Seed, r.Report.Seconds)
			rs = append(rs, r)
		}
		// One more run of the first seed, whose digest and exact counts
		// must match the first run's.
		again, err := runChild(w, *first, *seconds, *trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		all.Runs = append(all.Runs, rs...)
		all.Runs = append(all.Runs, again)
		if !steadyReport(w, metricsOf, rs, again) {
			ok = false
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(all, "", " ")
		if err == nil {
			err = os.WriteFile(*out, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if !ok {
		fmt.Println("steady: FAILED")
		return 1
	}
	fmt.Println("steady: ok")
	return 0
}

// steadyReport prints one workload's spreads; it fails when a spread
// reaches its bound, or the same-seed rerun differs in its digest or in
// any exact count.
func steadyReport(w string, ms []specMetric, rs []run, again run) bool {
	ok := true
	fmt.Printf("%s: %d seeds, host %s (%d CPU)\n", w, len(rs), rs[0].Report.Host.CPU, rs[0].Report.Host.NumCPU)
	fmt.Printf("  %-26s %14s %9s %7s %8s  %s\n", "metric", "median", "spread", "bound", "sameseed", "verdict")
	for _, m := range ms {
		var vals []float64
		for _, r := range rs {
			vals = append(vals, r.Result.Metrics[m.Name].Value)
		}
		a, b := rs[0].Result.Metrics[m.Name].Value, again.Result.Metrics[m.Name].Value
		sp := spread(vals)
		sameSp := ratio(math.Abs(a-b), math.Abs(median([]float64{a, b})))
		verdict := ""
		switch {
		case exact(m.Name) && sameSp != 0:
			verdict, ok = "NOT EXACT on the same seed", false
		case m.Bound > 0 && sp >= m.Bound:
			verdict, ok = "TOO NOISY (spread >= bound)", false
		case m.Bound > 0 && sp >= m.Bound/3:
			verdict = "noisy (spread >= bound/3)"
		}
		bound := "-"
		if m.Bound > 0 {
			bound = strconv.FormatFloat(m.Bound, 'f', 3, 64)
		}
		fmt.Printf("  %-26s %14.6g %9.4f %7s %8.4f  %s\n", m.Name, median(vals), sp, bound, sameSp, verdict)
	}
	if again.Report.Digest != rs[0].Report.Digest {
		fmt.Printf("  digest differs on seed %d: %s vs %s\n", again.Report.Seed, rs[0].Report.Digest, again.Report.Digest)
		ok = false
	}
	return ok
}

func loadRunSet(path string) (runSet, error) {
	var rs runSet
	b, err := os.ReadFile(path)
	if err != nil {
		return rs, err
	}
	if err := json.Unmarshal(b, &rs); err != nil {
		return rs, fmt.Errorf("%s: %w", path, err)
	}
	if len(rs.Runs) == 0 {
		return rs, fmt.Errorf("%s: no runs", path)
	}
	return rs, nil
}

// compareMain checks head's medians against base's, metric by metric,
// with the bounds in BENCHMARK.json. Differing hosts are reported loudly
// and change nothing else.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare base.json head.json (files from perfbench steady -out)")
		return 2
	}
	sp, err := readSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	base, err := loadRunSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	head, err := loadRunSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	bh, hh := base.Runs[0].Report.Host, head.Runs[0].Report.Host
	fmt.Printf("base: %s %d CPU %s commit %s\n", bh.CPU, bh.NumCPU, bh.GoVersion, bh.Commit)
	fmt.Printf("head: %s %d CPU %s commit %s\n", hh.CPU, hh.NumCPU, hh.GoVersion, hh.Commit)
	if !sameHost(bh, hh) {
		msg := "WARNING: base and head were measured on different hosts; the comparison below is not meaningful and its bounds are NOT loosened"
		fmt.Println(msg)
		fmt.Fprintln(os.Stderr, msg)
	}
	worse := false
	for _, w := range workloadNames() {
		for _, m := range sp.EndToEnd {
			var bv, hv []float64
			for _, r := range base.Runs {
				if r.Report.Workload == w && !r.Report.Trace {
					bv = append(bv, r.Result.Metrics[m.Name].Value)
				}
			}
			for _, r := range head.Runs {
				if r.Report.Workload == w && !r.Report.Trace {
					hv = append(hv, r.Result.Metrics[m.Name].Value)
				}
			}
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			bm, hm := median(bv), median(hv)
			change := ratio(hm-bm, math.Abs(bm))
			if m.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case change > m.Bound:
				verdict, worse = "WORSE beyond bound", true
			case spread(bv) > m.Bound:
				verdict = "unresolved (base spread exceeds bound)"
			}
			fmt.Printf("%-11s %-14s base %12.6g head %12.6g worse by %+7.2f%% (bound %4.1f%%)  %s\n",
				w, m.Name, bm, hm, 100*change, 100*m.Bound, verdict)
		}
	}
	if worse {
		return 1
	}
	return 0
}
