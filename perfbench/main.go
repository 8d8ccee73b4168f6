// Command perfbench is the repository's end-to-end read-mapping benchmark.
//
// One run maps a fixed, seeded read set for one workload and prints its
// metrics as the last line of standard output:
//
//	perfbench --workload filter-map --seed 1 --seconds 60 --trace 0
//
// Inputs are generated in-process from --seed with internal/seq and
// internal/simulate, so the same seed always maps the same reads. The whole
// read set is mapped in a fixed number of interleaved rounds per workload;
// each read's (or request's) time is its fastest round, and throughput and
// percentiles are computed from those best times. --seconds only caps the
// rounds: a run that outlasts it fails, so every run of a workload takes
// the best of the same number of samples. Set-up is repeated a fixed number
// of times, spread over the rounds, and the median is reported. This
// best-of-rounds scheme is what makes the figures repeat on a shared host,
// where whole-pass timings swing by up to a factor of two from run to run:
// neighbours' load comes in bursts, and a read's fastest round converges
// on its uncontended time as rounds accumulate.
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
// attaches the public MapTrace hooks, scrapes the server's /metrics and
// times each layer's public calls, and reports the per-layer ledger.
//
// Two more modes check the benchmark itself:
//
//	perfbench steady  [-runs 5] [-workloads a,b] [-seconds 60] [-trace 0|1] [-out runs.json]
//	perfbench compare base.json head.json
//
// steady runs each workload in separate processes on different seeds and
// prints every metric's run-to-run spread next to its bound in
// BENCHMARK.json; compare checks one set of such runs against another.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			os.Exit(steadyMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is printed on the line before the result: what a result was
// measured on and the evidence behind its correctness verdict.
type report struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    bool    `json:"trace"`
	Host     host    `json:"host"`
	Rounds   int     `json:"rounds"`
	Reads    int     `json:"reads"`
	Requests int     `json:"requests"`
	Seconds  float64 `json:"elapsed_s"`
	// Setups lists every set-up time of the run; setup_s is their median.
	Setups []float64 `json:"setup_samples_s"`
	// Digest hashes every read's mapping and work counts; equal seeds
	// must give equal digests on the same code.
	Digest string `json:"digest"`
	// Problems lists every correctness failure (capped), Failures every
	// failed call with its cause.
	Problems []string `json:"problems"`
	Failures []string `json:"failures"`
}

// host fingerprints the machine and build a result came from.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func fingerprint() host {
	h := host{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

// sameHost reports whether two fingerprints describe the same machine
// shape (the commit may differ: that is what a comparison compares).
func sameHost(a, b host) bool {
	return a.CPU == b.CPU && a.NumCPU == b.NumCPU && a.GOMAXPROCS == b.GOMAXPROCS && a.GoVersion == b.GoVersion
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "cap on the timed rounds: a run that outlasts it fails")
	trace := fs.Int("trace", 0, "1 reports the per-layer ledger instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	rep := report{Workload: w.name, Seed: *seed, Trace: *trace == 1, Host: fingerprint()}
	start := time.Now()
	res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, &rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rep.Seconds = time.Since(start).Seconds()
	rep.Host.GOMAXPROCS = runtime.GOMAXPROCS(0) // serve-map runs on one P
	res.Correct = len(rep.Problems) == 0
	if rep.Problems == nil {
		rep.Problems = []string{}
	}
	if rep.Failures == nil {
		rep.Failures = []string{}
	}
	printHuman(rep, res)
	rl, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	ol, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n%s\n", rl, ol)
	if !res.Correct {
		return 1
	}
	return 0
}

// printHuman writes a readable summary of a run to standard error.
func printHuman(rep report, res result) {
	h := rep.Host
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d trace=%v: %d reads, %d requests, %d rounds, %.1fs\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Reads, rep.Requests, rep.Rounds, rep.Seconds)
	fmt.Fprintf(os.Stderr, "  host: %s, NumCPU=%d GOMAXPROCS=%d %s commit=%s\n",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "  attempted=%d failed=%d correct=%v digest=%s\n",
		res.Attempted, res.Failed, len(rep.Problems) == 0, rep.Digest)
	for _, p := range rep.Problems {
		fmt.Fprintf(os.Stderr, "  PROBLEM: %s\n", p)
	}
	for _, f := range rep.Failures {
		fmt.Fprintf(os.Stderr, "  FAILED: %s\n", f)
	}
}

// problemLog collects correctness failures, keeping the first few verbatim.
type problemLog struct {
	list  []string
	count int
}

const maxProblems = 20

func (p *problemLog) addf(format string, args ...any) {
	p.count++
	if len(p.list) < maxProblems {
		p.list = append(p.list, fmt.Sprintf(format, args...))
	}
}

// into moves the collected problems onto the report.
func (p *problemLog) into(rep *report) {
	rep.Problems = append(rep.Problems, p.list...)
	if p.count > len(p.list) {
		rep.Problems = append(rep.Problems, fmt.Sprintf("... and %d more", p.count-len(p.list)))
	}
}
