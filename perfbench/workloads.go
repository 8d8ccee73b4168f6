package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"time"

	"genasm"
	"genasm/internal/alphabet"
	"genasm/internal/seq"
	"genasm/internal/simulate"
)

// workload is one fixed read set and the pipeline configuration it runs
// through. The comments give the reason each is in the set: the layer
// shares were measured on a 2-vCPU Xeon host and say which layer change
// each workload exposes and which it bypasses.
type workload struct {
	name    string
	genome  seq.GenomeConfig
	profile simulate.Profile
	reads   int
	// offRef is the share of reads drawn from a copy of the genome with
	// offRefMutation of its bases substituted: reads with no true origin
	// in the reference, which a good filter rejects.
	offRef    float64
	prefilter bool
	// serve routes the reads through an in-process server on a loopback
	// listener instead of calling the library.
	serve bool
	// rounds is how many times the untraced run maps the read set, and
	// setups how many set-ups it times, spread over those rounds. Both are
	// fixed, so every run takes the best of the same number of samples;
	// they are sized to take about half of run_seconds on a 2-vCPU Xeon
	// host, which leaves room for a slower program or a busier host
	// before the --seconds cap fails the run.
	rounds, setups int
	// traceRounds is how many untraced/traced round pairs the traced run
	// maps through the library; layerRounds (serve-map) how many rounds
	// it times the serving layers in.
	traceRounds, layerRounds int
}

const (
	// batchReads is the reads per /v1/map request.
	batchReads = 16
	// clients is the closed-loop client count of serve-map: fixed, so the
	// offered load does not change with the host.
	clients = 2
	// offRefMutation is the substitution rate of the off-reference copy.
	offRefMutation = 0.10
	// tolerance is how far from its simulated origin a mapping may start
	// and still count as correct.
	tolerance = 50
)

// Two more workloads were measured and left out, so that a run can be long
// enough for best-of-rounds timing to converge on a shared host. A
// long-read one (1000 ONT-10% reads of 10 kbp, kernel ~90% of MapRead)
// fits only 6-8 rounds in 20 s at 1-2 ms a read; its throughput spread
// 0.24 across ten seeds. A short-read one (8000 Illumina-150 reads on a
// 4 Mbp genome, whose 172 MiB index exceeds the LLC) spread 0.10. The
// kernel and seeding layers are still measured, as core.* and index.*,
// on both workloads below.
var workloads = []workload{
	// filter-map: prefilter on, a repeat-rich genome (50% repeats of
	// 1 kbp at 1% divergence) and 20% off-reference reads. The filter is
	// ~80% of MapRead and rejects ~38% of candidates; turning it off
	// raises mapped_frac and lowers precision, so a filter replacement
	// shows here in both speed and accuracy.
	{
		name: "filter-map",
		genome: seq.GenomeConfig{
			Length:           1_000_000,
			RepeatFraction:   0.50,
			RepeatLength:     1000,
			RepeatDivergence: 0.01,
		},
		profile:     simulate.Illumina250,
		reads:       2000,
		offRef:      0.20,
		prefilter:   true,
		rounds:      26,
		setups:      9,
		traceRounds: 10,
	},
	// serve-map: the only workload through internal/server, the registry,
	// the mmap index file and the workspace pool under concurrency: a
	// closed loop of two keep-alive clients posting 16 reads to /v1/map
	// against a reference registered from a .gasmidx file in RefDir. The
	// read set is small (250 requests) so that a round is short and each
	// request is timed 44 times in a run: with 1000 requests in 12 rounds
	// the throughput spread across five seeds was 0.25, with 250 in 44 it
	// was 0.07.
	{
		name:        "serve-map",
		genome:      seq.DefaultGenomeConfig(1_000_000),
		profile:     simulate.Illumina150,
		reads:       4000,
		serve:       true,
		rounds:      44,
		setups:      36,
		traceRounds: 8,
		layerRounds: 7,
	},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// origin is a read's simulated truth.
type origin struct {
	pos   int
	rev   bool
	onRef bool
}

// inputs is a workload's generated reference and read set.
type inputs struct {
	ref   []byte // reference, letters
	reads []genasm.Read
	truth []origin
}

// makeInputs generates the workload's inputs. The genome (and the
// off-reference copy) depend on the workload alone, like a fixed reference
// assembly; the seed draws the reads. Reads are stratified: one from each
// equal slice of the genome, strands alternating, so every seed covers the
// genome and its repeats evenly and seeds differ in where within a slice a
// read starts and in its sequencing errors.
func makeInputs(w workload, seed uint64) (*inputs, error) {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	stream := h.Sum64()
	wrng := rand.New(rand.NewPCG(0, stream))
	genome := seq.Genome(wrng, w.genome)
	var mutated []byte
	nOff := int(float64(w.reads) * w.offRef)
	if nOff > 0 {
		mutated = slices.Clone(genome)
		for i := range mutated {
			if wrng.Float64() < offRefMutation {
				mutated[i] = (mutated[i] + byte(1+wrng.IntN(3))) % 4
			}
		}
	}
	rng := rand.New(rand.NewPCG(seed, stream))
	on, err := stratifiedReads(rng, genome, w.reads-nOff, w.profile)
	if err != nil {
		return nil, err
	}
	off, err := stratifiedReads(rng, mutated, nOff, w.profile)
	if err != nil {
		return nil, err
	}
	in := &inputs{ref: alphabet.DNA.Decode(genome)}
	// Off-reference reads are spread evenly through the read order.
	for i := range w.reads {
		var r origin
		var s []byte
		if int(float64(i+1)*w.offRef) > int(float64(i)*w.offRef) {
			s, r, off = off[0].seq, off[0].origin, off[1:]
		} else {
			s, r, on = on[0].seq, on[0].origin, on[1:]
			r.onRef = true
		}
		in.reads = append(in.reads, genasm.Read{Name: fmt.Sprintf("r%d", i), Seq: alphabet.DNA.Decode(s)})
		in.truth = append(in.truth, r)
	}
	return in, nil
}

type simRead struct {
	seq []byte
	origin
}

// stratifiedReads draws n reads from genome, the i-th from the i-th of n
// equal slices, reverse-complementing every other one.
func stratifiedReads(rng *rand.Rand, genome []byte, n int, p simulate.Profile) ([]simRead, error) {
	if n == 0 {
		return nil, nil
	}
	// Each slice is extended by two read lengths: room for the read and
	// the slack simulate.Reads keeps for deletions.
	extra := 2 * p.ReadLen
	stride := (len(genome) - extra) / n
	if stride < 1 {
		return nil, fmt.Errorf("genome of %d bases too short for %d reads of %d bases", len(genome), n, p.ReadLen)
	}
	out := make([]simRead, n)
	for i := range out {
		lo := i * stride
		rs, err := simulate.Reads(rng, genome[lo:lo+stride+extra], 1, p, false)
		if err != nil {
			return nil, err
		}
		r := simRead{seq: rs[0].Seq, origin: origin{pos: lo + rs[0].Pos}}
		if i%2 == 1 {
			r.seq, r.rev = seq.ReverseComplement(r.seq), true
		}
		out[i] = r
	}
	return out, nil
}

// isCorrect scores one mapping against its read's simulated truth. A read
// with no origin in the reference is never correctly mapped.
func isCorrect(o origin, mapped, rev bool, pos int) bool {
	return mapped && o.onRef && rev == o.rev && pos >= o.pos-tolerance && pos <= o.pos+tolerance
}

// runWorkload dispatches to the library or server driver. budget caps the
// timed rounds.
func runWorkload(w workload, seed uint64, budget time.Duration, trace bool, rep *report) (result, error) {
	in, err := makeInputs(w, seed)
	if err != nil {
		return result{}, fmt.Errorf("generating inputs: %w", err)
	}
	rep.Reads = len(in.reads)
	if w.serve {
		rep.Requests = (len(in.reads) + batchReads - 1) / batchReads
		return runServe(w, in, budget, trace, rep)
	}
	rep.Requests = len(in.reads) // one MapRead call each
	return runLibrary(w, in, budget, trace, rep)
}
