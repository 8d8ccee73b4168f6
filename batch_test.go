package genasm

import (
	"context"
	"errors"
	"slices"
	"testing"
)

func TestAlignBatchPublic(t *testing.T) {
	jobs := []BatchJob{
		{Text: []byte("CGTGA"), Query: []byte("CTGA"), Global: true},
		{Text: []byte("ACGTACGT"), Query: []byte("ACGTACGT"), Global: true},
		{Text: []byte("TTTTACGTACGTTTTT"), Query: []byte("ACGTACGT")},
	}
	res, err := AlignBatch(Config{SearchStart: true}, jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %d", len(res))
	}
	if res[0].Err != nil || res[0].Alignment.Distance != 1 {
		t.Errorf("job 0: %+v", res[0])
	}
	if res[1].Err != nil || res[1].Alignment.Distance != 0 {
		t.Errorf("job 1: %+v", res[1])
	}
	if res[2].Err != nil || res[2].Alignment.Distance != 0 || res[2].Alignment.TextStart != 4 {
		t.Errorf("job 2: %+v", res[2])
	}
}

// TestAlignBatchPublicInvalidLetters pins the per-job error contract: one
// unencodable job is reported in its own BatchResult.Err (as a typed
// *AlphabetError) and the rest of the batch still aligns.
func TestAlignBatchPublicInvalidLetters(t *testing.T) {
	jobs := []BatchJob{
		{Text: []byte("ACGT"), Query: []byte("ACNX")},
		{Text: []byte("CGTGA"), Query: []byte("CTGA"), Global: true},
	}
	res, err := AlignBatch(Config{}, jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err == nil {
		t.Fatal("invalid letters should fail the job")
	}
	var ae *AlphabetError
	if !errors.As(res[0].Err, &ae) {
		t.Fatalf("job 0 error %v is not an *AlphabetError", res[0].Err)
	}
	if res[1].Err != nil || res[1].Alignment.Distance != 1 {
		t.Errorf("healthy job poisoned by its neighbour: %+v", res[1])
	}
}

func TestAlignBatchPublicEmpty(t *testing.T) {
	res, err := AlignBatch(Config{}, nil, 4)
	if err != nil || len(res) != 0 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

func TestAlignBatchMatchesSingle(t *testing.T) {
	al, err := NewAligner(Config{})
	if err != nil {
		t.Fatal(err)
	}
	text := []byte("ACGGATCGATTACAGGCTTAACGGATCCTAGG")
	query := []byte("ACGGATCGATTACAGGCTTAACGGATCCTAGG")
	query[10] = 'T'
	want, err := al.AlignGlobal(text, query)
	if err != nil {
		t.Fatal(err)
	}
	res, err := AlignBatch(Config{}, []BatchJob{{Text: text, Query: query, Global: true}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Alignment.CIGAR != want.CIGAR {
		t.Fatalf("batch %s vs single %s", res[0].Alignment.CIGAR, want.CIGAR)
	}
}

// The tests below carry the batch cases of the former core-level batch
// aligner over to the public batch path, which is now the only one.

// alignSerial aligns each job one at a time with a single Aligner.
func alignSerial(t *testing.T, jobs []BatchJob) []Alignment {
	t.Helper()
	al, err := NewAligner(Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Alignment, len(jobs))
	for i, job := range jobs {
		if job.Global {
			want[i], err = al.AlignGlobal(job.Text, job.Query)
		} else {
			want[i], err = al.Align(job.Text, job.Query)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// TestAlignBatchMatchesSerial pins the parallel batch to one-at-a-time
// alignment on local and global jobs.
func TestAlignBatchMatchesSerial(t *testing.T) {
	jobs := streamJobs(t, 24, false)
	want := alignSerial(t, jobs)
	res, err := AlignBatch(Config{}, jobs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Alignment.CIGAR != want[i].CIGAR || r.Alignment.Distance != want[i].Distance {
			t.Fatalf("job %d: batch %s/%d vs serial %s/%d", i,
				r.Alignment.CIGAR, r.Alignment.Distance, want[i].CIGAR, want[i].Distance)
		}
	}
}

// TestAlignBatchWorkerCounts runs one batch at default sizing (0), one
// worker, a few, and more workers than jobs: every job gets its own
// result, in job order.
func TestAlignBatchWorkerCounts(t *testing.T) {
	jobs := streamJobs(t, 10, false)
	want := alignSerial(t, jobs)
	for _, workers := range []int{0, 1, 2, 16, 100} {
		res, err := AlignBatch(Config{}, jobs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(jobs) {
			t.Fatalf("workers=%d: %d results for %d jobs", workers, len(res), len(jobs))
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("workers=%d job %d: %v", workers, i, r.Err)
			}
			if r.Index != i || r.Alignment.CIGAR != want[i].CIGAR {
				t.Fatalf("workers=%d job %d: result %d %s, want %s", workers, i,
					r.Index, r.Alignment.CIGAR, want[i].CIGAR)
			}
		}
	}
}

// TestAlignBatchEmpty covers an empty batch on the engine: nil and empty
// slices give no results and no error, and an empty stream yields nothing.
func TestAlignBatchEmpty(t *testing.T) {
	e, err := NewEngine(WithMaxWorkspaces(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, jobs := range [][]BatchJob{nil, {}} {
		res, err := e.AlignBatch(ctx, jobs)
		if err != nil || len(res) != 0 {
			t.Fatalf("jobs=%v: res=%v err=%v", jobs, res, err)
		}
	}
	for res := range e.AlignStream(ctx, slices.Values([]BatchJob(nil))) {
		t.Fatalf("empty stream yielded %+v", res)
	}
}

// TestAlignBatchJobErrors mixes a good job with an empty query and a
// letter outside the alphabet: the bad jobs fail on their own and the
// good one still aligns.
func TestAlignBatchJobErrors(t *testing.T) {
	jobs := []BatchJob{
		{Text: []byte("ACG"), Query: []byte("CG")},
		{Text: []byte("ACG"), Query: nil},
		{Text: []byte("ACG"), Query: []byte("Z")},
	}
	res, err := AlignBatch(Config{}, jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil {
		t.Fatalf("job 0 should succeed: %+v", res[0])
	}
	if res[1].Err == nil || res[2].Err == nil {
		t.Fatalf("jobs 1 and 2 should fail: %v, %v", res[1].Err, res[2].Err)
	}
}

// TestAlignBatchBadConfig: an invalid configuration fails the whole batch
// up front rather than each job.
func TestAlignBatchBadConfig(t *testing.T) {
	jobs := streamJobs(t, 3, false)
	res, err := AlignBatch(Config{WindowSize: 1}, jobs, 2)
	if err == nil {
		t.Fatalf("expected a config error, got %d results", len(res))
	}
	if res != nil {
		t.Fatalf("results returned alongside config error: %v", res)
	}
}
