package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"genasm"
	"genasm/internal/metrics"
	"genasm/internal/server"
)

// refName is the reference's registry name: the index file's basename.
const refName = "ref"

// request is one /v1/map body and the reads it carries.
type request struct {
	body   []byte
	lo, hi int // read index range
}

func makeRequests(reads []genasm.Read) ([]request, error) {
	var out []request
	for lo := 0; lo < len(reads); lo += batchReads {
		hi := min(len(reads), lo+batchReads)
		var mr server.MapRequest
		for _, r := range reads[lo:hi] {
			mr.Reads = append(mr.Reads, server.MapRead{Name: r.Name, Seq: string(r.Seq)})
		}
		b, err := json.Marshal(mr)
		if err != nil {
			return nil, err
		}
		out = append(out, request{body: b, lo: lo, hi: hi})
	}
	return out, nil
}

// reqPass keeps each request's best successful time across rounds and
// every failure with its cause.
type reqPass struct {
	name     string
	best     bestOf
	worst    []time.Duration // fallback for a request that never succeeded
	calls    int
	failed   int
	failures []string
}

func newReqPass(name string, n int) *reqPass {
	return &reqPass{name: name, best: newBestOf(n), worst: make([]time.Duration, n)}
}

// times is the per-request best, or the slowest failed attempt for a
// request that never succeeded, so a failure can only worsen the figures.
func (p *reqPass) times() []time.Duration {
	out := make([]time.Duration, len(p.best))
	for i, d := range p.best {
		if d == math.MaxInt64 {
			d = p.worst[i]
		}
		out[i] = d
	}
	return out
}

// record checks one response and keeps its time.
func (p *reqPass) record(i int, req request, d time.Duration, status int, body []byte, err error,
	want []sig, reads []genasm.Read, probs *problemLog) {
	p.calls++
	if err == nil && status == http.StatusOK {
		if perr := checkSAM(body, reads[req.lo:req.hi], want[req.lo:req.hi]); perr != nil {
			probs.addf("%s: request %d: %v", p.name, i, perr)
		}
		p.best.observe(i, d)
		return
	}
	p.failed++
	p.worst[i] = max(p.worst[i], d)
	var cause string
	if err != nil {
		cause = "transport error: " + err.Error()
	} else {
		var env server.ErrorBody
		code := "no envelope"
		if json.Unmarshal(body, &env) == nil && env.Error.Code != "" {
			code = env.Error.Code
		}
		cause = fmt.Sprintf("HTTP %d %s: %.200s", status, code, strings.TrimSpace(string(body)))
	}
	if len(p.failures) < maxProblems {
		p.failures = append(p.failures, fmt.Sprintf("%s: request %d: %s", p.name, i, cause))
	}
}

// checkSAM cross-checks a /v1/map response record by record against the
// library's MapRead results for the same reads.
func checkSAM(body []byte, reads []genasm.Read, want []sig) error {
	got := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '@' {
			continue
		}
		if got >= len(reads) {
			return fmt.Errorf("more SAM records than the %d reads sent", len(reads))
		}
		f := strings.Split(line, "\t")
		if len(f) < 12 {
			return fmt.Errorf("short SAM record %q", line)
		}
		flag, _ := strconv.Atoi(f[1])
		pos, _ := strconv.Atoi(f[3])
		nm, _ := strconv.Atoi(strings.TrimPrefix(f[11], "NM:i:"))
		s := want[got]
		mapped := flag&4 == 0
		ok := f[0] == reads[got].Name && mapped == s.mapped
		if ok && mapped {
			ok = (flag&16 != 0) == s.rev && pos == s.pos+1 && f[5] == s.cigar && nm == s.dist
		}
		if !ok {
			return fmt.Errorf("record %d %q differs from library MapRead %v", got, line[:min(len(line), 120)], s)
		}
		got++
	}
	if got != len(reads) {
		return fmt.Errorf("%d SAM records for %d reads", got, len(reads))
	}
	return nil
}

// post sends one /v1/map body over the loopback client.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// exchange is one request's outcome within a round.
type exchange struct {
	d      time.Duration
	status int
	body   []byte
	err    error
}

// loadedRound sends every request once through a closed loop of
// `clients` keep-alive clients, each waiting for its response before
// taking the next request.
func loadedRound(ctx context.Context, c *http.Client, url string, reqs []request) []exchange {
	out := make([]exchange, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				status, body, err := post(ctx, c, url, reqs[i].body)
				out[i] = exchange{time.Since(t0), status, body, err}
			}
		}()
	}
	wg.Wait()
	return out
}

// serveSetup times serve-map set-ups: each runs from server.New on the
// index directory through the first /v1/refs/{name}/load.
type serveSetup struct {
	dir    string
	setups []time.Duration
}

// run starts one server after a collection and records its set-up time.
func (s *serveSetup) run() (*server.Server, error) {
	runtime.GC()
	eng, err := genasm.NewEngine()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	srv, err := server.New(server.Config{Engine: eng, RefDir: s.dir})
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/refs/"+refName+"/load", nil))
	s.setups = append(s.setups, time.Since(t0))
	if rec.Code != http.StatusOK {
		return nil, errors.Join(fmt.Errorf("loading reference: HTTP %d: %s", rec.Code, rec.Body.String()),
			srv.Shutdown(context.Background()))
	}
	return srv, nil
}

// again is a set-up whose server is shut down.
func (s *serveSetup) again() error {
	srv, err := s.run()
	if err != nil {
		return err
	}
	return srv.Shutdown(context.Background())
}

// runServe measures serve-map: an in-process server on a loopback
// listener, its reference registered from a .gasmidx file in RefDir.
func runServe(w workload, in *inputs, budget time.Duration, trace bool, rep *report) (res result, err error) {
	// One P: the two clients and the server stay concurrent, but a
	// request's time then depends on one vCPU, not on both. On a shared
	// 2-vCPU host, contention on either vCPU otherwise slows every
	// request, and medians drifted 20-25% between two sets of runs.
	runtime.GOMAXPROCS(1)
	ctx := context.Background()
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(".bench_build", "serve-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	// Inputs, not set-up: the index file and the library's answers.
	eng, err := genasm.NewEngine(genasm.WithSearchStart(true))
	if err != nil {
		return result{}, err
	}
	t0 := time.Now()
	built, err := eng.BuildRefIndex(in.ref, genasm.RefIndexConfig{RefName: refName})
	if err != nil {
		return result{}, err
	}
	build := time.Since(t0)
	path := filepath.Join(dir, refName+".gasmidx")
	if err := built.WriteFile(path); err != nil {
		return result{}, err
	}
	built = nil
	lri, loadTime, err := loadIndex(path)
	if err != nil {
		return result{}, err
	}
	defer func() {
		if lri != nil {
			lri.Close()
		}
	}()
	lib, err := eng.NewMapperFromIndex(lri, genasm.MapperConfig{})
	if err != nil {
		return result{}, err
	}
	want := make([]sig, len(in.reads))
	for i, r := range in.reads {
		mp, err := lib.MapRead(ctx, r.Seq)
		if err != nil {
			return result{}, fmt.Errorf("library MapRead %s: %w", r.Name, err)
		}
		want[i] = sigOf(mp, nil)
	}
	rep.Digest = digest(want)
	if !trace {
		// Only the traced run maps through the library again; release its
		// index so rss_mb counts the server's mapping of the file alone.
		lib = nil
		if err := lri.Close(); err != nil {
			return result{}, err
		}
		lri = nil
	}
	reqs, err := makeRequests(in.reads)
	if err != nil {
		return result{}, err
	}

	su := &serveSetup{dir: dir}
	srv, err := su.run()
	if err != nil {
		return result{}, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return result{}, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	defer func() {
		serr := srv.Shutdown(ctx)
		if e := <-served; !errors.Is(e, http.ErrServerClosed) && serr == nil {
			serr = e
		}
		if err == nil && serr != nil {
			err = fmt.Errorf("shutting down server: %w", serr)
		}
	}()
	transport := &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	base := "http://" + l.Addr().String()

	var probs problemLog
	mets := metricSet{}
	loaded := newReqPass("loaded", len(reqs))
	rounds := 0
	deadline := time.Now().Add(budget)
	if trace {
		// The mapper-pipeline layers, from the library over the same mmap
		// index the server maps with.
		lg, overhead, lp, err := tracedPass(ctx, eng, lri, genasm.MapperConfig{}, lib, in.reads,
			w.traceRounds, 0, nil, deadline, &probs)
		if err != nil {
			return result{}, err
		}
		for i := range want {
			if lp.sigs[i] != want[i] {
				probs.addf("read %s: library mapping changed between passes", in.reads[i].Name)
			}
		}
		lg.set(mets)
		mets.set("trace.overhead_frac", "frac", overhead)
		mets.set("index.build_s", "s", build.Seconds())
		mets.set("index.mb", "MB", float64(lri.Stats().Bytes)/(1<<20))
		mets.set("indexfile.load_s", "s", loadTime.Seconds())
		mets.set("indexfile.file_mb", "MB", float64(lri.Stats().FileBytes)/(1<<20))
		st := servingLayers{srv: srv, lib: lib, client: client, base: base, reqs: reqs, want: want, reads: in.reads, probs: &probs}
		if err := st.measure(ctx, loaded, w.layerRounds, deadline, mets); err != nil {
			return result{}, err
		}
		rounds = w.layerRounds
	} else {
		err := timedRounds(w.rounds, w.setups, 1, deadline, su.again, func() error {
			rounds++
			for i, ex := range loadedRound(ctx, client, base+"/v1/map", reqs) {
				loaded.record(i, reqs[i], ex.d, ex.status, ex.body, ex.err, want, in.reads, &probs)
			}
			return nil
		})
		if err != nil {
			return result{}, err
		}
		times := loaded.times()
		perRead := make([]time.Duration, 0, len(in.reads))
		for i, rq := range reqs {
			for range rq.hi - rq.lo {
				perRead = append(perRead, times[i]/time.Duration(rq.hi-rq.lo))
			}
		}
		mapped, correct, precision := accuracy(in.truth, want)
		mets.set("setup_s", "s", median(seconds(su.setups)))
		mets.set("reads_per_s", "1/s", float64(len(in.reads))/bestOf(times).sum().Seconds())
		mets.set("read_p50_ms", "ms", ms(quantile(perRead, 0.50)))
		mets.set("read_p99_ms", "ms", ms(quantile(perRead, 0.99)))
		mets.set("req_p50_ms", "ms", ms(quantile(times, 0.50)))
		mets.set("req_p99_ms", "ms", ms(quantile(times, 0.99)))
		mets.set("mapped_frac", "frac", mapped)
		mets.set("correct_frac", "frac", correct)
		mets.set("precision", "frac", precision)
		mets.set("ok_frac", "frac", float64(loaded.calls-loaded.failed)/float64(loaded.calls))
		mets.set("rss_mb", "MB", rssMB())
	}
	rep.Rounds = rounds
	rep.Setups = seconds(su.setups)
	rep.Failures = loaded.failures
	probs.into(rep)
	return result{Attempted: loaded.calls, Failed: loaded.failed, Metrics: mets}, nil
}

// servingLayers times the serving layers for the traced run.
type servingLayers struct {
	srv    *server.Server
	lib    *genasm.Mapper
	client *http.Client
	base   string
	reqs   []request
	want   []sig
	reads  []genasm.Read
	probs  *problemLog
}

// measure runs rounds of three single-client passes, request by request —
// the in-process handler, library MapReads on the same reads, loopback
// HTTP — each followed by one loaded closed-loop round between /metrics
// scrapes. Every call is counted on loaded.
func (s servingLayers) measure(ctx context.Context, loaded *reqPass, rounds int, deadline time.Time, mets metricSet) error {
	handler := newReqPass("handler", len(s.reqs))
	libReqs := newReqPass("library", len(s.reqs))
	loop := newReqPass("loopback", len(s.reqs))
	var waits metrics.HistSnapshot
	err := timedRounds(rounds, 0, 0, deadline, nil, func() error {
		for i, rq := range s.reqs {
			rec := httptest.NewRecorder()
			hr := httptest.NewRequest(http.MethodPost, "/v1/map", bytes.NewReader(rq.body))
			hr.Header.Set("Content-Type", "application/json")
			t := time.Now()
			s.srv.Handler().ServeHTTP(rec, hr)
			handler.record(i, rq, time.Since(t), rec.Code, rec.Body.Bytes(), nil, s.want, s.reads, s.probs)

			t = time.Now()
			mps, err := s.lib.MapReads(ctx, s.reads[rq.lo:rq.hi])
			d := time.Since(t)
			libReqs.calls++
			if err != nil {
				libReqs.failed++
				s.probs.addf("library MapReads request %d: %v", i, err)
			} else {
				libReqs.best.observe(i, d)
				for j, mp := range mps {
					if sigOf(mp, nil) != s.want[rq.lo+j] {
						s.probs.addf("library MapReads read %s differs from MapRead", s.reads[rq.lo+j].Name)
					}
				}
			}

			t = time.Now()
			status, body, err := post(ctx, s.client, s.base+"/v1/map", rq.body)
			loop.record(i, rq, time.Since(t), status, body, err, s.want, s.reads, s.probs)
		}
		d, err := s.scrapedRound(ctx, loaded)
		if err != nil {
			return err
		}
		waits.Merge(d)
		return nil
	})
	if err != nil {
		return err
	}
	hp50 := quantile(handler.times(), 0.50)
	mets.set("server.handler_ms_p50", "ms", ms(hp50))
	mets.set("server.overhead_share", "frac", 1-float64(libReqs.best.sum())/float64(bestOf(handler.times()).sum()))
	mets.set("http.loopback_ms_p50", "ms", ms(quantile(loop.times(), 0.50)-hp50))
	mets.set("pool.wait_us_p99", "us", waits.Quantile(0.99)*1e6)
	mets.set("pool.waits_per_req", "count", float64(waits.Count())/float64(loaded.calls))
	for _, p := range []*reqPass{handler, libReqs, loop} {
		loaded.calls += p.calls
		loaded.failed += p.failed
		loaded.failures = append(loaded.failures, p.failures...)
	}
	return nil
}

// scrapedRound runs one loaded round between two /metrics scrapes and
// returns the change in the server's workspace-wait histogram. It also
// checks that the server's mapped-read counter moved by exactly the reads
// the round served.
func (s servingLayers) scrapedRound(ctx context.Context, p *reqPass) (metrics.HistSnapshot, error) {
	before, err := scrape(ctx, s.client, s.base)
	if err != nil {
		return metrics.HistSnapshot{}, err
	}
	served := 0
	for i, ex := range loadedRound(ctx, s.client, s.base+"/v1/map", s.reqs) {
		p.record(i, s.reqs[i], ex.d, ex.status, ex.body, ex.err, s.want, s.reads, s.probs)
		if ex.err == nil && ex.status == http.StatusOK {
			served += s.reqs[i].hi - s.reqs[i].lo
		}
	}
	after, err := scrape(ctx, s.client, s.base)
	if err != nil {
		return metrics.HistSnapshot{}, err
	}
	if got := after.reads - before.reads; got != float64(served) {
		s.probs.addf("genasm_mapper_reads_total moved by %v for %d reads served", got, served)
	}
	d := after.wait
	d.Counts = slices.Clone(d.Counts)
	d.Sum -= before.wait.Sum
	for i, c := range before.wait.Counts {
		d.Counts[i] -= c
	}
	return d, nil
}

// indexLoads is how many times loadIndex loads the index file.
const indexLoads = 9

// loadIndex loads the index file with LoadRefIndex indexLoads times and
// keeps the last, reporting the median load time.
func loadIndex(path string) (*genasm.RefIndex, time.Duration, error) {
	var ri *genasm.RefIndex
	var loads []time.Duration
	for range indexLoads {
		if ri != nil {
			if err := ri.Close(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		if ri, err = genasm.LoadRefIndex(path); err != nil {
			return nil, 0, fmt.Errorf("loading index file: %w", err)
		}
		loads = append(loads, time.Since(t0))
	}
	return ri, time.Duration(median(seconds(loads)) * float64(time.Second)), nil
}

// scrapeState is what the benchmark reads from /metrics.
type scrapeState struct {
	reads float64
	wait  metrics.HistSnapshot // genasm_workspace_wait_seconds
}

func scrape(ctx context.Context, c *http.Client, base string) (scrapeState, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return scrapeState{}, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return scrapeState{}, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	samples, err := metrics.Parse(resp.Body)
	if err != nil {
		return scrapeState{}, fmt.Errorf("parsing /metrics: %w", err)
	}
	// The exposition's buckets are cumulative, in increasing order of
	// their bounds, ending with +Inf; the snapshot counts each bucket
	// alone.
	var st scrapeState
	var cum uint64
	for _, s := range samples {
		switch s.Name {
		case "genasm_mapper_reads_total":
			st.reads = s.Value
		case "genasm_workspace_wait_seconds_bucket":
			le, err := strconv.ParseFloat(s.Labels["le"], 64)
			if err != nil {
				return scrapeState{}, fmt.Errorf("parsing /metrics: bucket le %q", s.Labels["le"])
			}
			if !math.IsInf(le, 1) {
				st.wait.Bounds = append(st.wait.Bounds, le)
			}
			st.wait.Counts = append(st.wait.Counts, uint64(s.Value)-cum)
			cum = uint64(s.Value)
		case "genasm_workspace_wait_seconds_sum":
			st.wait.Sum = s.Value
		}
	}
	return st, nil
}
