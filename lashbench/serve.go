package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lash"
	"lash/internal/datagen"
	"lash/internal/gsm"
	"lash/internal/seqdb"
	"lash/server"
)

// serveSpec is the live-serving workload: lashd's handler behind a loopback
// listener in this process. Cold jobs mine freshly registered copies of a
// text corpus; then append cycles (append, delta re-mine, a subscriber
// following the re-mine, a repeated request answered from the cache) run
// while an open-loop query mix reads the patterns; last, the query mix is
// swept over fixed rates on the quiet server.
type serveSpec struct {
	base      int     // sentences registered
	appendPct float64 // share of base appended per cycle
	maxCycles int     // append chunks generated; a run makes seconds/3 cycles, 2 to maxCycles
	coldJobs  int
	opt       server.OptionsSpec

	queryRate  float64   // nominal open-loop rate during the cycles, 1/s
	sweepRates []float64 // fixed rates of the capacity sweep, 1/s
	sweepStep  time.Duration
	p99Limit   time.Duration // latency limit a sweep rate must meet
	pageSize   int
	pageChain  int // pages fetched by one paginated query
}

var serveLive = &serveSpec{
	base:       16000,
	appendPct:  0.01,
	maxCycles:  12,
	coldJobs:   8,
	opt:        server.OptionsSpec{MinSupport: 80, MaxGap: 0, MaxLength: 3, Workers: workers},
	queryRate:  100,
	sweepRates: []float64{500, 1000, 2000, 4000, 8000},
	sweepStep:  time.Second,
	p99Limit:   25 * time.Millisecond,
	pageSize:   50,
	pageChain:  3,
}

const serveDB = "serve" // the database the cycles append to

// serveInputs are one seed's generated inputs.
type serveInputs struct {
	full   *gsm.Database // base + every append chunk, one forest
	chunks [][]string    // append payloads, one sequence per line
	ldb    string        // path of the base corpus
}

func (s *serveSpec) chunkSize() int { return max(1, int(float64(s.base)*s.appendPct)) }

// generate builds the corpus, writes the base .ldb and renders the append
// chunks.
func (s *serveSpec) generate(seed int64, dir string) (*serveInputs, error) {
	total := s.base + s.maxCycles*s.chunkSize()
	tc := datagen.GenerateText(datagen.TextConfig{Sentences: total, Lemmas: 2000, Seed: seed})
	full, err := tc.Build(datagen.HierarchyCLP)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{full: full, ldb: filepath.Join(dir, "serve.ldb")}
	if err := seqdb.WriteFile(in.ldb, &gsm.Database{Seqs: full.Seqs[:s.base], Forest: full.Forest}); err != nil {
		return nil, err
	}
	for c := 0; c < s.maxCycles; c++ {
		lo := s.base + c*s.chunkSize()
		lines := make([]string, 0, s.chunkSize())
		for _, t := range full.Seqs[lo : lo+s.chunkSize()] {
			lines = append(lines, gsm.String(full.Forest, t))
		}
		in.chunks = append(in.chunks, lines)
	}
	return in, nil
}

// version returns corpus version v (1 = base) as a lash.Database.
func (s *serveSpec) version(in *serveInputs, v int) (*lash.Database, error) {
	n := s.base + (v-1)*s.chunkSize()
	var buf bytes.Buffer
	if err := seqdb.Write(&buf, &gsm.Database{Seqs: in.full.Seqs[:n], Forest: in.full.Forest}); err != nil {
		return nil, err
	}
	return lash.ReadBinaryDatabase(&buf)
}

// mineGate holds one armed mining job at its start until released, so a
// subscriber can attach while the job is still in flight. Unarmed jobs run
// straight through to lash.MineContext.
type mineGate struct {
	mu      sync.Mutex
	started chan struct{}
	release chan struct{}
	held    time.Duration
}

func (g *mineGate) arm() (started, release chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.started, g.release = make(chan struct{}), make(chan struct{})
	return g.started, g.release
}

func (g *mineGate) mine(ctx context.Context, db *lash.Database, opt lash.Options) (*lash.Result, error) {
	g.mu.Lock()
	started, release := g.started, g.release
	g.started, g.release = nil, nil
	g.mu.Unlock()
	if started != nil {
		t := time.Now()
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		g.mu.Lock()
		g.held = time.Since(t)
		g.mu.Unlock()
	}
	return lash.MineContext(ctx, db, opt)
}

func (g *mineGate) lastHold() time.Duration {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.held
}

// span is one timed HTTP call.
type span struct {
	name       string
	start, end time.Time
}

// liveServer is one running server.
type liveServer struct {
	srv  *server.Server
	http *http.Server
	url  string
	gate *mineGate
	done chan struct{}
}

func startServer() (*liveServer, error) {
	g := &mineGate{}
	srv := server.New(server.Config{Workers: workers, MineFunc: g.mine})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{srv: srv, http: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), gate: g, done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		ls.http.Serve(ln) //nolint:errcheck // ErrServerClosed after Shutdown
	}()
	return ls, nil
}

func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := ls.http.Shutdown(ctx)
	<-ls.done
	return errors.Join(err, ls.srv.Close(ctx))
}

// serveRun is one run's client side.
type serveRun struct {
	spec *serveSpec
	cfg  runConfig
	in   *serveInputs
	ls   *liveServer
	ctl  *http.Client // control calls: register, append, mine, subscribe
	qc   *http.Client // query clients, at most `workers` connections

	mu     sync.Mutex
	spans  []span
	jobVer map[string]int // job id → corpus version
}

// call performs one HTTP request and reads the whole body, recording a span
// named after the call in traced runs.
func (r *serveRun) call(c *http.Client, name, method, path, ctype string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, r.ls.url+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	r.span(name, t0, time.Now())
	return resp.StatusCode, b, nil
}

func (r *serveRun) span(name string, start, end time.Time) {
	if !r.cfg.trace {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{name, start, end})
	r.mu.Unlock()
}

func (r *serveRun) spanMS(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var xs []float64
	for _, s := range r.spans {
		if s.name == name {
			xs = append(xs, s.end.Sub(s.start).Seconds()*1e3)
		}
	}
	return quantile(xs, 0.5)
}

func (r *serveRun) jsonCall(name, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	status, b, err := r.call(r.ctl, name, method, path, "application/json", body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(b))
	}
	if out != nil {
		return json.Unmarshal(b, out)
	}
	return nil
}

// mine submits a waiting mine request and returns the finished job.
func (r *serveRun) mine(name, db string) (*server.JobView, int, error) {
	body, err := json.Marshal(server.MineRequest{Database: db, Options: r.spec.opt, Wait: true})
	if err != nil {
		return nil, 0, err
	}
	status, b, err := r.call(r.ctl, name, "POST", "/v1/mine", "application/json", body)
	if err != nil {
		return nil, 0, err
	}
	if status != http.StatusOK {
		return nil, 0, fmt.Errorf("POST /v1/mine %s: status %d: %s", db, status, bytes.TrimSpace(b))
	}
	var jv server.JobView
	if err := json.Unmarshal(b, &jv); err != nil {
		return nil, 0, err
	}
	if jv.Status != server.JobDone || jv.Result == nil {
		return nil, 0, fmt.Errorf("job %s on %s ended %s: %s", jv.ID, db, jv.Status, jv.Error)
	}
	r.mu.Lock()
	r.jobVer[jv.ID] = jv.CorpusVersion
	r.mu.Unlock()
	return &jv, len(b), nil
}

func (r *serveRun) stats() (server.StatsView, error) {
	var sv server.StatsView
	err := r.jsonCall("http.stats", "GET", "/v1/stats", nil, &sv)
	return sv, err
}

// cycleResult is one append cycle's measurements and captured output.
type cycleResult struct {
	version      int
	deltaJob     *server.JobView
	deltaS       float64
	visibleS     float64
	subFirstMS   float64
	minesRun     uint64
	subscription [][]byte // NDJSON lines of the subscriber
}

// cycle appends chunk c, delta re-mines with a subscriber attached while
// the job is in flight, then repeats the request (a cache hit).
func (r *serveRun) cycle(c int) (*cycleResult, error) {
	st0, err := r.stats()
	if err != nil {
		return nil, err
	}
	cr := &cycleResult{}
	tSend := time.Now()
	var info server.DatabaseInfo
	if err := r.jsonCall("http.append", "POST", "/v1/databases/"+serveDB+"/sequences",
		server.AppendSpec{Sequences: r.in.chunks[c]}, &info); err != nil {
		return nil, err
	}
	tAck := time.Now()

	started, release := r.ls.gate.arm()
	type mined struct {
		jv  *server.JobView
		at  time.Time
		err error
	}
	mineDone := make(chan mined, 1)
	go func() {
		jv, _, err := r.mine("http.mine", serveDB)
		mineDone <- mined{jv, time.Now(), err}
	}()
	select {
	case <-started:
	case m := <-mineDone:
		close(release)
		return nil, fmt.Errorf("delta job ended before it started mining: %v", m.err)
	case <-time.After(time.Minute):
		close(release)
		return nil, errors.New("delta job did not start within a minute")
	}

	subErr := make(chan error, 1)
	go func() {
		subErr <- r.subscribe(cr, tSend, release)
	}()
	m := <-mineDone
	if err := <-subErr; err != nil {
		return nil, err
	}
	if m.err != nil {
		return nil, m.err
	}
	if m.jv.CorpusVersion != info.Version {
		return nil, fmt.Errorf("delta job mined version %d, the append installed %d", m.jv.CorpusVersion, info.Version)
	}
	cr.deltaJob = m.jv
	cr.version = m.jv.CorpusVersion
	cr.deltaS = (m.at.Sub(tAck) - r.ls.gate.lastHold()).Seconds()

	cached, _, err := r.mine("http.mine_cached", serveDB)
	if err != nil {
		return nil, err
	}
	if !cached.Cached {
		return nil, fmt.Errorf("repeated request for version %d was not answered from the cache", cached.CorpusVersion)
	}
	st1, err := r.stats()
	if err != nil {
		return nil, err
	}
	cr.minesRun = st1.Jobs.MinesRun - st0.Jobs.MinesRun
	return cr, nil
}

var trailerPrefix = []byte(`{"done":`)

// subscribe follows the database's in-flight job to its end. It releases
// the gated job once the server has answered, that is once the
// subscription is attached.
func (r *serveRun) subscribe(cr *cycleResult, tSend time.Time, release chan struct{}) error {
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", r.ls.url+"/v1/patterns/subscribe?db="+serveDB, nil)
	if err != nil {
		return err
	}
	t0 := time.Now()
	resp, err := r.ctl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	close(release)
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("subscribe: status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		if len(cr.subscription) == 0 {
			cr.subFirstMS = time.Since(t0).Seconds() * 1e3
		}
		cr.subscription = append(cr.subscription, line)
		if bytes.HasPrefix(line, trailerPrefix) {
			now := time.Now()
			cr.visibleS = now.Sub(tSend).Seconds()
			r.span("http.subscribe", t0, now)
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("subscription ended without a trailer")
}

// query is one pattern query of the mix. page > 0 marks a cursor
// follow-up of a paginated query.
type query struct {
	kind   string
	params url.Values
}

type querySample struct {
	q               query
	page, offset    int
	due, start, end time.Time
	status          int
	body            []byte
}

// queryMix draws the open-loop query stream from the cold result.
type queryMix struct {
	items    []string
	patterns [][]string
	supports []int64
	levels   int
}

func newQueryMix(res *server.ResultView, levels int) *queryMix {
	m := &queryMix{levels: levels}
	seen := make(map[string]bool)
	for _, p := range res.Patterns {
		m.patterns = append(m.patterns, p.Items)
		m.supports = append(m.supports, p.Support)
		for _, it := range p.Items {
			if !seen[it] {
				seen[it] = true
				m.items = append(m.items, it)
			}
		}
	}
	sort.Strings(m.items)
	return m
}

var queryKinds = []string{"top", "min_support", "contains", "prefix", "level", "rollup", "page"}

// at returns query i of the stream for the given seed.
func (m *queryMix) at(seed int64, i int64, pageSize int) query {
	r := rand.New(rand.NewSource(seed*1_000_003 + i))
	kind := queryKinds[i%int64(len(queryKinds))]
	v := url.Values{}
	switch kind {
	case "top":
		v.Set("limit", "10")
	case "min_support":
		v.Set("min_support", strconv.FormatInt(m.supports[r.Intn(len(m.supports))], 10))
		v.Set("limit", "20")
	case "contains":
		v.Set("contains", m.items[r.Intn(len(m.items))])
		v.Set("limit", "20")
	case "prefix":
		v.Set("prefix", m.patterns[r.Intn(len(m.patterns))][0])
		v.Set("limit", "20")
	case "level":
		v.Set("level", strconv.Itoa(r.Intn(m.levels)))
		v.Set("limit", "20")
	case "rollup":
		v.Set("rollup", strings.Join(m.patterns[r.Intn(len(m.patterns))], ","))
	case "page":
		v.Set("limit", strconv.Itoa(pageSize))
	}
	return query{kind: kind, params: v}
}

// openLoop sends the query mix on a fixed schedule of rate queries per
// second from `workers` clients until stop closes or dur (when positive)
// has passed. Every query is timed from when it was due; the cursor
// follow-ups of a paginated query go out as soon as the previous page
// arrives and are timed from then.
func (r *serveRun) openLoop(mix *queryMix, rate float64, dur time.Duration, stop <-chan struct{}) ([]querySample, error) {
	start := time.Now()
	var next atomic.Int64
	out := make([][]querySample, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if dur > 0 && due.Sub(start) >= dur {
					return
				}
				if d := time.Until(due); d > 0 {
					select {
					case <-stop:
						return
					case <-time.After(d):
					}
				} else {
					select {
					case <-stop:
						return
					default:
					}
				}
				q := mix.at(r.cfg.seed, i, r.spec.pageSize)
				samples, err := r.send(q, due)
				if err != nil {
					errs[w] = err
					return
				}
				out[w] = append(out[w], samples...)
			}
		}(w)
	}
	wg.Wait()
	var all []querySample
	for w := range out {
		if errs[w] != nil {
			return nil, errs[w]
		}
		all = append(all, out[w]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].due.Before(all[j].due) })
	return all, nil
}

// send sends one query (and the cursor follow-ups of a paginated one).
func (r *serveRun) send(q query, due time.Time) ([]querySample, error) {
	var out []querySample
	params := url.Values{}
	for k, v := range q.params {
		params[k] = v
	}
	params.Set("db", serveDB)
	offset := 0
	for page := 0; ; page++ {
		s := querySample{q: q, page: page, offset: offset, due: due, start: time.Now()}
		status, body, err := r.call(r.qc, "http.patterns", "GET", "/v1/patterns?"+params.Encode(), "", nil)
		if err != nil {
			return nil, err
		}
		s.end, s.status, s.body = time.Now(), status, body
		out = append(out, s)
		if q.kind != "page" || status != http.StatusOK || page+1 >= r.spec.pageChain {
			return out, nil
		}
		var resp struct {
			JobID      string `json:"job_id"`
			Returned   int    `json:"returned"`
			NextCursor string `json:"next_cursor"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		if resp.NextCursor == "" {
			return out, nil
		}
		offset += resp.Returned
		params.Del("db")
		params.Set("job", resp.JobID)
		params.Set("cursor", resp.NextCursor)
		due = time.Now()
	}
}

// latencies returns the samples' latencies from their due times, in ms.
func latencies(samples []querySample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.end.Sub(s.due).Seconds() * 1e3
	}
	return out
}

func (s *serveSpec) run(cfg runConfig) (*report, error) {
	rep := &report{}
	var setup timing
	var in *serveInputs
	var ls *liveServer
	for i := 0; i < setupReps; i++ {
		if ls != nil {
			if err := ls.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if in, err = s.generate(cfg.seed, cfg.dir); err != nil {
			return nil, err
		}
		if ls, err = startServer(); err != nil {
			return nil, err
		}
		setup.add(time.Since(start).Seconds())
	}
	r := &serveRun{
		spec: s, cfg: cfg, in: in, ls: ls,
		ctl:    &http.Client{Transport: &http.Transport{DisableCompression: true, MaxIdleConnsPerHost: 4}},
		qc:     &http.Client{Transport: &http.Transport{DisableCompression: true, MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}},
		jobVer: make(map[string]int),
	}
	defer func() {
		r.ctl.CloseIdleConnections()
		r.qc.CloseIdleConnections()
		ls.stop() //nolint:errcheck // shutdown errors after a failed run add nothing
	}()
	fmt.Fprintf(cfg.log, "# corpus base_sentences=%d append=%d sentences/cycle sigma=%d gamma=%d lambda=%d query_rate=%g/s sweep=%v p99_limit=%v\n",
		s.base, s.chunkSize(), s.opt.MinSupport, s.opt.MaxGap, s.opt.MaxLength, s.queryRate, s.sweepRates, s.p99Limit)

	ldb, err := os.ReadFile(in.ldb)
	if err != nil {
		return nil, err
	}
	timedStart := time.Now()

	// Cold jobs: one per freshly registered copy of the corpus.
	var runS, runRel, allocs, shuffle timing
	var coldView *server.JobView
	var coldBytes int
	var ms runtime.MemStats
	for i := 0; i < s.coldJobs; i++ {
		name := fmt.Sprintf("%s-%d", serveDB, i)
		if i == s.coldJobs-1 {
			name = serveDB
		}
		status, b, err := r.call(r.ctl, "http.register", "POST", "/v1/databases?name="+name, "application/x-lash-ldb", ldb)
		if err != nil {
			return nil, err
		}
		if status != http.StatusCreated {
			return nil, fmt.Errorf("register %s: status %d: %s", name, status, bytes.TrimSpace(b))
		}
		ref := refTime()
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		t0 := time.Now()
		jv, n, err := r.mine("http.mine", name)
		el := time.Since(t0)
		rep.attempted++
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms)
		runS.add(el.Seconds())
		runRel.add(el.Seconds() / ref)
		allocs.add(float64(ms.TotalAlloc - alloc0))
		shuffle.add(float64(jv.Result.MapOutputBytes))
		coldView, coldBytes = jv, n
	}
	fmt.Fprintf(cfg.log, "# cold result patterns=%d partitions=%d response_bytes=%d\n",
		len(coldView.Result.Patterns), coldView.Result.NumPartitions, coldBytes)
	mix := newQueryMix(coldView.Result, in.full.Forest.Depth())

	// Append cycles with the nominal query load running beside them.
	stop := make(chan struct{})
	type loadOut struct {
		samples []querySample
		err     error
	}
	loadDone := make(chan loadOut, 1)
	go func() {
		smp, err := r.openLoop(mix, s.queryRate, 0, stop)
		loadDone <- loadOut{smp, err}
	}()
	// The cycle count follows from the run length alone, so every run of a
	// given length does the same operations whatever the host's speed.
	var cycles []*cycleResult
	var cycleErr error
	for c := 0; c < min(max(int(cfg.seconds/3), 2), s.maxCycles); c++ {
		cr, err := r.cycle(c)
		rep.attempted++
		if err != nil {
			cycleErr = fmt.Errorf("cycle %d: %w", c, err)
			break
		}
		cycles = append(cycles, cr)
	}
	close(stop)
	load := <-loadDone
	if cycleErr != nil {
		return nil, cycleErr
	}
	if load.err != nil {
		return nil, load.err
	}
	queries := load.samples
	// The peak is taken before the sweep: past this point the process grows
	// only by the sweep's stored responses, which are the benchmark's own.
	rss := peakRSS()

	// Capacity sweep on the quiet server.
	maxRPS := 0.0
	for _, rate := range s.sweepRates {
		smp, err := r.openLoop(mix, rate, s.sweepStep, nil)
		if err != nil {
			return nil, err
		}
		queries = append(queries, smp...)
		lat := latencies(smp)
		p99 := quantile(lat, 0.99)
		late := 0.0
		for _, q := range smp[len(smp)*3/4:] {
			late = max(late, q.start.Sub(q.due).Seconds()*1e3)
		}
		ok := p99 <= float64(s.p99Limit.Milliseconds()) && late <= float64(s.p99Limit.Milliseconds())
		if ok {
			maxRPS = rate
		}
		fmt.Fprintf(cfg.log, "# sweep rate=%g/s n=%d p99=%.3fms max_late_last_quarter=%.3fms pass=%v\n", rate, len(smp), p99, late, ok)
	}
	fmt.Fprintf(cfg.log, "# timed part took %.1fs\n", time.Since(timedStart).Seconds())
	rep.attempted += len(queries)
	for _, q := range queries {
		if q.status != http.StatusOK {
			rep.failed++
		}
	}

	// Report.
	var deltaS, visibleS, subFirst, reused, minesRun timing
	for _, c := range cycles {
		deltaS.add(c.deltaS)
		visibleS.add(c.visibleS)
		subFirst.add(c.subFirstMS)
		minesRun.add(float64(c.minesRun))
		res := c.deltaJob.Result
		reused.add(ratio(res.DeltaPartitionsReused, res.DeltaPartitionsReused+res.DeltaPartitionsDirty))
	}
	var nominal timing
	var nominalLate float64
	for _, q := range load.samples {
		if q.page == 0 {
			nominal.add(q.end.Sub(q.due).Seconds() * 1e3)
			nominalLate = max(nominalLate, q.start.Sub(q.due).Seconds()*1e3)
		}
	}
	fmt.Fprintf(cfg.log, "# %s\n", runS.describe("run_s (cold job)", "s"))
	fmt.Fprintf(cfg.log, "# %s\n", runRel.describe("run_rel (cold job)", "ratio"))
	fmt.Fprintf(cfg.log, "# cycles=%d %s\n", len(cycles), deltaS.describe("delta_job_s", "s"))
	fmt.Fprintf(cfg.log, "# %s\n", visibleS.describe("append_visible_s", "s"))
	fmt.Fprintf(cfg.log, "# %s max_generator_late=%.3fms\n", nominal.describe("query_ms at nominal rate", "ms"), nominalLate)
	fmt.Fprintf(cfg.log, "# query_max_rps=%g mines_run_per_append=%g\n", maxRPS, minesRun.median())

	rep.e2e = []metric{
		{"setup_s", setup.median(), "s"},
		{"run_rel", runRel.median(), "ratio"},
		{"shuffle_bytes", shuffle.median(), "bytes"},
		{"alloc_bytes", allocs.median(), "bytes"},
		{"peak_rss_bytes", rss, "bytes"},
	}
	if cfg.trace {
		vals, err := r.traceMetrics(coldView, coldBytes, runS.median())
		if err != nil {
			return nil, err
		}
		vals["run_s"] = runS.median()
		vals["serve.delta_job_s"] = deltaS.median()
		vals["serve.append_visible_s"] = visibleS.median()
		vals["serve.query_p50_ms"] = nominal.median()
		vals["serve.query_p99_ms"] = quantile(nominal.samples, 0.99)
		vals["serve.query_max_rps"] = maxRPS
		vals["http.subscribe_first_ms"] = subFirst.median()
		vals["delta.reused_ratio"] = reused.median()
		vals["server.mines_run_per_append"] = minesRun.median()
		rep.layer = layerMetrics(vals)
	}

	checkStart := time.Now()
	if err := r.check(rep, cycles, queries); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "# checks took %.1fs\n", time.Since(checkStart).Seconds())
	return rep, nil
}

// traceMetrics gathers the serve-live per-layer metrics: HTTP call spans,
// the server's own job and cache statistics, and one traced pipeline run
// over the base corpus.
func (r *serveRun) traceMetrics(cold *server.JobView, coldBytes int, runS float64) (map[string]float64, error) {
	lr, err := runLayers(r.in.ldb, lash.Options{MinSupport: r.spec.opt.MinSupport, MaxGap: r.spec.opt.MaxGap,
		MaxLength: r.spec.opt.MaxLength, Workers: workers})
	if err != nil {
		return nil, err
	}
	vals := lr.vals
	vals["trace.run_s"] = lr.wall.Seconds()
	vals["trace.overhead_s"] = lr.wall.Seconds() - runS
	// The server's encoding: the cold job's wait response.
	var enc timing
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		e := json.NewEncoder(io.Discard)
		e.SetIndent("", "  ")
		if err := e.Encode(cold); err != nil {
			return nil, err
		}
		enc.add(time.Since(t0).Seconds())
	}
	vals["encode.s"] = enc.median()
	vals["encode.bytes"] = float64(coldBytes)
	vals["http.mine_ms"] = r.spanMS("http.mine")
	vals["http.append_ms"] = r.spanMS("http.append")
	vals["http.patterns_ms"] = r.spanMS("http.patterns")

	sv, err := r.stats()
	if err != nil {
		return nil, err
	}
	vals["cache.hit_ratio"] = ratio(int64(sv.Cache.Hits), int64(sv.Cache.Hits+sv.Cache.Misses))
	status, b, err := r.call(r.ctl, "http.metrics", "GET", "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	vals["job.queue_ms"] = histMean(b, "lash_job_queue_seconds") * 1e3
	vals["job.run_ms"] = histMean(b, "lash_job_run_seconds") * 1e3
	return vals, nil
}

// histMean reads a Prometheus histogram's mean (sum over count) from an
// exposition.
func histMean(expo []byte, name string) float64 {
	var sum, count float64
	for _, l := range strings.Split(string(expo), "\n") {
		f := strings.Fields(l)
		if len(f) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		switch f[0] {
		case name + "_sum":
			sum = v
		case name + "_count":
			count = v
		}
	}
	if count == 0 {
		return 0
	}
	return sum / count
}
