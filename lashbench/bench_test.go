package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"lash"
	"lash/server"
)

// Small versions of the workloads, for the smoke runs and the check cases.
func smallText() *batchSpec {
	b := *textNgram
	b.size = 1500
	b.opt.MinSupport = 15
	b.recount, b.pairSeq = 40, 200
	b.oracle = oracleSpec{seqs: 25, maxLen: 10, sigma: 2}
	return &b
}

func smallMarket() *batchSpec {
	b := *marketDeep
	b.size = 1500
	b.opt.MinSupport = 4
	b.opt.MemoryBudget = 32 << 10
	b.recount, b.pairSeq = 40, 200
	b.oracle = oracleSpec{seqs: 25, maxLen: 6, sigma: 2}
	return &b
}

func smallServe() *serveSpec {
	s := *serveLive
	s.base = 1500
	s.opt.MinSupport = 15
	s.maxCycles = 2
	s.coldJobs = 2
	s.queryRate = 50
	s.sweepRates = []float64{100, 200}
	s.sweepStep = 200 * time.Millisecond
	return &s
}

func testConfig(t *testing.T, trace bool) runConfig {
	return runConfig{seed: 7, seconds: 0.01, trace: trace, dir: t.TempDir(), log: io.Discard}
}

func requireReport(t *testing.T, rep *report, err error, trace bool) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.checks {
		if c.err != nil {
			t.Errorf("check %s: %v", c.name, c.err)
		}
	}
	if !rep.correct() || rep.attempted < 1 || rep.failed != 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", rep.correct(), rep.attempted, rep.failed)
	}
	if len(rep.e2e) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics, want %d", len(rep.e2e), len(endToEndDefs))
	}
	for i, m := range rep.e2e {
		if m.Name != endToEndDefs[i].name || m.Unit != endToEndDefs[i].unit || !(m.Value > 0) {
			t.Errorf("end-to-end metric %d: %+v (want %s in %s, positive)", i, m, endToEndDefs[i].name, endToEndDefs[i].unit)
		}
	}
	if trace && len(rep.layer) != len(layerDefs) {
		t.Fatalf("%d per-layer metrics, want %d", len(rep.layer), len(layerDefs))
	}
}

func TestSmokeTextNgram(t *testing.T) {
	rep, err := smallText().run(testConfig(t, true))
	requireReport(t, rep, err, true)
}

func TestSmokeMarketDeep(t *testing.T) {
	b := smallMarket()
	rep, err := b.run(testConfig(t, true))
	requireReport(t, rep, err, true)
	vals := make(map[string]float64)
	for _, m := range rep.layer {
		vals[m.Name] = m.Value
	}
	if vals["spill.runs"] == 0 || vals["restrict.kept_ratio"] == 0 {
		t.Errorf("market-deep should spill and filter: spill.runs=%g restrict.kept_ratio=%g", vals["spill.runs"], vals["restrict.kept_ratio"])
	}
}

func TestSmokeServeLive(t *testing.T) {
	rep, err := smallServe().run(testConfig(t, true))
	requireReport(t, rep, err, true)
	vals := make(map[string]float64)
	for _, m := range rep.layer {
		vals[m.Name] = m.Value
	}
	for _, name := range []string{"http.mine_ms", "http.append_ms", "http.patterns_ms", "serve.delta_job_s", "serve.append_visible_s", "cache.hit_ratio", "server.mines_run_per_append"} {
		if !(vals[name] > 0) {
			t.Errorf("%s = %g, want > 0", name, vals[name])
		}
	}
}

// The traced run's layer-by-layer pipeline must produce exactly lash.Mine's
// output, so the per-layer times measure the same work.
func TestTracedPipelineMatchesMine(t *testing.T) {
	for _, b := range []*batchSpec{smallText(), smallMarket()} {
		t.Run(b.name, func(t *testing.T) {
			path := t.TempDir() + "/c.ldb"
			if err := b.gen(b.size, 3, path); err != nil {
				t.Fatal(err)
			}
			db, err := lash.OpenBinaryDatabase(path)
			if err != nil {
				t.Fatal(err)
			}
			want, err := lash.Mine(db, b.opt)
			if err != nil {
				t.Fatal(err)
			}
			lr, err := runLayers(path, b.opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(want.Patterns) == 0 {
				t.Fatal("empty output; the comparison would prove nothing")
			}
			if err := samePatterns(lr.patterns, want.Patterns); err != nil {
				t.Fatal(err)
			}
			if got := lr.vals["shuffle.bytes"]; got != float64(want.Stats.MapOutputBytes) {
				t.Errorf("traced shuffle moved %g bytes, lash.Mine %d", got, want.Stats.MapOutputBytes)
			}
		})
	}
}

// checkFixture is a small mined corpus for the corrupted-result cases.
type checkFixture struct {
	spec  *batchSpec
	db    *lash.Database
	view  *corpusView
	res   *lash.Result // as the workload mines it
	all   []lash.Pattern
	items []lash.Pattern
}

func newFixture(t *testing.T, b *batchSpec) *checkFixture {
	t.Helper()
	path := t.TempDir() + "/c.ldb"
	if err := b.gen(b.size, 5, path); err != nil {
		t.Fatal(err)
	}
	db, err := lash.OpenBinaryDatabase(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lash.Mine(db, b.opt)
	if err != nil {
		t.Fatal(err)
	}
	o := b.opt
	o.Restriction = lash.RestrictNone
	all, err := lash.Mine(db, o)
	if err != nil {
		t.Fatal(err)
	}
	return &checkFixture{spec: b, db: db, view: newCorpusView(db), res: res, all: all.Patterns, items: res.FrequentItems}
}

func clonePatterns(ps []lash.Pattern) []lash.Pattern {
	out := make([]lash.Pattern, len(ps))
	for i, p := range ps {
		out[i] = lash.Pattern{Items: append([]string(nil), p.Items...), Support: p.Support}
	}
	return out
}

func without(ps []lash.Pattern, i int) []lash.Pattern {
	out := clonePatterns(ps)
	return append(out[:i], out[i+1:]...)
}

func expectPass(t *testing.T, name string, d string, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s on the true output: %v", name, err)
	}
	t.Logf("%s: %s", name, d)
}

func expectFail(t *testing.T, name string, _ string, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s accepted a corrupted result", name)
	}
	t.Logf("%s rejects: %v", name, err)
}

func TestCheckSupportRecountRejectsOffByOne(t *testing.T) {
	f := newFixture(t, smallText())
	d, err := checkSupports(f.view, f.res.Patterns, f.spec.opt.MaxGap, len(f.res.Patterns), 1)
	expectPass(t, "support-recount", d, err)
	bad := clonePatterns(f.res.Patterns)
	bad[len(bad)/2].Support++
	d, err = checkSupports(f.view, bad, f.spec.opt.MaxGap, len(bad), 1)
	expectFail(t, "support-recount", d, err)
}

func TestCheckFListRejectsCorruption(t *testing.T) {
	f := newFixture(t, smallText())
	d, err := checkFList(f.view, f.items, f.spec.opt.MinSupport)
	expectPass(t, "flist", d, err)
	off := clonePatterns(f.items)
	off[0].Support--
	d, err = checkFList(f.view, off, f.spec.opt.MinSupport)
	expectFail(t, "flist", d, err)
	d, err = checkFList(f.view, without(f.items, len(f.items)-1), f.spec.opt.MinSupport)
	expectFail(t, "flist", d, err)
}

func TestCheckDownwardClosureRejectsDroppedPrefix(t *testing.T) {
	f := newFixture(t, smallText())
	d, err := checkDownwardClosure(f.all, f.items)
	expectPass(t, "downward-closure", d, err)
	// Drop the prefix of some length-3 pattern.
	var drop = -1
	keys := make(map[string]int)
	for i, p := range f.all {
		keys[patternKey(p.Items)] = i
	}
	for _, p := range f.all {
		if len(p.Items) == 3 {
			drop = keys[patternKey(p.Items[:2])]
			break
		}
	}
	if drop < 0 {
		t.Fatal("fixture has no length-3 pattern")
	}
	d, err = checkDownwardClosure(without(f.all, drop), f.items)
	expectFail(t, "downward-closure", d, err)
}

func TestCheckPairsRejectsDroppedPair(t *testing.T) {
	f := newFixture(t, smallText())
	n := len(f.view.seqs)
	d, err := checkPairs(f.view, f.all, f.spec.opt.MinSupport, f.spec.opt.MaxGap, n, 1)
	expectPass(t, "pair-completeness", d, err)
	for i, p := range f.all {
		if len(p.Items) == 2 {
			d, err = checkPairs(f.view, without(f.all, i), f.spec.opt.MinSupport, f.spec.opt.MaxGap, n, 1)
			expectFail(t, "pair-completeness", d, err)
			return
		}
	}
	t.Fatal("fixture has no pair")
}

func TestCheckOracleRejectsDroppedPattern(t *testing.T) {
	f := newFixture(t, smallMarket())
	d, err := checkOracle(f.view, f.spec.opt, f.spec.oracle, 1, lash.Mine)
	expectPass(t, "oracle", d, err)
	dropOne := func(db *lash.Database, o lash.Options) (*lash.Result, error) {
		res, err := lash.Mine(db, o)
		if err == nil && len(res.Patterns) > 0 {
			res.Patterns = res.Patterns[1:]
		}
		return res, err
	}
	d, err = checkOracle(f.view, f.spec.opt, f.spec.oracle, 1, dropOne)
	expectFail(t, "oracle", d, err)
}

func TestCheckClosedRejectsWrongRestriction(t *testing.T) {
	f := newFixture(t, smallMarket())
	d, err := checkClosed(f.view, f.res.Patterns, f.all)
	expectPass(t, "closedness", d, err)
	if len(f.res.Patterns) == len(f.all) {
		t.Fatal("fixture has no non-closed pattern")
	}
	// Keeping every pattern keeps non-closed ones.
	d, err = checkClosed(f.view, f.all, f.all)
	expectFail(t, "closedness", d, err)
	// Dropping a closed pattern.
	d, err = checkClosed(f.view, without(f.res.Patterns, 0), f.all)
	expectFail(t, "closedness", d, err)
}

// serveFixture mines two corpus versions of the small serve-live corpus.
type serveFixture struct {
	spec     *serveSpec
	in       *serveInputs
	prev     []lash.Pattern // version 1, serving order
	cur      []lash.Pattern // version 2, serving order
	prevSet  map[string]int64
	curSet   map[string]int64
	listings map[string][]lash.Pattern
}

func newServeFixture(t *testing.T) *serveFixture {
	t.Helper()
	s := smallServe()
	in, err := s.generate(9, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := &serveFixture{spec: s, in: in, listings: make(map[string][]lash.Pattern)}
	for v, dst := range map[int]*[]lash.Pattern{1: &f.prev, 2: &f.cur} {
		db, err := s.version(in, v)
		if err != nil {
			t.Fatal(err)
		}
		res, err := lash.Mine(db, lash.Options{MinSupport: s.opt.MinSupport, MaxGap: s.opt.MaxGap, MaxLength: s.opt.MaxLength})
		if err != nil {
			t.Fatal(err)
		}
		// Serving order: support descending, ties in mining order.
		*dst = clonePatterns(res.Patterns)
		sort.SliceStable(*dst, func(i, j int) bool { return (*dst)[i].Support > (*dst)[j].Support })
	}
	f.prevSet, f.curSet = patternSet(f.prev), patternSet(f.cur)
	f.listings["job-1"], f.listings["job-2"] = f.prev, f.cur
	return f
}

func subscriptionLines(t *testing.T, prev, cur []lash.Pattern) [][]byte {
	t.Helper()
	var lines [][]byte
	add := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, b)
	}
	add(server.SubscribeMarker{Version: 1})
	for _, p := range prev {
		add(server.SubscribeRecord{Items: p.Items, Support: p.Support, Replay: true})
	}
	add(server.SubscribeMarker{Version: 2})
	for _, p := range cur {
		add(server.SubscribeRecord{Items: p.Items, Support: p.Support})
	}
	add(server.SubscribeTrailer{Done: true, Database: serveDB, CorpusVersion: 2, Replayed: len(prev), Live: len(cur)})
	return lines
}

func TestCheckSubscriptionRejectsCorruption(t *testing.T) {
	f := newServeFixture(t)
	good := subscriptionLines(t, f.prev, f.cur)
	if err := checkSubscription(good, 2, f.prevSet, f.curSet); err != nil {
		t.Fatalf("true subscription: %v", err)
	}
	// A record delivered twice.
	dup := append(append([][]byte(nil), good[:len(good)-1]...), good[len(good)-2], good[len(good)-1])
	expectFail(t, "subscription (duplicate record)", "", checkSubscription(dup, 2, f.prevSet, f.curSet))
	// A record from the wrong version: the replay block carries version
	// 2's patterns.
	wrong := subscriptionLines(t, f.cur, f.cur)
	expectFail(t, "subscription (wrong version)", "", checkSubscription(wrong, 2, f.prevSet, f.curSet))
	// A dropped record.
	dropped := append(append([][]byte(nil), good[:len(good)-2]...), good[len(good)-1])
	expectFail(t, "subscription (dropped record)", "", checkSubscription(dropped, 2, f.prevSet, f.curSet))
}

func TestCheckListingRejectsDroppedPattern(t *testing.T) {
	f := newServeFixture(t)
	if err := checkListing(f.cur, f.curSet); err != nil {
		t.Fatalf("true listing: %v", err)
	}
	expectFail(t, "job-listings", "", checkListing(without(f.cur, 3), f.curSet))
	expectFail(t, "job-listings", "", checkListing(f.prev, f.curSet))
}

func TestCheckQueriesRejectsCorruptedAnswer(t *testing.T) {
	f := newServeFixture(t)
	mix := newQueryMix(&server.ResultView{Patterns: viewOf(f.prev)}, f.in.full.Forest.Depth())
	var samples []querySample
	for i := int64(0); i < 70; i++ {
		q := mix.at(1, i, f.spec.pageSize)
		body := answer(t, f.listings["job-1"], q, f)
		samples = append(samples, querySample{q: q, status: http.StatusOK, body: body})
	}
	d, err := checkQueries(samples, f.listings, f.in.full.Forest)
	expectPass(t, "query-answers", d, err)
	for i := range samples {
		var resp patternsResponse
		if err := json.Unmarshal(samples[i].body, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Patterns) == 0 {
			continue
		}
		resp.Patterns[0].Support++
		bad := append([]querySample(nil), samples...)
		bad[i].body, _ = json.Marshal(resp)
		d, err = checkQueries(bad, f.listings, f.in.full.Forest)
		expectFail(t, "query-answers", d, err)
		return
	}
	t.Fatal("no non-empty answer to corrupt")
}

// answer renders the naive answer to q as GET /v1/patterns would.
func answer(t *testing.T, listing []lash.Pattern, q query, f *serveFixture) []byte {
	t.Helper()
	var pats []lash.Pattern
	total := 0
	if q.kind == "rollup" {
		pats = naiveRollup(newListing(listing, f.in.full.Forest), strings.Split(q.params.Get("rollup"), ","), f.in.full.Forest)
		total = len(pats)
	} else {
		m := naiveFilter(newListing(listing, f.in.full.Forest), q.params)
		total = len(m)
		limit, _ := strconv.Atoi(q.params.Get("limit"))
		pats = m[:min(limit, len(m))]
	}
	b, err := json.Marshal(patternsResponse{JobID: "job-1", Total: total, Returned: len(pats), Patterns: viewOf(pats)})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func viewOf(ps []lash.Pattern) []server.PatternView {
	out := make([]server.PatternView, len(ps))
	for i, p := range ps {
		out[i] = server.PatternView{Items: p.Items, Support: p.Support}
	}
	return out
}

// The naive query filters must agree with the server's index on a live
// server: a guard against the checks themselves drifting from the API.
func TestNaiveFiltersMatchServer(t *testing.T) {
	ls, err := startServer()
	if err != nil {
		t.Fatal(err)
	}
	defer ls.stop()
	f := newServeFixture(t)
	r := &serveRun{spec: f.spec, in: f.in, ls: ls, cfg: runConfig{seed: 1}, jobVer: make(map[string]int),
		ctl: &http.Client{}, qc: &http.Client{}}
	ldb, err := os.ReadFile(f.in.ldb)
	if err != nil {
		t.Fatal(err)
	}
	if status, b, err := r.call(r.ctl, "register", "POST", "/v1/databases?name="+serveDB, "application/x-lash-ldb", ldb); err != nil || status != http.StatusCreated {
		t.Fatalf("register: %v %d %s", err, status, b)
	}
	jv, _, err := r.mine("mine", serveDB)
	if err != nil {
		t.Fatal(err)
	}
	listing, err := r.listing(jv.ID)
	if err != nil {
		t.Fatal(err)
	}
	mix := newQueryMix(jv.Result, f.in.full.Forest.Depth())
	var samples []querySample
	for i := int64(0); i < 140; i++ {
		smp, err := r.send(mix.at(2, i, f.spec.pageSize), time.Now())
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, smp...)
	}
	d, err := checkQueries(samples, map[string][]lash.Pattern{jv.ID: listing}, f.in.full.Forest)
	expectPass(t, "query-answers", d, err)
}

// BENCHMARK.json must list exactly the workloads and metrics this program
// reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	if len(doc.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("%d end-to-end metrics, program has %d", len(doc.EndToEnd), len(endToEndDefs))
	}
	for i, m := range doc.EndToEnd {
		d := endToEndDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	if len(doc.PerLayer) != len(layerDefs) {
		t.Fatalf("%d per-layer metrics, program has %d", len(doc.PerLayer), len(layerDefs))
	}
	for i, m := range doc.PerLayer {
		d := layerDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{39, 0, false}, {40, 0, false}, {100, 0.9, true}, {999, 0.9, true}, {1000, 0.99, true}, {10000, 0.999, true}} {
		got, ok := tailQuantile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %g %v, want %g %v", c.n, got, ok, c.want, c.ok)
		}
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median = %g", got)
	}
}
