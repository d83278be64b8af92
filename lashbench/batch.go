package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lash"
	"lash/internal/datagen"
	"lash/internal/seqdb"
)

// batchSpec is a batch-mining workload: generate a corpus, write it as an
// .ldb file, then repeatedly open it, mine it with lash.Mine and write the
// patterns as NDJSON.
type batchSpec struct {
	name string
	size int                                           // sentences or sessions
	gen  func(size int, seed int64, path string) error // writes the corpus as .ldb
	opt  lash.Options

	// Output-check sizes.
	recount int        // patterns whose support is recounted
	pairSeq int        // sequences whose pairs are checked for completeness
	oracle  oracleSpec // brute-force subsample
}

// setupReps is how many times every run builds its inputs; setup_s is the
// median.
const setupReps = 5

var textNgram = &batchSpec{
	name: "text-ngram",
	size: 30000,
	gen: func(size int, seed int64, path string) error {
		db, err := datagen.GenerateText(datagen.TextConfig{Sentences: size, Lemmas: 2000, Seed: seed}).Build(datagen.HierarchyCLP)
		if err != nil {
			return err
		}
		return seqdb.WriteFile(path, db)
	},
	opt:     lash.Options{MinSupport: 150, MaxGap: 0, MaxLength: 3, Workers: workers},
	recount: 60,
	pairSeq: 60,
	oracle:  oracleSpec{seqs: 60, maxLen: 12, sigma: 3},
}

var marketDeep = &batchSpec{
	name: "market-deep",
	size: 20000,
	gen: func(size int, seed int64, path string) error {
		// The catalogue (products and their category chains) is part of
		// the workload and fixed; the seed draws the sessions. Drawing the
		// catalogue too would let one seed's few most popular products
		// sit deep in the hierarchy and another's shallow, which moves
		// the mining work by half between seeds.
		cfg := datagen.MarketConfig{Users: size, Products: 5000, Seed: seed}
		c := datagen.GenerateMarket(cfg)
		cfg.Seed = marketCatalogueSeed
		cat := datagen.GenerateMarket(cfg)
		c.Chains, c.Products = cat.Chains, cat.Products
		db, err := c.Build(datagen.MaxLevels)
		if err != nil {
			return err
		}
		return seqdb.WriteFile(path, db)
	},
	opt: lash.Options{MinSupport: 20, MaxGap: 2, MaxLength: 5, Workers: workers,
		Restriction: lash.RestrictClosed, MemoryBudget: 2 << 20},
	recount: 60,
	pairSeq: 60,
	oracle:  oracleSpec{seqs: 40, maxLen: 6, sigma: 2},
}

// marketCatalogueSeed draws market-deep's fixed product catalogue.
const marketCatalogueSeed = 20150531

// mineFile is one untraced round: open the .ldb, mine it and write the
// patterns as NDJSON to out.
func mineFile(path, out string, opt lash.Options) (*lash.Result, error) {
	db, err := lash.OpenBinaryDatabase(path)
	if err != nil {
		return nil, err
	}
	res, err := lash.Mine(db, opt)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(out)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if err := writeNDJSON(bw, res.Patterns); err != nil {
		f.Close()
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return res, f.Close()
}

// readNDJSON reads back a pattern file written by mineFile.
func readNDJSON(path string) ([]lash.Pattern, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []lash.Pattern
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var l ndjsonLine
		if err := dec.Decode(&l); err != nil {
			return nil, err
		}
		out = append(out, lash.Pattern{Items: l.Items, Support: l.Support})
	}
	return out, nil
}

func (b *batchSpec) run(cfg runConfig) (*report, error) {
	rep := &report{}
	path := filepath.Join(cfg.dir, "corpus.ldb")
	out := filepath.Join(cfg.dir, "patterns.ndjson")

	var setup timing
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := b.gen(b.size, cfg.seed, path); err != nil {
			return nil, err
		}
		setup.add(time.Since(start).Seconds())
	}
	db, err := lash.OpenBinaryDatabase(path)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "# corpus sequences=%d items=%d depth=%d sigma=%d gamma=%d lambda=%d restriction=%v memory_budget=%d\n",
		db.NumSequences(), db.NumItems(), db.HierarchyDepth(), b.opt.MinSupport, b.opt.MaxGap, b.opt.MaxLength, b.opt.Restriction, b.opt.MemoryBudget)

	// Timed part: whole rounds until the run's time is up. A traced run
	// follows every untraced round with one traced pipeline round.
	var runS, runRel, allocs, shuffle timing
	var last *lash.Result
	var traced []*layerRun
	var tracedWall timing
	var ms runtime.MemStats
	start := time.Now()
	for rounds := 0; rounds == 0 || !deadline(start, cfg.seconds); rounds++ {
		ref := refTime()
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		t0 := time.Now()
		res, err := mineFile(path, out, b.opt)
		el := time.Since(t0)
		rep.attempted++
		if err != nil {
			return nil, fmt.Errorf("mining round %d: %w", rounds, err)
		}
		runtime.ReadMemStats(&ms)
		runS.add(el.Seconds())
		runRel.add(el.Seconds() / ref)
		allocs.add(float64(ms.TotalAlloc - alloc0))
		shuffle.add(float64(res.Stats.MapOutputBytes))
		last = res
		if cfg.trace {
			lr, err := runLayers(path, b.opt)
			rep.attempted++
			if err != nil {
				return nil, fmt.Errorf("traced round %d: %w", rounds, err)
			}
			traced = append(traced, lr)
			tracedWall.add(lr.wall.Seconds())
		}
	}
	rss := peakRSS()
	fmt.Fprintf(cfg.log, "# %s\n", runS.describe("run_s", "s"))
	fmt.Fprintf(cfg.log, "# %s\n", runRel.describe("run_rel", "ratio"))
	fmt.Fprintf(cfg.log, "# result patterns=%d frequent_items=%d partitions=%d shuffle_bytes=%d spill_runs=%d\n",
		len(last.Patterns), len(last.FrequentItems), last.NumPartitions, last.Stats.MapOutputBytes, last.Stats.SpillRuns)

	rep.e2e = []metric{
		{"setup_s", setup.median(), "s"},
		{"run_rel", runRel.median(), "ratio"},
		{"shuffle_bytes", shuffle.median(), "bytes"},
		{"alloc_bytes", allocs.median(), "bytes"},
		{"peak_rss_bytes", rss, "bytes"},
	}
	if cfg.trace {
		vals := layerMedians(traced)
		vals["run_s"] = runS.median()
		vals["trace.run_s"] = tracedWall.median()
		vals["trace.overhead_s"] = tracedWall.median() - runS.median()
		rep.layer = layerMetrics(vals)
		rep.addCheck("traced-pipeline", fmt.Sprintf("%d traced rounds", len(traced)),
			samePatterns(traced[len(traced)-1].patterns, last.Patterns))
	}

	// Output checks, after the timed part.
	written, err := readNDJSON(out)
	if err != nil {
		return nil, err
	}
	all := written
	if b.opt.Restriction != lash.RestrictNone {
		o := b.opt
		o.Restriction = lash.RestrictNone
		res, err := lash.Mine(db, o)
		if err != nil {
			return nil, err
		}
		all = res.Patterns
	}
	checkStart := time.Now()
	b.check(rep, newCorpusView(db), written, all, last.FrequentItems, cfg.seed)
	fmt.Fprintf(cfg.log, "# checks took %.1fs\n", time.Since(checkStart).Seconds())
	return rep, nil
}

// check runs every batch output check. written is the run's output as
// written to NDJSON, all the unrestricted output (written itself when the
// workload has no restriction).
func (b *batchSpec) check(rep *report, c *corpusView, written, all, items []lash.Pattern, seed int64) {
	d, err := checkSupports(c, written, b.opt.MaxGap, b.recount, seed+1)
	rep.addCheck("support-recount", d, err)
	d, err = checkFList(c, items, b.opt.MinSupport)
	rep.addCheck("flist", d, err)
	d, err = checkDownwardClosure(all, items)
	rep.addCheck("downward-closure", d, err)
	d, err = checkPairs(c, all, b.opt.MinSupport, b.opt.MaxGap, b.pairSeq, seed+2)
	rep.addCheck("pair-completeness", d, err)
	d, err = checkOracle(c, b.opt, b.oracle, seed+3, lash.Mine)
	rep.addCheck("oracle", d, err)
	if b.opt.Restriction == lash.RestrictClosed {
		d, err = checkClosed(c, written, all)
		rep.addCheck("closedness", d, err)
	}
}

// samePatterns requires two outputs to hold the same patterns in the same
// order.
func samePatterns(got, want []lash.Pattern) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d patterns, want %d", len(got), len(want))
	}
	for i := range got {
		if patternKey(got[i].Items) != patternKey(want[i].Items) || got[i].Support != want[i].Support {
			return fmt.Errorf("pattern %d: %v (%d), want %v (%d)", i, got[i].Items, got[i].Support, want[i].Items, want[i].Support)
		}
	}
	return nil
}
