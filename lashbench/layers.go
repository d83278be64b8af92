package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"lash"
	"lash/internal/core"
	"lash/internal/flist"
	"lash/internal/gsm"
	"lash/internal/hierarchy"
	"lash/internal/mapreduce"
	"lash/internal/miner"
	"lash/internal/obs"
	"lash/internal/pindex"
	"lash/internal/rewrite"
	"lash/internal/seqdb"
	"lash/internal/seqenc"
	"lash/internal/stats"
)

// The traced run calls LASH's layers one after another through their public
// functions, with the benchmark's own span around each call, and records
// the counts each layer exposes. It reproduces lash.Mine's patterns (the
// benchmark's tests check that), so the per-layer times measure the same
// work as the untraced run. No span is added inside the program.

// layerRun is the outcome of one traced pipeline run: vals holds every
// layer's span time (seconds) and counts.
type layerRun struct {
	vals     map[string]float64
	patterns []lash.Pattern
	wall     time.Duration
}

// time runs one layer call inside a span and adds its duration to vals.
func (l *layerRun) time(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	l.vals[name] += time.Since(start).Seconds()
	return err
}

// pinnedMR is the MapReduce configuration lash.Mine derives from
// Options.Workers = workers, spelled out.
func pinnedMR(budget int64) mapreduce.Config {
	return mapreduce.Config{Workers: workers, MapTasks: mapTasks, ReduceTasks: reduceTasks, MemoryBudget: budget}
}

// rewritten is the map side's output: every non-empty rewrite of every
// (sequence, pivot) pair, encoded as the shuffle key, in sequence order.
type rewritten struct {
	first []int32 // sequence i's records are recs[first[i]:first[i+1]]
	recs  []rewriteRec
	arena []byte
}

type rewriteRec struct {
	pivot uint32
	off   uint32
	n     uint32
}

// partitionData is one reduce group kept by the traced shuffle.
type partitionData struct {
	pivot   uint32
	keys    [][]byte
	weights []int64
}

type rankPattern struct {
	ranks   []flist.Rank
	support int64
}

// runLayers runs the pipeline over the .ldb at path under opt.
func runLayers(path string, opt lash.Options) (*layerRun, error) {
	ctx := context.Background()
	l := &layerRun{vals: make(map[string]float64)}
	begin := time.Now()

	// 1. seqdb: decode the corpus.
	var db *gsm.Database
	if err := l.time("seqdb.decode_s", func() (err error) {
		db, err = seqdb.ReadFile(path)
		return err
	}); err != nil {
		return nil, err
	}
	items := 0
	for _, t := range db.Seqs {
		items += len(t)
	}
	l.vals["seqdb.items_per_s"] = float64(items) / l.vals["seqdb.decode_s"]

	// 2. f-list job, and the rank-space build on its own.
	var fl *flist.FList
	var flStats *mapreduce.Stats
	if err := l.time("flist.job_s", func() (err error) {
		fl, flStats, err = core.FListJob(ctx, db, opt.MinSupport, pinnedMR(0))
		return err
	}); err != nil {
		return nil, err
	}
	freq := make([]int64, db.Forest.Size())
	for w := range freq {
		freq[w] = fl.Freq(hierarchy.Item(w))
	}
	if err := l.time("flist.build_s", func() error {
		_, err := flist.Build(db.Forest, freq, opt.MinSupport)
		return err
	}); err != nil {
		return nil, err
	}
	l.vals["flist.frequent_items"] = float64(fl.NumFrequent())

	// 3. rewrite: every (sequence, pivot) pair, split over the workers.
	var rw *rewritten
	var calls, itemsOut, nonEmpty int64
	_ = l.time("rewrite.s", func() error {
		rw, calls, itemsOut, nonEmpty = rewriteAll(db, fl, opt)
		return nil
	})
	l.vals["rewrite.calls"] = float64(calls)
	l.vals["rewrite.items_out"] = float64(itemsOut)
	l.vals["rewrite.nonempty_ratio"] = ratio(nonEmpty, calls)

	// 4. mapreduce: the aggregated shuffle with the same map, and a reduce
	// that keeps each partition.
	seqIDs := make([]int32, len(db.Seqs))
	for i := range seqIDs {
		seqIDs[i] = int32(i)
	}
	reg := obs.NewRegistry()
	pm := obs.NewPipelineMetrics(reg)
	cfg := pinnedMR(opt.MemoryBudget)
	cfg.Obs = &obs.Run{Metrics: pm}
	var parts []partitionData
	var mrStats *mapreduce.Stats
	if err := l.time("shuffle.s", func() (err error) {
		parts, mrStats, err = mapreduce.RunAgg(ctx, cfg, seqIDs, mapreduce.AggJob[int32, partitionData]{
			Name: "partition+mine",
			Map: func(i int32, emit func(uint32, []byte, int64)) {
				for _, r := range rw.recs[rw.first[i]:rw.first[i+1]] {
					emit(r.pivot, rw.arena[r.off:r.off+r.n], 1)
				}
			},
			Hash: func(pivot uint32, _ []byte) uint32 { return mapreduce.HashUint32(pivot) },
			Size: func(pivot uint32, keyLen int, weight int64) int {
				return seqenc.UvarintLen(uint64(pivot)) + keyLen + seqenc.UvarintLen(uint64(weight))
			},
			Reduce: func(pivot uint32, entries []mapreduce.Entry, emit func(partitionData)) error {
				p := partitionData{pivot: pivot, keys: make([][]byte, len(entries)), weights: make([]int64, len(entries))}
				for i, e := range entries {
					p.keys[i] = append([]byte(nil), e.Key...)
					p.weights[i] = e.Weight
				}
				emit(p)
				return nil
			},
		})
		return err
	}); err != nil {
		return nil, err
	}
	l.vals["shuffle.map_s"] = mrStats.Wall.Map.Seconds()
	l.vals["shuffle.merge_s"] = (mrStats.Wall.Shuffle + mrStats.Wall.Reduce).Seconds()
	l.vals["shuffle.records"] = float64(mrStats.MapOutputRecords)
	l.vals["shuffle.bytes"] = float64(mrStats.MapOutputBytes)
	l.vals["shuffle.agg_ratio"] = ratio(mrStats.MapOutputRecords, nonEmpty)
	l.vals["spill.runs"] = float64(mrStats.SpillRuns)
	l.vals["spill.bytes"] = float64(mrStats.SpillBytes)
	l.vals["spill.s"] = pm.MergeSeconds.Sum()
	l.vals["mapreduce.sim_s"] = (flStats.Sim.Total() + mrStats.Sim.Total()).Seconds()

	sizes := make([]float64, len(parts))
	maxSeqs := 0
	for i, p := range parts {
		sizes[i] = float64(len(p.keys))
		maxSeqs = max(maxSeqs, len(p.keys))
	}
	l.vals["partition.count"] = float64(len(parts))
	l.vals["partition.max_seqs"] = float64(maxSeqs)
	if med := quantile(sizes, 0.5); med > 0 {
		l.vals["partition.skew"] = float64(maxSeqs) / med
	}

	// 5. miner: every partition, split over the workers.
	var mined [][]rankPattern
	var mst miner.Stats
	if err := l.time("miner.s", func() (err error) {
		mined, mst, err = mineAll(parts, fl, opt)
		return err
	}); err != nil {
		return nil, err
	}
	l.vals["miner.explored"] = float64(mst.Explored)
	l.vals["miner.output"] = float64(mst.Output)
	l.vals["miner.output_ratio"] = ratio(mst.Output, mst.Explored)

	// Rank space → vocabulary items, in canonical order (first half of the
	// name translation; the second half follows the restriction).
	var pats []gsm.Pattern
	if err := l.time("translate.s", func() error {
		for _, part := range mined {
			for _, rp := range part {
				items, err := fl.TranslateFromRanks(nil, rp.ranks)
				if err != nil {
					return err
				}
				pats = append(pats, gsm.Pattern{Items: items, Support: rp.support})
			}
		}
		gsm.SortPatterns(pats)
		return nil
	}); err != nil {
		return nil, err
	}

	// 6. stats: the closed filter, when the workload asks for it.
	switch opt.Restriction {
	case lash.RestrictNone:
		l.vals["restrict.s"] = 0
	case lash.RestrictClosed:
		before := len(pats)
		_ = l.time("restrict.s", func() error {
			pats = stats.FilterClosed(fl.Forest(), pats)
			return nil
		})
		l.vals["restrict.kept_ratio"] = ratio(int64(len(pats)), int64(before))
	default:
		return nil, fmt.Errorf("traced run: restriction %v not supported", opt.Restriction)
	}

	// 7. name translation.
	_ = l.time("translate.s", func() error {
		l.patterns = make([]lash.Pattern, len(pats))
		for i, p := range pats {
			names := make([]string, len(p.Items))
			for j, w := range p.Items {
				names[j] = db.Forest.Name(w)
			}
			l.patterns[i] = lash.Pattern{Items: names, Support: p.Support}
		}
		return nil
	})

	// 8. pindex: build the serving index and time a query mix on it.
	var ix *pindex.Index
	_ = l.time("pindex.build_s", func() error {
		ix = pindex.Build(toIndexPatterns(l.patterns), db.Forest)
		return nil
	})
	l.vals["pindex.bytes"] = float64(ix.SizeBytes())
	l.vals["pindex.search_us"] = searchMix(ix, l.patterns)

	// 9. JSON encoding of the NDJSON output.
	var buf bytes.Buffer
	if err := l.time("encode.s", func() error { return writeNDJSON(&buf, l.patterns) }); err != nil {
		return nil, err
	}
	l.vals["encode.bytes"] = float64(buf.Len())

	l.wall = time.Since(begin)
	return l, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// rewriteAll rewrites every (sequence, pivot) pair: each worker takes a
// contiguous range of sequences with its own Rewriter, and the ranges are
// joined in sequence order.
func rewriteAll(db *gsm.Database, fl *flist.FList, opt lash.Options) (*rewritten, int64, int64, int64) {
	type chunk struct {
		first                     []int32
		recs                      []rewriteRec
		arena                     []byte
		calls, itemsOut, nonEmpty int64
	}
	chunks := make([]chunk, workers)
	n := len(db.Seqs)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		wg.Add(1)
		go func(c *chunk) {
			defer wg.Done()
			rw := rewrite.NewRewriter(fl, opt.MaxGap, opt.MaxLength)
			var pivots, buf []flist.Rank
			for _, t := range db.Seqs[lo:hi] {
				c.first = append(c.first, int32(len(c.recs)))
				pivots = fl.PivotRanks(pivots[:0], t)
				for _, pivot := range pivots {
					buf = rw.Rewrite(buf[:0], t, pivot)
					c.calls++
					c.itemsOut += int64(len(buf))
					if len(buf) == 0 {
						continue
					}
					c.nonEmpty++
					off := len(c.arena)
					c.arena = seqenc.AppendSeq(c.arena, buf)
					c.recs = append(c.recs, rewriteRec{pivot: uint32(pivot), off: uint32(off), n: uint32(len(c.arena) - off)})
				}
			}
		}(&chunks[w])
	}
	wg.Wait()
	out := &rewritten{first: make([]int32, 0, n+1)}
	var calls, itemsOut, nonEmpty int64
	for _, c := range chunks {
		base, arenaBase := int32(len(out.recs)), uint32(len(out.arena))
		for _, f := range c.first {
			out.first = append(out.first, base+f)
		}
		for _, r := range c.recs {
			r.off += arenaBase
			out.recs = append(out.recs, r)
		}
		out.arena = append(out.arena, c.arena...)
		calls += c.calls
		itemsOut += c.itemsOut
		nonEmpty += c.nonEmpty
	}
	out.first = append(out.first, int32(len(out.recs)))
	return out, calls, itemsOut, nonEmpty
}

// mineAll mines every partition with PSM, lash.Mine's default local
// miner, workers partitions at a time, and returns each partition's
// patterns in rank space.
func mineAll(parts []partitionData, fl *flist.FList, opt lash.Options) ([][]rankPattern, miner.Stats, error) {
	out := make([][]rankPattern, len(parts))
	pstats := make([]miner.Stats, len(parts))
	errs := make([]error, len(parts))
	cfg := miner.Config{Sigma: opt.MinSupport, Gamma: opt.MaxGap, Lambda: opt.MaxLength, PivotOnly: true}
	parent := fl.ParentTable()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := miner.New(miner.KindPSM)
			sc := miner.NewScratch()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(parts) {
					return
				}
				p := &parts[i]
				var arena []flist.Rank
				seqs := make([]miner.WSeq, len(p.keys))
				for j, k := range p.keys {
					start := len(arena)
					var err error
					if arena, err = seqenc.DecodeSeq(arena, k); err != nil {
						errs[i] = fmt.Errorf("partition %d: %w", p.pivot, err)
						break
					}
					seqs[j] = miner.WSeq{Items: arena[start:len(arena):len(arena)], Weight: p.weights[j]}
				}
				if errs[i] != nil {
					continue
				}
				part := miner.Partition{Pivot: flist.Rank(p.pivot), Parent: parent, Seqs: seqs}
				pstats[i] = m.Mine(&part, cfg, sc, func(pat []flist.Rank, sup int64) {
					out[i] = append(out[i], rankPattern{ranks: append([]flist.Rank(nil), pat...), support: sup})
				})
			}
		}()
	}
	wg.Wait()
	var st miner.Stats
	for i := range parts {
		if errs[i] != nil {
			return nil, st, errs[i]
		}
		st.Add(pstats[i])
	}
	return out, st, nil
}

func toIndexPatterns(pats []lash.Pattern) []pindex.Pattern {
	out := make([]pindex.Pattern, len(pats))
	for i, p := range pats {
		out[i] = pindex.Pattern{Items: p.Items, Support: p.Support}
	}
	return out
}

// searchMix times a fixed mix of index queries (top-k, min-support,
// contains, prefix, level) drawn from the patterns, and returns the mean
// microseconds per search.
func searchMix(ix *pindex.Index, pats []lash.Pattern) float64 {
	if len(pats) == 0 {
		return 0
	}
	r := rand.New(rand.NewSource(int64(len(pats))))
	const n = 2000
	qs := make([]pindex.Query, n)
	for i := range qs {
		p := pats[r.Intn(len(pats))]
		q := pindex.Query{Level: pindex.NoLevel}
		switch i % 5 {
		case 1:
			q.MinSupport = p.Support
		case 2:
			q.Contains = p.Items[:1]
		case 3:
			q.Prefix = p.Items[:1]
		case 4:
			q.Level = i % (ix.MaxLevel() + 1)
		}
		qs[i] = q
	}
	var dst []uint32
	start := time.Now()
	for _, q := range qs {
		dst, _ = ix.Search(dst[:0], q, 0, 20)
	}
	return time.Since(start).Seconds() * 1e6 / n
}

// ndjsonLine is one line of the NDJSON pattern output.
type ndjsonLine struct {
	Items   []string `json:"items"`
	Support int64    `json:"support"`
}

// writeNDJSON writes one JSON object per pattern.
func writeNDJSON(w io.Writer, pats []lash.Pattern) error {
	enc := json.NewEncoder(w)
	for _, p := range pats {
		if err := enc.Encode(ndjsonLine{p.Items, p.Support}); err != nil {
			return err
		}
	}
	return nil
}

// layerMedians folds the traced runs into one value per per-layer metric:
// the median over runs.
func layerMedians(runs []*layerRun) map[string]float64 {
	out := make(map[string]float64)
	keys := make(map[string]bool)
	for _, r := range runs {
		for k := range r.vals {
			keys[k] = true
		}
	}
	for k := range keys {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, r.vals[k])
		}
		out[k] = quantile(xs, 0.5)
	}
	return out
}
