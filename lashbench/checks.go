package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"lash"
	"lash/internal/gsm"
	"lash/internal/hierarchy"
)

// The output checks recompute what the miner claims straight from the
// corpus, through none of the mining pipeline's layers (no f-list job, no
// rewrite, no partitioning, no local miner). They run after the timed part
// of a run and never compare against a stored copy of earlier output.

// corpusView is the benchmark's own copy of a corpus, taken through the
// public lash.Database accessors: item names, the hierarchy as parent
// links, and the sequences as item ids.
type corpusView struct {
	names  []string
	id     map[string]int32
	parent []int32 // -1 for roots
	seqs   [][]int32
	// begin/end number the forest in DFS order: a is w or an ancestor of w
	// iff begin[a] <= begin[w] < end[a].
	begin, end []int32
	anc        [][]int32 // item → itself and its ancestors, most specific first
}

func newCorpusView(db *lash.Database) *corpusView {
	c := &corpusView{id: make(map[string]int32)}
	c.seqs = make([][]int32, db.NumSequences())
	for i := range c.seqs {
		names := db.Sequence(i)
		t := make([]int32, len(names))
		for j, n := range names {
			t[j] = c.intern(db, n)
		}
		c.seqs[i] = t
	}
	c.index()
	return c
}

// intern adds name and its ancestors to the view.
func (c *corpusView) intern(db *lash.Database, name string) int32 {
	if id, ok := c.id[name]; ok {
		return id
	}
	id := int32(len(c.names))
	c.names = append(c.names, name)
	c.id[name] = id
	c.parent = append(c.parent, -1)
	if p, ok := db.ItemParent(name); ok {
		pid := c.intern(db, p)
		c.parent[id] = pid
	}
	return id
}

// index derives the DFS numbering and ancestor lists from the parent links.
func (c *corpusView) index() {
	n := len(c.names)
	children := make([][]int32, n)
	var roots []int32
	for w := int32(0); w < int32(n); w++ {
		if p := c.parent[w]; p >= 0 {
			children[p] = append(children[p], w)
		} else {
			roots = append(roots, w)
		}
	}
	c.begin, c.end = make([]int32, n), make([]int32, n)
	next := int32(0)
	var visit func(w int32)
	visit = func(w int32) {
		c.begin[w] = next
		next++
		for _, ch := range children[w] {
			visit(ch)
		}
		c.end[w] = next
	}
	for _, r := range roots {
		visit(r)
	}
	c.anc = make([][]int32, n)
	for w := int32(0); w < int32(n); w++ {
		for a := w; a >= 0; a = c.parent[a] {
			c.anc[w] = append(c.anc[w], a)
		}
	}
}

// generalizes reports whether a is w or one of w's ancestors.
func (c *corpusView) generalizes(w, a int32) bool {
	return c.begin[a] <= c.begin[w] && c.begin[w] < c.end[a]
}

// ids maps a pattern's item names to the view's ids.
func (c *corpusView) ids(items []string) ([]int32, error) {
	out := make([]int32, len(items))
	for i, n := range items {
		id, ok := c.id[n]
		if !ok {
			return nil, fmt.Errorf("item %q is not in the corpus", n)
		}
		out[i] = id
	}
	return out, nil
}

// occurs reports whether p occurs in t as a generalized subsequence with at
// most gamma items between consecutive pattern items: a dynamic program over
// the positions where each pattern prefix can end.
func (c *corpusView) occurs(p, t []int32, gamma int, cur, nxt []bool) bool {
	if len(p) == 0 || len(t) < len(p) {
		return len(p) == 0
	}
	cur, nxt = cur[:len(t)], nxt[:len(t)]
	for j, w := range t {
		cur[j] = c.generalizes(w, p[0])
	}
	for i := 1; i < len(p); i++ {
		last := -1 // latest k < j where p[:i] ends
		for j, w := range t {
			nxt[j] = last >= 0 && j-last-1 <= gamma && c.generalizes(w, p[i])
			if cur[j] {
				last = j
			}
		}
		cur, nxt = nxt, cur
	}
	for _, ok := range cur {
		if ok {
			return true
		}
	}
	return false
}

// support counts the sequences p occurs in.
func (c *corpusView) support(p []int32, gamma int) int64 {
	var n int64
	cur, nxt := make([]bool, 0, 128), make([]bool, 0, 128)
	for _, t := range c.seqs {
		if cap(cur) < len(t) {
			cur, nxt = make([]bool, len(t)), make([]bool, len(t))
		}
		if c.occurs(p, t, gamma, cur, nxt) {
			n++
		}
	}
	return n
}

// itemCounts counts, for every item, the sequences holding it or one of
// its descendants.
func (c *corpusView) itemCounts() []int64 {
	counts := make([]int64, len(c.names))
	seen := make([]int, len(c.names))
	for i := range seen {
		seen[i] = -1
	}
	for s, t := range c.seqs {
		for _, w := range t {
			for _, a := range c.anc[w] {
				if seen[a] != s {
					seen[a] = s
					counts[a]++
				}
			}
		}
	}
	return counts
}

func patternKey(items []string) string { return strings.Join(items, "\x00") }

// samplePatterns picks up to n patterns with a seeded generator.
func samplePatterns(pats []lash.Pattern, n int, seed int64) []lash.Pattern {
	if len(pats) <= n {
		return pats
	}
	r := rand.New(rand.NewSource(seed))
	idx := r.Perm(len(pats))[:n]
	sort.Ints(idx)
	out := make([]lash.Pattern, n)
	for i, j := range idx {
		out[i] = pats[j]
	}
	return out
}

// checkSupports recounts the support of a seeded sample of output patterns
// by scanning the corpus.
func checkSupports(c *corpusView, pats []lash.Pattern, gamma, sample int, seed int64) (string, error) {
	picked := samplePatterns(pats, sample, seed)
	for _, p := range picked {
		ids, err := c.ids(p.Items)
		if err != nil {
			return "", err
		}
		if got := c.support(ids, gamma); got != p.Support {
			return "", fmt.Errorf("pattern %q: reported support %d, corpus scan counts %d", strings.Join(p.Items, " "), p.Support, got)
		}
	}
	return fmt.Sprintf("%d of %d patterns recounted", len(picked), len(pats)), nil
}

// checkFList compares the reported frequent items with a direct count of
// each item's occurrences, ancestors included, per sequence.
func checkFList(c *corpusView, got []lash.Pattern, sigma int64) (string, error) {
	counts := c.itemCounts()
	want := make(map[string]int64)
	for w, n := range counts {
		if n >= sigma {
			want[c.names[w]] = n
		}
	}
	seen := make(map[string]bool, len(got))
	for _, p := range got {
		if len(p.Items) != 1 {
			return "", fmt.Errorf("frequent item entry %q has %d items", strings.Join(p.Items, " "), len(p.Items))
		}
		name := p.Items[0]
		if seen[name] {
			return "", fmt.Errorf("frequent item %q listed twice", name)
		}
		seen[name] = true
		n, ok := want[name]
		if !ok {
			return "", fmt.Errorf("item %q reported frequent (support %d) but counts %d < σ=%d", name, p.Support, counts[c.id[name]], sigma)
		}
		if n != p.Support {
			return "", fmt.Errorf("item %q: reported support %d, direct count %d", name, p.Support, n)
		}
	}
	if len(seen) != len(want) {
		for name, n := range want {
			if !seen[name] {
				return "", fmt.Errorf("frequent item %q (count %d) missing from the f-list", name, n)
			}
		}
	}
	return fmt.Sprintf("%d frequent items", len(want)), nil
}

// checkDownwardClosure requires the prefix and the suffix of every output
// pattern to be in the output (or, for single items, in the f-list) with
// at least the pattern's support. It takes the unrestricted output.
func checkDownwardClosure(pats, items []lash.Pattern) (string, error) {
	sup := make(map[string]int64, len(pats)+len(items))
	for _, p := range items {
		sup[patternKey(p.Items)] = p.Support
	}
	for _, p := range pats {
		k := patternKey(p.Items)
		if _, dup := sup[k]; dup {
			return "", fmt.Errorf("pattern %q listed twice", strings.Join(p.Items, " "))
		}
		sup[k] = p.Support
	}
	for _, p := range pats {
		n := len(p.Items)
		for _, sub := range [][]string{p.Items[:n-1], p.Items[1:]} {
			s, ok := sup[patternKey(sub)]
			if !ok || s < p.Support {
				return "", fmt.Errorf("pattern %q (support %d): sub-pattern %q missing or less frequent (support %d)",
					strings.Join(p.Items, " "), p.Support, strings.Join(sub, " "), s)
			}
		}
	}
	return fmt.Sprintf("%d patterns", len(pats)), nil
}

// checkPairs takes a seeded sample of sequences, lists every generalized
// item pair within gamma that they contain and the output lacks, recounts
// those pairs in one corpus scan, and requires each to stay below sigma.
func checkPairs(c *corpusView, pats []lash.Pattern, sigma int64, gamma, sample int, seed int64) (string, error) {
	counts := c.itemCounts()
	have := make(map[uint64]bool)
	for _, p := range pats {
		if len(p.Items) != 2 {
			continue
		}
		ids, err := c.ids(p.Items)
		if err != nil {
			return "", err
		}
		have[pairKey(ids[0], ids[1])] = true
	}
	type cand struct {
		n    int64
		last int
	}
	cands := make(map[uint64]*cand)
	r := rand.New(rand.NewSource(seed))
	picks := sample
	if picks > len(c.seqs) {
		picks = len(c.seqs)
	}
	for _, s := range r.Perm(len(c.seqs))[:picks] {
		c.eachPair(c.seqs[s], gamma, func(a, b int32) {
			k := pairKey(a, b)
			if counts[a] >= sigma && counts[b] >= sigma && !have[k] && cands[k] == nil {
				cands[k] = &cand{last: -1}
			}
		})
	}
	for s, t := range c.seqs {
		c.eachPair(t, gamma, func(a, b int32) {
			if cd := cands[pairKey(a, b)]; cd != nil && cd.last != s {
				cd.last = s
				cd.n++
			}
		})
	}
	for k, cd := range cands {
		if cd.n >= sigma {
			a, b := int32(k>>32), int32(uint32(k))
			return "", fmt.Errorf("pair %q occurs in %d sequences (σ=%d) but is missing from the output", c.names[a]+" "+c.names[b], cd.n, sigma)
		}
	}
	return fmt.Sprintf("%d sampled sequences, %d absent pairs recounted", picks, len(cands)), nil
}

func pairKey(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// eachPair calls fn for every generalized pair (a, b) of t within gamma.
func (c *corpusView) eachPair(t []int32, gamma int, fn func(a, b int32)) {
	for i, u := range t {
		for j := i + 1; j < len(t) && j-i-1 <= gamma; j++ {
			for _, a := range c.anc[u] {
				for _, b := range c.anc[t[j]] {
					fn(a, b)
				}
			}
		}
	}
}

// oracleSpec sizes the brute-force comparison: a seeded subsample of seqs
// sequences no longer than maxLen, mined at sigma with the workload's gap
// and length.
type oracleSpec struct {
	seqs   int
	maxLen int
	sigma  int64
}

// mineFunc mines a database; checkOracle takes it so tests can corrupt the
// result it checks.
type mineFunc func(*lash.Database, lash.Options) (*lash.Result, error)

// checkOracle mines a seeded subsample with mine (lash.Mine) and with the
// brute-force reference miner and requires equal outputs.
func checkOracle(c *corpusView, opt lash.Options, spec oracleSpec, seed int64, mine mineFunc) (string, error) {
	r := rand.New(rand.NewSource(seed))
	var pool []int
	for i, t := range c.seqs {
		if len(t) >= 2 && len(t) <= spec.maxLen {
			pool = append(pool, i)
		}
	}
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > spec.seqs {
		pool = pool[:spec.seqs]
	}
	sort.Ints(pool)

	lb := lash.NewDatabaseBuilder()
	hb := hierarchy.NewBuilder()
	added := make(map[int32]bool)
	var addItem func(w int32)
	addItem = func(w int32) {
		if added[w] {
			return
		}
		added[w] = true
		hb.Add(c.names[w])
		lb.AddItem(c.names[w])
		if p := c.parent[w]; p >= 0 {
			addItem(p)
			hb.AddEdge(c.names[w], c.names[p])
			lb.AddParent(c.names[w], c.names[p])
		}
	}
	for _, s := range pool {
		for _, w := range c.seqs[s] {
			addItem(w)
		}
	}
	forest, err := hb.Build()
	if err != nil {
		return "", err
	}
	gdb := &gsm.Database{Forest: forest}
	for _, s := range pool {
		names := make([]string, len(c.seqs[s]))
		seq := make(gsm.Sequence, len(c.seqs[s]))
		for j, w := range c.seqs[s] {
			names[j] = c.names[w]
			seq[j], _ = forest.Lookup(c.names[w])
		}
		lb.AddSequence(names...)
		gdb.Seqs = append(gdb.Seqs, seq)
	}
	ldb, err := lb.Build()
	if err != nil {
		return "", err
	}
	o := opt
	o.MinSupport = spec.sigma
	o.Restriction = lash.RestrictNone
	o.MemoryBudget = 0
	res, err := mine(ldb, o)
	if err != nil {
		return "", err
	}
	want := gsm.MineBruteForce(gdb, gsm.Params{Sigma: spec.sigma, Gamma: opt.MaxGap, Lambda: opt.MaxLength})
	wantSet := make(map[string]int64, len(want))
	for _, p := range want {
		wantSet[patternKey(namesOf(forest, p.Items))] = p.Support
	}
	if err := sameSet(res.Patterns, wantSet); err != nil {
		return "", fmt.Errorf("subsample of %d sequences: %w", len(pool), err)
	}
	return fmt.Sprintf("%d sequences at σ=%d, %d patterns", len(pool), spec.sigma, len(want)), nil
}

func namesOf(f *hierarchy.Forest, items gsm.Sequence) []string {
	out := make([]string, len(items))
	for i, w := range items {
		out[i] = f.Name(w)
	}
	return out
}

// sameSet compares a pattern list with a key → support map.
func sameSet(got []lash.Pattern, want map[string]int64) error {
	seen := make(map[string]bool, len(got))
	for _, p := range got {
		k := patternKey(p.Items)
		if seen[k] {
			return fmt.Errorf("pattern %q listed twice", strings.Join(p.Items, " "))
		}
		seen[k] = true
		s, ok := want[k]
		switch {
		case !ok:
			return fmt.Errorf("pattern %q (support %d) should not be in the output", strings.Join(p.Items, " "), p.Support)
		case s != p.Support:
			return fmt.Errorf("pattern %q: support %d, expected %d", strings.Join(p.Items, " "), p.Support, s)
		}
	}
	if len(seen) != len(want) {
		var missing []string
		for k := range want {
			if !seen[k] {
				missing = append(missing, strings.ReplaceAll(k, "\x00", " "))
			}
		}
		sort.Strings(missing)
		return fmt.Errorf("%d expected patterns missing, first %q", len(missing), missing[0])
	}
	return nil
}

// patternSet turns a pattern list into a key → support map.
func patternSet(pats []lash.Pattern) map[string]int64 {
	m := make(map[string]int64, len(pats))
	for _, p := range pats {
		m[patternKey(p.Items)] = p.Support
	}
	return m
}

// checkClosed requires every kept pattern to have no super-pattern of equal
// support in the unrestricted output, and every dropped pattern to have
// one. Q is a super-pattern of P when some window of |P| consecutive items
// of Q specializes P item by item (extension and specialization steps of
// the paper's closedness).
func checkClosed(c *corpusView, kept, all []lash.Pattern) (string, error) {
	type ip struct {
		ids []int32
		sup int64
	}
	root := func(w int32) int32 { return c.anc[w][len(c.anc[w])-1] }
	// Candidates share support and contain P's first item's root.
	groups := make(map[[2]int64][]ip)
	conv := make([]ip, len(all))
	for i, p := range all {
		ids, err := c.ids(p.Items)
		if err != nil {
			return "", err
		}
		conv[i] = ip{ids, p.Support}
		seenRoot := make(map[int32]bool, len(ids))
		for _, w := range ids {
			if r := root(w); !seenRoot[r] {
				seenRoot[r] = true
				k := [2]int64{p.Support, int64(r)}
				groups[k] = append(groups[k], conv[i])
			}
		}
	}
	hasEqualSuper := func(p ip) bool {
		for _, q := range groups[[2]int64{p.sup, int64(root(p.ids[0]))}] {
			if len(q.ids) < len(p.ids) || slices.Equal(q.ids, p.ids) {
				continue
			}
			for k := 0; k+len(p.ids) <= len(q.ids); k++ {
				ok := true
				for i, a := range p.ids {
					if !c.generalizes(q.ids[k+i], a) {
						ok = false
						break
					}
				}
				if ok {
					return true
				}
			}
		}
		return false
	}
	keptSet := patternSet(kept)
	if len(keptSet) != len(kept) {
		return "", fmt.Errorf("closed output lists a pattern twice")
	}
	allSet := patternSet(all)
	for _, p := range kept {
		s, ok := allSet[patternKey(p.Items)]
		if !ok || s != p.Support {
			return "", fmt.Errorf("closed pattern %q (support %d) is not in the unrestricted output with that support", strings.Join(p.Items, " "), p.Support)
		}
	}
	for i, p := range all {
		_, isKept := keptSet[patternKey(p.Items)]
		if super := hasEqualSuper(conv[i]); super == isKept {
			if isKept {
				return "", fmt.Errorf("kept pattern %q has a super-pattern of equal support %d", strings.Join(p.Items, " "), p.Support)
			}
			return "", fmt.Errorf("dropped pattern %q (support %d) has no super-pattern of equal support", strings.Join(p.Items, " "), p.Support)
		}
	}
	return fmt.Sprintf("%d of %d patterns closed", len(kept), len(all)), nil
}
