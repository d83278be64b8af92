package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"

	"lash"
	"lash/internal/hierarchy"
	"lash/server"
)

// The serve-live output checks: job listings against cold in-process
// mines, query answers against naive filters, subscriptions against the
// versions they cover.

// listing fetches a job's whole pattern listing page by page.
func (r *serveRun) listing(jobID string) ([]lash.Pattern, error) {
	var out []lash.Pattern
	cursor := ""
	for {
		v := url.Values{"job": {jobID}, "limit": {"1000"}}
		if cursor != "" {
			v.Set("cursor", cursor)
		}
		var page struct {
			Patterns   []server.PatternView `json:"patterns"`
			NextCursor string               `json:"next_cursor"`
		}
		if err := r.jsonCall("http.listing", "GET", "/v1/patterns?"+v.Encode(), nil, &page); err != nil {
			return nil, err
		}
		for _, p := range page.Patterns {
			out = append(out, lash.Pattern{Items: p.Items, Support: p.Support})
		}
		if page.NextCursor == "" {
			return out, nil
		}
		cursor = page.NextCursor
	}
}

// check runs the serve-live output checks after the timed part.
func (r *serveRun) check(rep *report, cycles []*cycleResult, queries []querySample) error {
	// Every job's listing against a cold in-process mine of its version.
	cold := make(map[int]map[string]int64)
	coldOf := func(v int) (map[string]int64, error) {
		if m, ok := cold[v]; ok {
			return m, nil
		}
		db, err := r.spec.version(r.in, v)
		if err != nil {
			return nil, err
		}
		res, err := lash.Mine(db, lash.Options{MinSupport: r.spec.opt.MinSupport, MaxGap: r.spec.opt.MaxGap,
			MaxLength: r.spec.opt.MaxLength, Workers: workers})
		if err != nil {
			return nil, err
		}
		cold[v] = patternSet(res.Patterns)
		return cold[v], nil
	}
	// Jobs that answered queries may be cached copies of a mined job; they
	// are checked like the rest.
	for _, q := range queries {
		var resp struct {
			JobID   string `json:"job_id"`
			Version int    `json:"corpus_version"`
		}
		if q.status == http.StatusOK && json.Unmarshal(q.body, &resp) == nil && resp.JobID != "" {
			r.jobVer[resp.JobID] = resp.Version
		}
	}
	listings := make(map[string][]lash.Pattern)
	jobIDs := make([]string, 0, len(r.jobVer))
	for id := range r.jobVer {
		jobIDs = append(jobIDs, id)
	}
	sort.Strings(jobIDs)
	var listErr error
	for _, id := range jobIDs {
		pats, err := r.listing(id)
		if err != nil {
			return err
		}
		listings[id] = pats
		v := r.jobVer[id]
		want, err := coldOf(v)
		if err != nil {
			return err
		}
		if err := checkListing(pats, want); err != nil && listErr == nil {
			listErr = fmt.Errorf("job %s (version %d): %w", id, v, err)
		}
	}
	rep.addCheck("job-listings", fmt.Sprintf("%d jobs over %d versions", len(jobIDs), len(cold)), listErr)

	d, err := checkQueries(queries, listings, r.in.full.Forest)
	rep.addCheck("query-answers", d, err)

	var subErr error
	for _, c := range cycles {
		prev, err := coldOf(c.version - 1)
		if err != nil {
			return err
		}
		cur, err := coldOf(c.version)
		if err != nil {
			return err
		}
		if err := checkSubscription(c.subscription, c.version, prev, cur); err != nil && subErr == nil {
			subErr = fmt.Errorf("cycle to version %d: %w", c.version, err)
		}
	}
	rep.addCheck("subscriptions", fmt.Sprintf("%d subscriptions", len(cycles)), subErr)
	return nil
}

// checkListing requires a listing to hold exactly the expected patterns,
// in serving order (support descending).
func checkListing(pats []lash.Pattern, want map[string]int64) error {
	for i := 1; i < len(pats); i++ {
		if pats[i].Support > pats[i-1].Support {
			return fmt.Errorf("listing not in serving order at position %d", i)
		}
	}
	return sameSet(pats, want)
}

// checkSubscription requires the subscriber to see the previous version's
// marker and exactly its patterns (the replay), then the new version's
// marker and exactly the new version's patterns (the live tail), then the
// trailer.
func checkSubscription(lines [][]byte, version int, prev, cur map[string]int64) error {
	type line struct {
		Version *int     `json:"version"`
		Items   []string `json:"items"`
		Support int64    `json:"support"`
		Replay  bool     `json:"replay"`
		Done    bool     `json:"done"`
		Error   string   `json:"error"`
	}
	var blocks []int
	recs := make(map[int][]lash.Pattern)
	ver := -1
	done := false
	for i, raw := range lines {
		var l line
		if err := json.Unmarshal(raw, &l); err != nil {
			return fmt.Errorf("line %d: %w", i, err)
		}
		switch {
		case done:
			return fmt.Errorf("line %d follows the trailer", i)
		case l.Done:
			if l.Error != "" {
				return fmt.Errorf("trailer reports %q", l.Error)
			}
			done = true
		case l.Version != nil:
			ver = *l.Version
			blocks = append(blocks, ver)
		case ver < 0:
			return fmt.Errorf("record %q before any version marker", strings.Join(l.Items, " "))
		default:
			recs[ver] = append(recs[ver], lash.Pattern{Items: l.Items, Support: l.Support})
		}
	}
	if !done {
		return errors.New("no trailer")
	}
	if len(blocks) != 2 || blocks[0] != version-1 || blocks[1] != version {
		return fmt.Errorf("version markers %v, want [%d %d]", blocks, version-1, version)
	}
	if err := sameSet(recs[version-1], prev); err != nil {
		return fmt.Errorf("replay of version %d: %w", version-1, err)
	}
	if err := sameSet(recs[version], cur); err != nil {
		return fmt.Errorf("live tail of version %d: %w", version, err)
	}
	return nil
}

// patternsResponse is the body of GET /v1/patterns.
type patternsResponse struct {
	JobID      string               `json:"job_id"`
	Total      int                  `json:"total"`
	Returned   int                  `json:"returned"`
	Patterns   []server.PatternView `json:"patterns"`
	NextCursor string               `json:"next_cursor"`
}

// listing is one job's pattern listing with what the naive filters need.
type listing struct {
	pats  []lash.Pattern
	level []int            // pattern → max hierarchy level of its items
	sup   map[string]int64 // pattern key → support
	vocab map[string]bool  // items occurring in the listing
}

func newListing(pats []lash.Pattern, f *hierarchy.Forest) *listing {
	l := &listing{pats: pats, level: make([]int, len(pats)), sup: patternSet(pats), vocab: make(map[string]bool)}
	for i, p := range pats {
		for _, it := range p.Items {
			l.vocab[it] = true
			if w, ok := f.Lookup(it); ok {
				l.level[i] = max(l.level[i], f.Level(w))
			}
		}
	}
	return l
}

// checkQueries requires every query answer to equal the query's filter
// applied naively to the listing of the job that answered it.
func checkQueries(samples []querySample, listings map[string][]lash.Pattern, f *hierarchy.Forest) (string, error) {
	prepared := make(map[string]*listing)
	for i, s := range samples {
		if s.status != http.StatusOK {
			continue // counted as failed
		}
		var resp patternsResponse
		if err := json.Unmarshal(s.body, &resp); err != nil {
			return "", fmt.Errorf("query %d (%s): %w", i, s.q.kind, err)
		}
		l := prepared[resp.JobID]
		if l == nil {
			pats, ok := listings[resp.JobID]
			if !ok {
				return "", fmt.Errorf("query %d (%s): answered by unknown job %q", i, s.q.kind, resp.JobID)
			}
			l = newListing(pats, f)
			prepared[resp.JobID] = l
		}
		var want []lash.Pattern
		total := 0
		if s.q.kind == "rollup" {
			want = naiveRollup(l, strings.Split(s.q.params.Get("rollup"), ","), f)
			total = len(want)
		} else {
			matched := naiveFilter(l, s.q.params)
			total = len(matched)
			limit, _ := strconv.Atoi(s.q.params.Get("limit"))
			lo := min(s.offset, len(matched))
			hi := len(matched)
			if limit > 0 {
				hi = min(lo+limit, hi)
			}
			want = matched[lo:hi]
		}
		got := make([]lash.Pattern, len(resp.Patterns))
		for j, p := range resp.Patterns {
			got[j] = lash.Pattern{Items: p.Items, Support: p.Support}
		}
		if resp.Total != total || resp.Returned != len(got) {
			return "", fmt.Errorf("query %d (%s %s, page %d): total %d returned %d, naive total %d",
				i, s.q.kind, s.q.params.Encode(), s.page, resp.Total, resp.Returned, total)
		}
		if err := samePatterns(got, want); err != nil {
			return "", fmt.Errorf("query %d (%s %s, page %d): %w", i, s.q.kind, s.q.params.Encode(), s.page, err)
		}
	}
	return fmt.Sprintf("%d answers", len(samples)), nil
}

// naiveFilter applies a query's filters to a listing by a scan.
func naiveFilter(l *listing, q url.Values) []lash.Pattern {
	var minSup int64
	if v := q.Get("min_support"); v != "" {
		minSup, _ = strconv.ParseInt(v, 10, 64)
	}
	level := -1
	if v := q.Get("level"); v != "" {
		level, _ = strconv.Atoi(v)
	}
	var contains, prefix []string
	if v := q.Get("contains"); v != "" {
		contains = strings.Split(v, ",")
	}
	if v := q.Get("prefix"); v != "" {
		prefix = strings.Split(v, ",")
	}
	var out []lash.Pattern
	for i, p := range l.pats {
		if p.Support < minSup || (level >= 0 && l.level[i] != level) {
			continue
		}
		if len(prefix) > len(p.Items) || !slices.Equal(p.Items[:len(prefix)], prefix) {
			continue
		}
		ok := true
		for _, c := range contains {
			found := false
			for _, it := range p.Items {
				found = found || it == c
			}
			ok = ok && found
		}
		if ok {
			out = append(out, p)
		}
	}
	return out
}

// naiveRollup walks a pattern's roll-up chain: repeatedly generalize the
// rightmost item whose hierarchy parent occurs in the listing, while the
// generalized pattern is itself listed.
func naiveRollup(l *listing, items []string, f *hierarchy.Forest) []lash.Pattern {
	s, ok := l.sup[patternKey(items)]
	if !ok {
		return nil
	}
	cur := append([]string(nil), items...)
	chain := []lash.Pattern{{Items: cur, Support: s}}
	for {
		j := len(cur) - 1
		var parent string
		for ; j >= 0; j-- {
			if w, ok := f.Lookup(cur[j]); ok && !f.IsRoot(w) && l.vocab[f.Name(f.Parent(w))] {
				parent = f.Name(f.Parent(w))
				break
			}
		}
		if j < 0 {
			return chain
		}
		next := append([]string(nil), cur...)
		next[j] = parent
		s, ok := l.sup[patternKey(next)]
		if !ok {
			return chain
		}
		chain = append(chain, lash.Pattern{Items: next, Support: s})
		cur = next
	}
}
