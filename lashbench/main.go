// Command lashbench is the LASH benchmark: it builds one workload's inputs
// from a seed, runs the workload for a fixed time, checks the program's
// outputs against independent recomputations, and prints every metric by
// name with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1 the
// run also times every layer through its public functions and the metrics
// are the per-layer ones. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Pinned parallelism: every worker, task and client count the benchmark
// controls is fixed here, never derived from the host's core count.
const (
	workers     = 2 // lash.Options.Workers, server.Config.Workers, query clients
	mapTasks    = 4 * workers
	reduceTasks = 4 * workers
)

// metric is one measured value.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// report is what one workload run produced.
type report struct {
	attempted int
	failed    int
	e2e       []metric // end-to-end metrics (untraced measurements)
	layer     []metric // per-layer metrics (filled by traced runs only)
	checks    []check
}

// check is the outcome of one output check.
type check struct {
	name   string
	detail string
	err    error
}

func (r *report) addCheck(name, detail string, err error) {
	r.checks = append(r.checks, check{name: name, detail: detail, err: err})
}

func (r *report) correct() bool {
	if len(r.checks) == 0 {
		return false
	}
	for _, c := range r.checks {
		if c.err != nil {
			return false
		}
	}
	return true
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	dir     string // private working directory, removed when the run ends
	log     io.Writer
}

// workload runs one named workload.
type workload struct {
	name string
	run  func(cfg runConfig) (*report, error)
}

func workloads() []workload {
	return []workload{
		{"text-ngram", textNgram.run},
		{"market-deep", marketDeep.run},
		{"serve-live", serveLive.run},
	}
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout))
}

func mainErr(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("lashbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: text-ngram, market-deep or serve-live")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "how long the timed part of the run measures")
	trace := fs.Int("trace", 0, "1 = also time every layer and print the per-layer metrics")
	dir := fs.String("dir", ".bench_build", "directory for the run's corpora and spill files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for _, c := range workloads() {
		if c.name == *name {
			w = &c
			break
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "lashbench: need -workload (text-ngram, market-deep, serve-live), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "lashbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "lashbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	fmt.Fprintf(out, "# lashbench workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
	fmt.Fprintf(out, "# host go=%s GOMAXPROCS=%d NumCPU=%d cpu=%q\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
	fmt.Fprintf(out, "# pinned workers=%d map_tasks=%d reduce_tasks=%d server_workers=%d query_clients=%d\n",
		workers, mapTasks, reduceTasks, workers, workers)

	rep, err := w.run(runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: work, log: out})
	if err != nil {
		out.Flush()
		fmt.Fprintf(os.Stderr, "lashbench: %s: %v\n", w.name, err)
		return 1
	}
	writeReport(out, rep, *trace == 1)
	if !rep.correct() {
		return 1
	}
	return 0
}

// writeReport prints the human-readable lines and the closing JSON object.
func writeReport(out io.Writer, rep *report, traced bool) {
	for _, c := range rep.checks {
		status := "ok"
		if c.err != nil {
			status = "FAILED: " + c.err.Error()
		}
		fmt.Fprintf(out, "# check %-22s %s (%s)\n", c.name, status, c.detail)
	}
	for _, m := range rep.e2e {
		fmt.Fprintf(out, "# end-to-end %-24s %.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, m := range rep.layer {
		fmt.Fprintf(out, "# layer %-29s %.6g %s\n", m.Name, m.Value, m.Unit)
	}
	ms := rep.e2e
	if traced {
		ms = rep.layer
	}
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]jv, len(ms))
	for _, m := range ms {
		metrics[m.Name] = jv{m.Value, m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{rep.correct(), rep.attempted, rep.failed, metrics})
	fmt.Fprintf(out, "%s\n", line)
}

// cpuModel names the host CPU for the run header.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSS returns the process's peak resident set size in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// timing summarizes one timed quantity over a run's samples: the median,
// plus the highest of p90/p99/p99.9 that has at least ten samples beyond
// it (none below forty samples).
type timing struct {
	samples []float64
}

func (t *timing) add(v float64) { t.samples = append(t.samples, v) }

func (t *timing) median() float64 { return quantile(t.samples, 0.5) }

func (t *timing) describe(name, unit string) string {
	s := fmt.Sprintf("%s median=%.6g %s n=%d q1=%.6g q3=%.6g", name, t.median(), unit, len(t.samples),
		quantile(t.samples, 0.25), quantile(t.samples, 0.75))
	if p, ok := tailQuantile(len(t.samples)); ok {
		s += fmt.Sprintf(" p%g=%.6g", p*100, quantile(t.samples, p))
	}
	return s
}

// tailQuantile returns the highest of p90/p99/p99.9 with at least ten of n
// samples beyond it.
func tailQuantile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range []float64{0.9, 0.99, 0.999} {
		if float64(n)*(1-p) >= 10-1e-9 && n >= 40 {
			best, ok = p, true
		}
	}
	return best, ok
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// refTime runs a fixed reference computation on `workers` goroutines —
// hash-map inserts, a sort and small allocations, the kinds of work mining
// does — and returns its wall time in seconds. A shared host can change
// speed by a third within minutes (other tenants, clock changes); a round
// timed right after refTime, divided by it, keeps its value through such
// drift while a change to the program still moves it.
func refTime() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(x uint64) {
			defer wg.Done()
			next := func() uint64 {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				return x
			}
			m := make(map[uint64]uint64)
			for i := 0; i < 200_000; i++ {
				v := next()
				m[v&0xfffff] += v
			}
			s := make([]uint32, 1<<19)
			for i := range s {
				s[i] = uint32(next())
			}
			slices.Sort(s)
			var n int
			for i := 0; i < 20_000; i++ {
				n += len(make([]byte, 256+i%512))
			}
			refSink.Add(uint64(len(m)+n) + uint64(s[0]))
		}(uint64(w + 1))
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// refSink keeps refTime's results alive.
var refSink atomic.Uint64

// deadline reports whether a timed loop that began at start should start
// another round.
func deadline(start time.Time, seconds float64) bool {
	return time.Since(start).Seconds() >= seconds
}
