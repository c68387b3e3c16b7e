// Command perfbench is the repository's session benchmark. It drives
// whole İnan et al. sessions through the public entry points of
// internal/party and internal/server over modelled WAN links and prints
// end-to-end metrics (trace 0) or per-layer metrics from a traced run
// (trace 1) for one workload. Every session's published results are
// checked against a digest pinned at set-up, after the set-up session's
// matrices were checked against the centralized plaintext baseline.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload bulk-wan --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The command exits 1 when any
// session fails or publishes a wrong result.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"ppclust/internal/party"
)

// setupRuns is how many times set-up is repeated; setup_s is their median.
const setupRuns = 5

// spanDir is where a traced run writes its spans, relative to the
// working directory.
const spanDir = ".bench_build/spans"

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	n     int    // samples behind the value
	note  string // printed next to the value
	na    bool   // the workload does not use this layer
	// textOnly keeps a metric out of the JSON result: it is printed, but
	// BENCHMARK.json does not bound it.
	textOnly bool
}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func run(w *workload, seed uint64, d time.Duration, traced bool) error {
	header(w, seed)
	rec := newRecorder()
	r, pin, rep, setupS, err := setupMedian(w, seed, rec)
	if err != nil {
		return err
	}
	defer r.close()

	var metrics []metric
	var tallies []*tally
	if !traced {
		win := measure(r, pin, d)
		tallies = append(tallies, win.t)
		metrics = endToEnd(r, win, setupS)
	} else {
		plain := measure(r, pin, d/2)
		rec.on.Store(true)
		tr := measure(r, pin, d/2)
		tallies = append(tallies, plain.t, tr.t)
		metrics, err = perLayer(r, rep, rec, plain, tr)
		rec.on.Store(false)
		if err != nil {
			return err
		}
		path := fmt.Sprintf("%s/%s-seed%d.jsonl", spanDir, w.name, seed)
		if err := rec.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(rec.snapshot()), path)
	}

	res := result{Metrics: map[string]map[string]any{}}
	for _, t := range tallies {
		res.Attempted += t.attempted
		res.Failed += t.failed
		if t.firstErr != nil {
			fmt.Printf("first failure: %v\n", t.firstErr)
		}
		if t.wrong > 0 {
			fmt.Printf("%d sessions published results that differ from the pinned digest\n", t.wrong)
		}
	}
	res.Correct = res.Failed == 0
	fmt.Printf("%-24s %14.4f %-6s n=%-5d %d failed\n", "error_rate",
		errorRate(res.Failed, res.Attempted), "ratio", res.Attempted, res.Failed)
	for _, m := range metrics {
		val := fmt.Sprintf("%.4f", m.value)
		if m.na {
			// JSON carries 0 for a layer the workload does not use.
			val, m.value = "n/a", 0
		}
		line := fmt.Sprintf("%-24s %14s %-6s n=%-5d %s", m.name, val, m.unit, m.n, m.note)
		if mv := moves[m.name]; mv != "" {
			line += " [should move: " + mv + "]"
		}
		fmt.Println(line)
		if !m.textOnly {
			res.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d sessions failed or published a wrong result", res.Failed, res.Attempted)
	}
	return nil
}

// header prints the run's provenance.
func header(w *workload, seed uint64) {
	fmt.Printf("perfbench workload=%s seed=%d gomaxprocs=%d nproc=%d go=%s cpu=%q clients=%d\n",
		w.name, seed, gomaxprocs(), runtime.NumCPU(), runtime.Version(), cpuModel(), clientsFor(w))
	fmt.Printf("why: %s\n", w.why)
	fmt.Printf("shape: %d holders x %d objects, %d attributes, TP shards %d, link %v / %d MB/s on every TP lane\n",
		len(w.holders), w.rows, len(w.schema.Attrs), max(w.shards, 1), linkDelay, linkRate>>20)
}

// cpuModel reads the processor name, or "unknown" where it is not
// available.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// setupMedian sets the workload up setupRuns times, keeps the last rig
// and reports the median set-up time.
func setupMedian(w *workload, seed uint64, rec *recorder) (*rig, string, *party.TPReport, float64, error) {
	var times []float64
	var r *rig
	var pin string
	var rep *party.TPReport
	for i := 0; i < setupRuns; i++ {
		if r != nil {
			r.close()
		}
		start := time.Now()
		var err error
		r, pin, rep, err = setup(w, seed, rec)
		if err != nil {
			return nil, "", nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return r, pin, rep, median(times), nil
}

// setup generates the inputs, starts the server or shard workers, runs
// the gated session and one warm-up session.
func setup(w *workload, seed uint64, rec *recorder) (*rig, string, *party.TPReport, error) {
	r, err := newRig(w, seed, rec)
	if err != nil {
		return nil, "", nil, err
	}
	pin, rep, err := gate(r)
	if err == nil {
		t := newTally(pin)
		out, serr := r.session(false)
		t.add(0, resultsOf(out), 0, serr)
		if t.failed > 0 {
			err = fmt.Errorf("warm-up session failed the gate: %v", t.firstErr)
		}
	}
	if err != nil {
		r.close()
		return nil, "", nil, err
	}
	return r, pin, rep, nil
}

func resultsOf(o *sessionOut) map[string]*party.Result {
	if o == nil {
		return nil
	}
	return o.results
}

// slices is how many equal parts the rate is measured over. The rate is
// their median, so a burst of load from outside the process moves at
// most a part or two.
const slices = 5

// window is one timed stretch of closed-loop sessions.
type window struct {
	t       *tally
	start   time.Time
	elapsed time.Duration
	cpu     time.Duration
	alloc   uint64
}

// rate is the median over slices of the completion rate inside each
// slice, measured between its first and last completion so that no
// session is split across a boundary.
func (win *window) rate() float64 {
	var xs []float64
	part := win.elapsed / slices
	i := 0
	for s := 0; s < slices; s++ {
		end := win.start.Add(part * time.Duration(s+1))
		first := i
		for i < len(win.t.doneAt) && (s == slices-1 || win.t.doneAt[i].Before(end)) {
			i++
		}
		if n := i - first; n >= 2 {
			xs = append(xs, float64(n-1)/win.t.doneAt[i-1].Sub(win.t.doneAt[first]).Seconds())
		}
	}
	return median(xs)
}

// measure runs closed-loop clients until d has passed; each client starts
// its next session when the previous one returns.
func measure(r *rig, pin string, d time.Duration) *window {
	runtime.GC()
	win := &window{t: newTally(pin)}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	win.start = time.Now()
	deadline := win.start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clientsFor(r.w); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				out, err := r.session(false)
				var wire uint64
				if out != nil {
					wire = out.wire
				}
				win.t.add(time.Since(t0), resultsOf(out), wire, err)
			}
		}()
	}
	wg.Wait()
	win.elapsed = time.Since(win.start)
	win.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	win.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	return win
}

// cpuTime is the process's user plus system time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// perSession divides a window total by its completed sessions.
func (win *window) perSession(total float64) float64 {
	return total / float64(max(win.t.completed(), 1))
}

func (win *window) p50() float64 {
	lat := append([]float64(nil), win.t.latMs...)
	return median(lat)
}

// endToEnd derives the metrics a user of the system sees.
func endToEnd(r *rig, win *window, setupS float64) []metric {
	n := win.t.completed()
	lat := append([]float64(nil), win.t.latMs...)
	p50 := median(lat) // sorts lat
	p, tv, beyond, ok := tail(lat)
	tailNote := fmt.Sprintf("p%.2f, %d samples beyond it", p, beyond)
	if !ok {
		tailNote = fmt.Sprintf("too few samples for a tail; p%.2f shown", p)
	}
	return []metric{
		{name: "setup_s", value: setupS, unit: "s", n: setupRuns, note: "median of set-ups (inputs, server/workers, gated + warm-up session)"},
		{name: "session_p50_ms", value: p50, unit: "ms", n: n},
		// The tail is printed but not bounded: one burst of load from
		// outside the process moves the 11th-slowest session by up to a
		// fifth between runs on a shared 2-core machine.
		{name: "session_tail_ms", value: tv, unit: "ms", n: n, note: tailNote, textOnly: true},
		{name: "sessions_per_s", value: win.rate(), unit: "1/s", n: n,
			note: fmt.Sprintf("median of %d slices; %.3f overall over %.2f s wall", slices, float64(n)/win.elapsed.Seconds(), win.elapsed.Seconds())},
		{name: "cpu_ms_per_session", value: win.perSession(ms(win.cpu)), unit: "ms", n: n, note: "getrusage user+sys"},
		{name: "alloc_mb_per_session", value: win.perSession(float64(win.alloc) / 1e6), unit: "MB", n: n, note: "MemStats.TotalAlloc"},
		{name: "wire_mb_per_session", value: win.perSession(float64(win.t.wireBytes) / 1e6), unit: "MB", n: n, note: fmt.Sprintf("all lanes; costmodel predicts %d elements (Sections 4.1-4.3)", predictedElems(r.w))},
	}
}
