// Command mssbench is the repository's end-to-end benchmark. It launches a
// real mssd on a fresh data directory, drives it closed-loop over loopback
// HTTP with a seeded, fixed op script, checks every answer against the
// library, and prints the metrics as one JSON line. With -trace 1 it also
// replays the same script in process, timing each layer's public functions,
// and prints the per-layer metrics instead.
//
//	bash mssbench/run.sh --workload scan --seed 1 --seconds 25 --trace 0
//	bash mssbench/run.sh --steady 10 --sets 2 --workload request --seconds 25
//
// See NOTES.md for the workloads, the metrics and the steadiness rules.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	mssd     string
	work     string
	smoke    bool
	steady   int
	sets     int
}

func main() {
	// The client keeps every response until the run ends; collecting
	// garbage less often keeps its CPU out of mssd's way.
	debug.SetGCPercent(400)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		killAll()
		os.Exit(1)
	}()
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mssbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "scan", "workload: scan | request | ingest")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "nominal measured seconds; sizes the op script")
	fs.IntVar(&trace, "trace", 0, "1: print per-layer metrics from the traced in-process replay")
	fs.StringVar(&cfg.mssd, "mssd", "", "path to the mssd binary")
	fs.StringVar(&cfg.work, "work", ".bench_build", "directory for data dirs, logs and traces")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny scripts, for the benchmark's own tests")
	fs.IntVar(&cfg.steady, "steady", 0, "steadiness report: run the workload this many times per set (seeds 1..N)")
	fs.IntVar(&cfg.sets, "sets", 1, "steadiness report: number of sets of runs to compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if cfg.mssd == "" {
		fmt.Fprintln(stderr, "mssbench: -mssd is required (run through mssbench/run.sh)")
		return 2
	}
	if _, err := os.Stat(cfg.mssd); err != nil {
		fmt.Fprintf(stderr, "mssbench: %v\n", err)
		return 2
	}
	if cfg.steady > 0 {
		if err := steady(cfg, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "mssbench: %v\n", err)
			return 1
		}
		return 0
	}
	res, err := runOnce(cfg, stderr)
	killAll()
	if err != nil {
		fmt.Fprintf(stderr, "mssbench: %v\n", err)
		return 1
	}
	ctxLine, _ := json.Marshal(map[string]any{"context": res.context})
	fmt.Fprintln(stdout, string(ctxLine))
	line, _ := json.Marshal(res.out)
	fmt.Fprintln(stdout, string(line))
	if !res.out.Correct {
		return 1
	}
	return 0
}

// A run times setupGroups groups of setupsPerGroup fresh set-ups: one
// before the drive, one after it, and the others at even points within
// it, while the driven daemon idles. setup_s is the median of them all.
// One set-up alone swings by ±15%, and a stall of the shared disk's fsyncs
// lasting a few seconds slows a whole group; the median passes over one
// slow group.
const (
	setupGroups    = 4
	setupsPerGroup = 4
)

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line the driver parses.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	out     output
	context map[string]any
}

// daemons tracks every started mssd so a signal or an error path stops it.
var (
	daemonsMu sync.Mutex
	daemons   []*daemon
)

func track(d *daemon) *daemon {
	daemonsMu.Lock()
	defer daemonsMu.Unlock()
	daemons = append(daemons, d)
	return d
}

func killAll() {
	daemonsMu.Lock()
	defer daemonsMu.Unlock()
	for _, d := range daemons {
		d.kill()
	}
	daemons = nil
}

// runOnce sets up, drives and checks one run, end-to-end or traced.
func runOnce(cfg config, logw io.Writer) (*result, error) {
	runStart := time.Now()
	runDir, err := filepath.Abs(filepath.Join(cfg.work, "runs", fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	seconds := cfg.seconds
	if cfg.trace {
		// The traced run drives the script over HTTP, replays it in
		// process and runs the engine and storage probes; a third of the
		// script keeps it within one run's length.
		seconds /= 3
	}
	sz := sizeFor(cfg.workload, seconds, cfg.smoke)
	w, err := buildWorkload(cfg.workload, cfg.seed, sz)
	if err != nil {
		return nil, err
	}
	client := newClient(w.conns)
	defer client.CloseIdleConnections()
	reqs, err := uploadRequests(w.corpora)
	if err != nil {
		return nil, err
	}

	// setUp times one fresh set-up: mssd launched on a new data dir and
	// every corpus uploaded.
	logPath := filepath.Join(runDir, "mssd.log")
	var setupSecs []float64
	setUp := func() (*daemon, string, error) {
		dir := filepath.Join(runDir, fmt.Sprintf("data-%d", len(setupSecs)))
		// Collect the client's workload garbage now rather than mid set-up.
		runtime.GC()
		t0 := time.Now()
		d, err := startDaemon(cfg.mssd, dir, logPath, client)
		if err != nil {
			return nil, "", err
		}
		track(d)
		if err := upload(client, d.base, reqs); err != nil {
			return nil, "", fmt.Errorf("setup: %w", err)
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
		return d, dir, nil
	}
	// extraSetUps times n set-ups whose daemons are stopped at once.
	extraSetUps := func(n int) error {
		for range n {
			d, dir, err := setUp()
			if err != nil {
				return err
			}
			d.kill()
			os.RemoveAll(dir)
		}
		return nil
	}
	groups, perGroup := setupGroups, setupsPerGroup
	if cfg.trace {
		groups, perGroup = 1, 1
	}
	if err := extraSetUps(perGroup - 1); err != nil {
		return nil, err
	}
	d, dataDir, err := setUp()
	if err != nil {
		return nil, err
	}
	kernel, cpu, err := healthz(client, d.base)
	if err != nil {
		return nil, err
	}
	res := &result{context: map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"kernel":     kernel,
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"conns":      w.conns,
		"script":     w.sizes,
	}}

	cpu0, err := d.cpuMs()
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(max(2.5*cfg.seconds, 20) * float64(time.Second)))
	if limit := runStart.Add(130 * time.Second); deadline.After(limit) {
		deadline = limit
	}
	ph := phase{acked: map[string]int{}}
	for i, part := range split(w.scripts, max(groups-1, 1)) {
		if i > 0 {
			if err := extraSetUps(perGroup); err != nil {
				return nil, err
			}
		}
		ph.add(drive(client, d.base, part, deadline))
	}
	cpu1, err := d.cpuMs()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	checkErr := finalChecks(client, d, w, ph, cfg.mssd, dataDir, logPath)
	d.kill()
	if groups > 1 {
		if err := extraSetUps(perGroup); err != nil {
			return nil, err
		}
	}
	res.context["setup_s_each"] = setupSecs

	ok := 0
	for _, s := range ph.samples {
		if s.ok {
			ok++
		}
	}
	// Every op of the script counts: one the deadline cut is a failed op.
	attempted := sumLen(w.scripts)
	res.out = output{Correct: ok == attempted && checkErr == nil, Attempted: attempted, Failed: attempted - ok, Metrics: map[string]metric{}}
	if ph.firstErr != nil {
		fmt.Fprintf(logw, "mssbench: first failed op: %v\n", ph.firstErr)
	}
	if checkErr != nil {
		fmt.Fprintf(logw, "mssbench: final check failed: %v\n", checkErr)
	}
	if len(ph.samples) < attempted {
		fmt.Fprintf(logw, "mssbench: deadline cut the script at %d of %d ops\n", len(ph.samples), attempted)
	}
	e2e := endToEnd(ph, cpu1-cpu0, rss, median(setupSecs), ok, attempted)
	if !cfg.trace {
		res.out.Metrics = e2e
		return res, nil
	}
	layers, err := traced(cfg, w, ph, runDir, logw)
	if err != nil {
		return nil, err
	}
	for k, v := range layers {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("per-layer metric %s is %v", k, v.Value)
		}
	}
	res.out.Metrics = layers
	return res, nil
}

// split cuts every connection's script into n consecutive parts.
func split(scripts [][]*op, n int) [][][]*op {
	parts := make([][][]*op, n)
	for _, s := range scripts {
		for i := range parts {
			parts[i] = append(parts[i], s[i*len(s)/n:(i+1)*len(s)/n])
		}
	}
	return parts
}

func sumLen(scripts [][]*op) int {
	n := 0
	for _, s := range scripts {
		n += len(s)
	}
	return n
}

// latencies returns the ms latencies of one op class.
func latencies(ph phase, typ opType) []float64 {
	var xs []float64
	for _, s := range ph.samples {
		if s.typ == typ {
			xs = append(xs, ms(s.lat))
		}
	}
	return xs
}

// endToEnd computes the user-visible metrics of one driven phase.
func endToEnd(ph phase, cpuMs, rssMB, setupS float64, ok, attempted int) map[string]metric {
	m := map[string]metric{}
	// Append latency is not reported end to end: on ingest its p50 and p90
	// spread by 30% and 76% (interquartile, 10 runs of the same code on a
	// 2-vCPU Xeon VM), following the shared disk's fsync latency;
	// durable_syms_per_s and the traced service.append_ms carry the write
	// path instead.
	for _, typ := range []opType{opQuery, opBatch} {
		xs := latencies(ph, typ)
		name := opTypeNames[typ]
		m[name+"_p50_ms"] = metric{percentile(xs, 0.5), "ms"}
		m[name+"_p90_ms"] = metric{percentile(xs, 0.9), "ms"}
	}
	acked := 0
	for _, v := range ph.acked {
		acked += v
	}
	wall := ph.wall.Seconds()
	n := float64(len(ph.samples))
	m["ops_per_s"] = metric{n / wall, "1/s"}
	m["durable_syms_per_s"] = metric{float64(acked) / wall, "1/s"}
	m["server_cpu_ms_per_op"] = metric{cpuMs / n, "ms"}
	m["server_rss_peak_mb"] = metric{rssMB, "MB"}
	m["setup_s"] = metric{setupS, "s"}
	m["ok_ops_frac"] = metric{float64(ok) / float64(attempted), "frac"}
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
			m[k] = v
		}
	}
	return m
}

// finalChecks verifies the state the run leaves: every live corpus holds its
// seed plus every acknowledged append; for ingest, the lengths and a
// full-corpus MSS survive SIGKILL and a restart on the same data dir.
func finalChecks(client *http.Client, d *daemon, w *workload, ph phase, bin, dataDir, logPath string) error {
	want := map[string]int{}
	for _, c := range w.corpora {
		if c.live {
			want[c.name] = len(c.text) + ph.acked[c.name]
		}
	}
	got, err := lengths(client, d.base)
	if err != nil {
		return err
	}
	for name, n := range want {
		if got[name] != n {
			return fmt.Errorf("corpus %s holds %d symbols, want seed plus acked appends = %d", name, got[name], n)
		}
	}
	if w.fullMSS == "" {
		return nil
	}
	before, err := fullMSS(client, d.base, w.fullMSS)
	if err != nil {
		return err
	}
	client.CloseIdleConnections()
	d.kill()
	d2, err := startDaemon(bin, dataDir, logPath, client)
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	track(d2)
	defer d2.kill()
	after, err := lengths(client, d2.base)
	if err != nil {
		return err
	}
	for name, n := range want {
		if after[name] != n {
			return fmt.Errorf("after SIGKILL and restart corpus %s holds %d symbols, want %d", name, after[name], n)
		}
	}
	again, err := fullMSS(client, d2.base, w.fullMSS)
	if err != nil {
		return err
	}
	if len(before.Results) != 1 || len(again.Results) != 1 {
		return errors.New("full-corpus MSS returned no result")
	}
	b, a := before.Results[0], again.Results[0]
	if a.Start != b.Start || a.End != b.End || math.Float64bits(a.X2) != math.Float64bits(b.X2) {
		return fmt.Errorf("full-corpus MSS changed across SIGKILL and restart: %+v -> %+v", b, a)
	}
	return nil
}
