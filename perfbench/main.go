// Command perfbench is voxset's end-to-end benchmark. It generates a
// workload's inputs from a seed, serves them from an in-process
// server.Server over a 2-shard cluster.DB, drives it with closed-loop
// HTTP clients, checks every answer against an offline oracle, and
// prints its metrics as one JSON object on the last line of standard
// output. See README.md for the workloads, metrics and noise notes.
//
//	perfbench --workload upload|scan-partial|live-catalog --seed N --seconds S --trace 0|1
//
// Run it through run.sh from the repository root, which builds it first.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// Workload names.
const (
	wUpload      = "upload"
	wScanPartial = "scan-partial"
	wLive        = "live-catalog"
)

// size scales a run. "full" is what the benchmark measures; "tiny" is
// for the self-tests.
type size struct {
	catalogParts  int    // cadgen aircraft parts in the STL catalog
	liveBaseParts int    // aircraft parts whose covers seed the live catalog
	liveObjects   int    // live-catalog objects at the checkpoint
	walTail       int    // acked mutations after the checkpoint
	scriptLen     int    // requests in a generated script
	measured      [3]int // requests measured per workload (wIndex order); p99 needs ≥ 1000
	setups        int    // timed set-ups per run; the median is reported
	traceMesh     int    // traced requests on upload
	tracePartial  int    // traced requests on scan-partial
	traceLive     int    // traced ops on live-catalog
}

var sizes = map[string]size{
	"full": {
		catalogParts: 600, liveBaseParts: 1000, liveObjects: 20000, walTail: 4000,
		scriptLen: 30000, measured: [3]int{2500, 1000, 3200}, setups: 3,
		traceMesh: 300, tracePartial: 100, traceLive: 3200,
	},
	"tiny": {
		catalogParts: 24, liveBaseParts: 12, liveObjects: 400, walTail: 60,
		scriptLen: 300, measured: [3]int{30, 30, 30}, setups: 2,
		traceMesh: 12, tracePartial: 6, traceLive: 100,
	},
}

// wIndex orders the workloads in per-workload size fields.
func wIndex(w string) int {
	switch w {
	case wUpload:
		return 0
	case wScanPartial:
		return 1
	}
	return 2
}

func (s size) traceN(w string) int {
	switch w {
	case wUpload:
		return s.traceMesh
	case wScanPartial:
		return s.tracePartial
	}
	return s.traceLive
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's outcome.
type report struct {
	attempted, failed int
	setupFailures     int // acked writes lost across a restart, or a wrong object count
	metrics           map[string]metric
	info              map[string]float64 // printed, not part of the result line
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, info: map[string]float64{}}
}

// setE2E fills the end-to-end metrics of an untraced run from the
// first measured requests of its timed phase. knn keeps the script
// positions of k-nn requests (nil: all).
func (rep *report) setE2E(setups []float64, all phase, measured int, knn func(j int) bool, rssMB float64) {
	ph := all.prefix(measured)
	lat := ph.latencies(nil)
	n := len(lat)
	tail := tailPercentile(n)
	rep.metrics["setup_s"] = metric{median(setups), "s"}
	rep.metrics["throughput_ops_s"] = metric{float64(n) / ph.wall.Seconds(), "ops/s"}
	rep.metrics["latency_p50_ms"] = metric{percentile(lat, 50), "ms"}
	rep.metrics["latency_p99_ms"] = metric{percentile(lat, 99), "ms"}
	rep.metrics["knn_p50_ms"] = metric{percentile(ph.latencies(knn), 50), "ms"}
	rep.metrics["peak_rss_mb"] = metric{rssMB, "MB"}
	rep.info["samples_measured"] = float64(n)
	rep.info["samples_run"] = float64(len(all.samples))
	rep.info["tail_percentile"] = tail
	rep.info["latency_tail_ms"] = percentile(lat, tail)
	rep.info["setup_min_s"], rep.info["setup_max_s"] = minMax(setups)
}

// setLayers fills the per-layer metrics of a traced run. base and traced
// are the same requests sent untraced and traced; their client p50
// difference is the tracing overhead.
func (rep *report) setLayers(spans []Span, base, traced []sample, gc time.Duration) {
	vals := layerValues(spans)
	vals["runtime.gc_pause_ms"] = ms(gc)
	lat := func(ss []sample) []float64 {
		var out []float64
		for _, s := range ss {
			out = append(out, s.ms)
		}
		return out
	}
	vals["trace.overhead_ms"] = percentile(lat(traced), 50) - percentile(lat(base), 50)
	vals = zeroNaN(vals)
	for _, l := range perLayer {
		rep.metrics[l.name] = metric{vals[l.name], l.unit}
	}
}

func minMax(xs []float64) (float64, float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[0], s[len(s)-1]
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "gen" {
		if err := genMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench gen:", err)
			os.Exit(2)
		}
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	w := fs.String("workload", "", "upload, scan-partial or live-catalog")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "minimum length of the timed phase")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	sz := fs.String("size", "full", "full or tiny")
	fs.Parse(os.Args[1:])
	res, err := run(os.Stdout, *w, *seed, *seconds, *trace == 1, *sz, "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// genMain is the generation step, run as its own process so that its
// memory and garbage never reach the measured process.
func genMain(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	w := fs.String("workload", "", "workload")
	seed := fs.Int64("seed", 1, "input seed")
	sz := fs.String("size", "full", "full or tiny")
	dir := fs.String("dir", "", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, ok := sizes[*sz]
	if !ok || *dir == "" {
		return errors.New("need a known -size and a -dir")
	}
	return generate(*dir, *w, *seed, s)
}

// run generates the inputs (in a child process, or in this one when
// workRoot is given, as the self-tests do), measures workload w and
// returns the result line. Human-readable detail goes to out. Scratch files live in
// .bench_build under the working directory unless workRoot is given,
// and are removed before run returns; the span file of a traced run
// stays in .bench_build/traces.
func run(out io.Writer, w string, seed int64, seconds int, trace bool, sizeName, workRoot string) (*result, error) {
	sz, ok := sizes[sizeName]
	if !ok {
		return nil, fmt.Errorf("unknown size %q", sizeName)
	}
	switch w {
	case wUpload, wScanPartial, wLive:
	default:
		return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", w, wUpload, wScanPartial, wLive)
	}
	inProcess := workRoot != ""
	if workRoot == "" {
		workRoot = ".bench_build"
	}
	work, err := filepath.Abs(filepath.Join(workRoot, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	gen := filepath.Join(work, "gen")
	if err := os.MkdirAll(gen, 0o755); err != nil {
		return nil, err
	}
	t := time.Now()
	if inProcess {
		err = generate(gen, w, seed, sz)
	} else {
		err = genChild(gen, w, seed, sizeName)
	}
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	digest, err := inputsDigest(gen)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "workload %s seed %d size %s: inputs generated in %.1fs, sha256 %s\n",
		w, seed, sizeName, time.Since(t).Seconds(), digest)

	rep := newReport()
	var tr *Tracer
	if trace {
		tr = newTracer()
	}
	switch w {
	case wUpload, wScanPartial:
		r := &meshRun{w: w, dir: gen, sz: sz, tr: tr}
		if err := readJSON(filepath.Join(gen, "manifest.json"), &r.man); err != nil {
			return nil, err
		}
		if trace {
			err = r.traced(rep)
		} else {
			err = r.timed(seconds, rep)
		}
	case wLive:
		r := &liveRun{dir: gen, work: work, sz: sz, tr: tr}
		if err := readJSON(filepath.Join(gen, "manifest.json"), &r.man); err != nil {
			return nil, err
		}
		if r.ops, err = readOps(gen); err != nil {
			return nil, err
		}
		if trace {
			err = r.traced(rep)
		} else {
			err = r.timed(seconds, rep)
		}
	}
	if err != nil {
		return nil, err
	}
	if trace {
		spans := tr.Spans()
		path := filepath.Join(workRoot, "traces", fmt.Sprintf("%s-seed%d.json", w, seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(spans), path)
		printLayerTable(out, w, layerTable(spans))
	}
	rep.info["error_ratio"] = float64(rep.failed) / float64(max(rep.attempted, 1))
	rep.info["setup_failures"] = float64(rep.setupFailures)
	printReport(out, w, rep)
	return &result{
		Correct:   rep.failed == 0 && rep.setupFailures == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}, nil
}

// genChild runs the generation step in a child process of this binary
// and waits for it.
func genChild(dir, w string, seed int64, sizeName string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "gen", "-workload", w, "-seed", fmt.Sprint(seed), "-size", sizeName, "-dir", dir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	return cmd.Run()
}

func printReport(out io.Writer, w string, rep *report) {
	fmt.Fprintf(out, "report (%s): attempted %d, failed %d\n", w, rep.attempted, rep.failed)
	names := make([]string, 0, len(rep.metrics))
	for k := range rep.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-32s %14.4f %s\n", k, rep.metrics[k].Value, rep.metrics[k].Unit)
	}
	names = names[:0]
	for k := range rep.info {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-32s %14.4f (info)\n", k, rep.info[k])
	}
}
