// Command campaignbench is the repository's end-to-end benchmark. It runs
// seeded M2TD campaigns through the public entry points (m2td.RunCtx, and
// api.Client against an in-process serve.Server), checks every output and
// prints one JSON result line:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {"campaign_s": {"value": 2.61, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// run is a traced replay instead: each campaign is replayed as calls into
// the layers' public functions, with a span recorded by the benchmark
// around each call, and the metrics are per-layer self times and counts.
// The spans are written as JSONL that cmd/tracecat reads. The program's
// own tracing is off in every run, so the layer numbers do not depend on
// where spans sit inside the program.
//
// Build and run it from the root of a checkout with
//
//	bash campaignbench/run.sh --workload exact-cold --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	m2td "repro"
	"repro/internal/obs"
)

// A workload is one seeded input set. why is the one-line reason it
// exists; it is repeated in BENCHMARK.json.
type workload struct {
	name string
	why  string
	run  func(b *bench) error
}

var workloads = []workload{
	{"exact-cold", "res 12 with exact accuracy, one child process per campaign: ground-truth evaluation is ~93% of the work and no in-process memo hides it", runExactCold},
	{"sampled-res20", "res 20 in one warm process with 500-fiber sampled accuracy: the default decompose path (join, stitch, core) dominates and ground truth is absent", runSampled},
	{"serve-mixed", "2 closed-loop HTTP clients, 1 in 4 submissions fresh: durable new campaigns run beside coalesced and cached reads and predictions", runServe},
	{"dmtd-res16", "the same seeded partitions decomposed by in-process D-M2TD and by multi-process distnet: the only workload that reaches dist, mapreduce and distnet", runDMTD},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	// Distnet workers are spawned by re-executing this binary.
	m2td.MaybeDistWorker()
	begin := time.Now()
	var (
		name     = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "workload seed; every generated input derives from it")
		seconds  = flag.Float64("seconds", 25, "measured duration in seconds")
		trace    = flag.Int("trace", 0, "1 = traced replay reporting per-layer metrics, 0 = end-to-end metrics")
		traceOut = flag.String("trace-out", "", "JSONL span file of the traced run (default: traces/ beside the binary)")
		smoke    = flag.Bool("smoke", false, "shrink every size for the benchmark's self-test")
		perturb  = flag.Float64("perturb-reference", 0, "add this to every reference accuracy (self-test of the output check)")
		child    = flag.String("child", "", "internal: run one exact-cold campaign described by this JSON and print its outcome")
		genRef   = flag.Bool("gen-reference", false, "recompute the reference accuracies and print them as JSON")
	)
	flag.Parse()
	switch {
	case *child != "":
		if err := runChild(*child, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "campaignbench child:", err)
			os.Exit(1)
		}
		return
	case *genRef:
		if err := genReferences(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "campaignbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "campaignbench: unknown workload %q; known:", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "campaignbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	refs, err := loadReferences(*perturb)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(2)
	}
	b := &bench{
		workload: w.name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		smoke:    *smoke,
		refs:     refs,
		begin:    begin,
		metrics:  map[string]float64{},
	}
	if *trace == 1 {
		b.trace = obs.New("campaignbench " + w.name)
	}
	runErr := w.run(b)
	if runErr != nil {
		b.failf("%v", runErr)
	}
	if b.trace != nil {
		path := *traceOut
		if path == "" {
			path = defaultTracePath(w.name, *seed)
		}
		if err := writeTrace(path, b.trace); err != nil {
			b.failf("write trace: %v", err)
		} else {
			fmt.Fprintln(os.Stderr, "campaignbench: trace written to", path)
		}
	}
	res, err := b.result()
	if err != nil {
		b.failf("%v", err)
		res, _ = b.result()
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// bench is the state of one run.
type bench struct {
	workload string
	seed     int64
	seconds  time.Duration
	smoke    bool
	refs     references
	trace    *obs.Trace // the benchmark's own spans; nil unless the run is traced
	begin    time.Time

	attempted, failed int
	setups            []float64
	metrics           map[string]float64
}

// failf records one failed operation or check.
func (b *bench) failf(format string, args ...any) {
	b.failed++
	if b.failed <= 10 {
		fmt.Fprintf(os.Stderr, "campaignbench: FAIL: "+format+"\n", args...)
	}
}

// setupReps is how many times a workload sets up. Five keeps the median
// steady although one set-up spawning processes can take twice another.
const setupReps = 5

// setup runs fn setupReps times and records each duration; the first one
// also counts the time from process start. setup_s is their median, so a
// single cold start does not decide the figure.
func (b *bench) setup(fn func(ctx context.Context) error) error {
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if i == 0 {
			start = b.begin
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		err := fn(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		b.setups = append(b.setups, time.Since(start).Seconds())
	}
	return nil
}

// result assembles the output line. Every metric of the run's kind must
// be present: an end-to-end metric a workload did not measure is a bug,
// while a per-layer metric of a layer the workload never reaches reads 0.
func (b *bench) result() (result, error) {
	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	defs := endToEnd
	if b.trace != nil {
		defs = perLayer
	} else if len(b.setups) > 0 {
		b.metrics["setup_s"] = median(b.setups)
	}
	var err error
	for _, d := range defs {
		v, ok := b.metrics[d.name]
		if !ok && b.trace == nil && err == nil {
			err = fmt.Errorf("workload %s did not measure %s", b.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		if res.Failed < 1 {
			res.Failed = 1
		}
	}
	res.Correct = res.Failed == 0 && err == nil
	return res, err
}

func printResult(w io.Writer, res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

type metricDef struct{ name, unit string }

// endToEnd and perLayer mirror BENCHMARK.json; the self-test checks that
// the two agree.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"campaign_s", "s"},
	{"accuracy", "1"},
	{"peak_rss_mb", "MB"},
	{"campaigns_per_s", "1/s"},
	{"predict_ms.p50", "ms"},
}

var perLayer = []metricDef{
	{"ensemble.ground_truth_s", "s"},
	{"ensemble.ground_truth_sims", "count"},
	{"ensemble.ground_truth_sims_per_s", "1/s"},
	{"ensemble.reference_s", "s"},
	{"partition.busy_s", "s"},
	{"partition.sims", "count"},
	{"partition.sims_per_s", "1/s"},
	{"partition.retry_frac", "1"},
	{"stitch.busy_s", "s"},
	{"stitch.join_nnz", "count"},
	{"stitch.join_bytes_computed", "bytes"},
	{"core.busy_s", "s"},
	{"core.factors_s", "s"},
	{"core.stitch_s", "s"},
	{"core.project_s", "s"},
	{"core.plan_hit_frac", "1"},
	{"core.serial_busy_s", "s"},
	{"core.speedup", "x"},
	{"parallel.strips", "count"},
	{"parallel.tasks", "count"},
	{"tensor.reconstruct_s", "s"},
	{"tensor.reconstruct_cells", "count"},
	{"eval.compare_s", "s"},
	{"eval.sampled_s", "s"},
	{"eval.sampled_sims", "count"},
	{"api.submit_ms.p50", "ms"},
	{"api.result_ms.p50", "ms"},
	{"api.predict_ms.p50", "ms"},
	{"fresh_campaign_ms.p50", "ms"},
	{"fresh_campaign_ms.p90", "ms"},
	{"hit_campaign_ms.p50", "ms"},
	{"predict_ms.p90", "ms"},
	{"served_campaigns_per_s", "1/s"},
	{"serve.queue_wait_ms.p50", "ms"},
	{"serve.queue_wait_ms.p90", "ms"},
	{"serve.run_ms.p50", "ms"},
	{"serve.run_ms.p90", "ms"},
	{"serve.absorbed_frac", "1"},
	{"serve.jobs_done", "count"},
	{"serve.coalesced", "count"},
	{"serve.cache_hits", "count"},
	{"serve.queue_rejected", "count"},
	{"inproc_dmtd_s", "s"},
	{"distnet_dmtd_s", "s"},
	{"dist.busy_s", "s"},
	{"dist.phase1_s", "s"},
	{"dist.phase2_s", "s"},
	{"dist.phase3_s", "s"},
	{"distnet.busy_s", "s"},
	{"distnet.phase1_s", "s"},
	{"distnet.phase2_s", "s"},
	{"distnet.phase3_s", "s"},
	{"distnet.overhead_s", "s"},
	{"distnet.requeue_frac", "1"},
	{"distnet.workers_lost", "count"},
	{"trace.overhead_s", "s"},
}

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs; 0 for none.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
