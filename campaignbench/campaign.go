package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"

	m2td "repro"
	"repro/internal/dynsys"
)

const (
	system = m2td.SystemDoublePendulum
	rank   = 4
	// seedPool is the number of campaign seeds with a reference accuracy;
	// a workload seed picks its campaigns' order among them.
	seedPool = 24
	// predictsPerCampaign is how many Report.Predict calls follow each
	// in-process campaign.
	predictsPerCampaign = 200
	dmtdWorkers         = 2
)

// sizes is a workload's campaign size: grid resolution (which is also the
// time-sample count) and sampled-accuracy fibers (0 = exact accuracy).
type sizes struct{ res, fibers int }

func sizesFor(workload string, smoke bool) sizes {
	full := map[string]sizes{"exact-cold": {12, 0}, "sampled-res20": {20, 500}, "serve-mixed": {12, 0}, "dmtd-res16": {16, 500}}
	small := map[string]sizes{"exact-cold": {5, 0}, "sampled-res20": {8, 50}, "serve-mixed": {5, 0}, "dmtd-res16": {6, 50}}
	if smoke {
		return small[workload]
	}
	return full[workload]
}

func (b *bench) sizes() sizes { return sizesFor(b.workload, b.smoke) }

// campaignConfig is the in-process campaign every workload but serve-mixed
// runs: double pendulum, rank 4, SELECT, pivot t, full densities.
func campaignConfig(sz sizes, seed int64) m2td.Config {
	return m2td.Config{
		System:             system,
		Resolution:         sz.res,
		Rank:               rank,
		Method:             m2td.MethodSELECT,
		Pivot:              "t",
		Seed:               seed,
		AccuracySampleSims: sz.fibers,
	}
}

// runCampaign is m2td.RunCtx with the program's tracing off, as in every
// run of the benchmark.
func runCampaign(ctx context.Context, cfg m2td.Config) (*m2td.Report, error) {
	cfg.Trace = false
	return m2td.RunCtx(ctx, cfg)
}

// campaignSeeds returns the seed of the i-th campaign: a permutation of
// the reference pool chosen by the workload seed, repeated as needed.
func campaignSeeds(seed int64) func(i int) int64 {
	perm := rand.New(rand.NewSource(seed)).Perm(seedPool)
	return func(i int) int64 { return int64(perm[i%seedPool] + 1) }
}

// predictParams draws n uniform points of the double pendulum's parameter
// box, mostly between grid points.
func predictParams(rng *rand.Rand, n int) [][]float64 {
	sys, err := dynsys.ByName(string(system))
	if err != nil {
		panic(err) // the system is a compile-time constant
	}
	out := make([][]float64, n)
	for i := range out {
		for _, p := range sys.Params() {
			out[i] = append(out[i], p.Min+rng.Float64()*(p.Max-p.Min))
		}
	}
	return out
}

// outcome is what the output checks look at in one campaign.
type outcome struct {
	Accuracy    float64     `json:"accuracy"`
	NumSims     int         `json:"num_sims"`
	CoreShape   []int       `json:"core_shape"`
	Predictions [][]float64 `json:"predictions"`
}

// predict runs the Report.Predict calls and returns their values and
// per-call durations in ms.
func predict(rep *m2td.Report, params [][]float64) ([][]float64, []float64, error) {
	var vals [][]float64
	var ms []float64
	for _, p := range params {
		t0 := time.Now()
		v, err := rep.Predict(p)
		ms = append(ms, msSince(t0))
		if err != nil {
			return nil, nil, err
		}
		vals = append(vals, v)
	}
	return vals, ms, nil
}

func outcomeOf(rep *m2td.Report) outcome {
	o := outcome{Accuracy: rep.Accuracy, NumSims: rep.NumSims}
	if rep.Decomposition != nil && rep.Decomposition.Core != nil {
		o.CoreShape = append([]int(nil), rep.Decomposition.Core.Shape...)
	}
	return o
}

// budget is the double pendulum's simulation budget at full densities
// with pivot t: each sub-system simulates every combination of its two
// free parameters once.
func budget(res int) int { return 2 * res * res }

// clippedRanks is the core shape a rank-4 decomposition of the res^4 × res
// space must have.
func clippedRanks(res int) []int {
	r := min(rank, res)
	return []int{r, r, r, r, r}
}

// checkShape verifies the simulation count, core shape and predictions of
// one campaign.
func checkShape(res int, o outcome) error {
	if o.NumSims != budget(res) {
		return fmt.Errorf("num_sims %d, want the partition budget %d", o.NumSims, budget(res))
	}
	want := clippedRanks(res)
	if fmt.Sprint(o.CoreShape) != fmt.Sprint(want) {
		return fmt.Errorf("core shape %v, want %v", o.CoreShape, want)
	}
	for _, v := range o.Predictions {
		if err := checkFiber(v, res); err != nil {
			return err
		}
	}
	return nil
}

func checkFiber(v []float64, timeSamples int) error {
	if len(v) != timeSamples {
		return fmt.Errorf("prediction has %d values, want %d", len(v), timeSamples)
	}
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("prediction holds a non-finite value")
		}
	}
	return nil
}

// checkCampaign runs every per-campaign output check.
func (b *bench) checkCampaign(res int, seed int64, o outcome) error {
	if err := checkShape(res, o); err != nil {
		return fmt.Errorf("seed %d: %w", seed, err)
	}
	return b.checkAccuracy(res, seed, o.Accuracy)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// opTimeout bounds one operation, so a hung campaign fails the run
// instead of stalling it.
const opTimeout = time.Minute

// loop runs op until the measured duration has passed, at least once.
func (b *bench) loop(op func(ctx context.Context, i int) error) (elapsed time.Duration) {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < b.seconds; i++ {
		b.attempted++
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		err := op(ctx, i)
		cancel()
		if err != nil {
			b.failf("%s op %d: %v", b.workload, i, err)
		}
	}
	return time.Since(start)
}

// report sets the end-to-end metrics from per-campaign wall times (s),
// accuracies, peak RSS (MB) and per-prediction times (ms).
func (b *bench) report(walls, accs, peaks, predictMS []float64, completed int, elapsed time.Duration) {
	b.metrics["campaign_s"] = median(walls)
	b.metrics["accuracy"] = mean(accs)
	b.metrics["peak_rss_mb"] = median(peaks)
	b.metrics["campaigns_per_s"] = float64(completed) / elapsed.Seconds()
	b.metrics["predict_ms.p50"] = median(predictMS)
}

// ---- exact-cold: one child process per campaign ----

type childRequest struct {
	Res    int         `json:"res"`
	Seed   int64       `json:"seed"`
	Params [][]float64 `json:"params"`
}

type childResponse struct {
	outcome
	RunNS     int64     `json:"run_ns"`
	PredictMS []float64 `json:"predict_ms"`
}

// runChild is the child side: one exact-accuracy campaign, its
// predictions, and a JSON line describing them.
func runChild(reqJSON string, w io.Writer) error {
	var req childRequest
	if err := json.Unmarshal([]byte(reqJSON), &req); err != nil {
		return err
	}
	t0 := time.Now()
	rep, err := runCampaign(context.Background(), campaignConfig(sizes{res: req.Res}, req.Seed))
	if err != nil {
		return err
	}
	resp := childResponse{outcome: outcomeOf(rep), RunNS: time.Since(t0).Nanoseconds()}
	if resp.Predictions, resp.PredictMS, err = predict(rep, req.Params); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(resp)
}

// spawnChild runs one campaign in a fresh process and returns its answer
// and the child's peak RSS in MB.
func spawnChild(ctx context.Context, exe string, req childRequest) (childResponse, float64, error) {
	var resp childResponse
	arg, err := json.Marshal(req)
	if err != nil {
		return resp, 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "--child", string(arg))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return resp, 0, fmt.Errorf("child campaign: %w", err)
	}
	rss := 0.0
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		return resp, 0, fmt.Errorf("child campaign output: %w", err)
	}
	return resp, rss, nil
}

func runExactCold(b *bench) error {
	sz := b.sizes()
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	seeds := campaignSeeds(b.seed)
	rng := rand.New(rand.NewSource(b.seed))
	// The warm-up is a whole exact campaign at res 7 (~0.3 s), so
	// computation, not process start, decides setup_s.
	if err := b.setup(func(ctx context.Context) error {
		_, _, err := spawnChild(ctx, exe, childRequest{Res: min(7, sz.res), Seed: 1})
		return err
	}); err != nil {
		return err
	}
	var walls, runs, accs, predictMS, peaks, replays []float64
	elapsed := b.loop(func(ctx context.Context, i int) error {
		req := childRequest{Res: sz.res, Seed: seeds(i), Params: predictParams(rng, predictsPerCampaign)}
		t0 := time.Now()
		resp, peak, err := spawnChild(ctx, exe, req)
		wall := time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		if err := b.checkCampaign(sz.res, req.Seed, resp.outcome); err != nil {
			return err
		}
		walls = append(walls, wall)
		runs = append(runs, float64(resp.RunNS)/1e9)
		accs = append(accs, resp.Accuracy)
		predictMS = append(predictMS, resp.PredictMS...)
		peaks = append(peaks, peak)
		if b.trace != nil {
			d, err := b.replayInproc(ctx, i, campaignConfig(sz, req.Seed), true)
			if err != nil {
				return err
			}
			replays = append(replays, d)
		}
		return nil
	})
	if b.trace != nil {
		// The replay runs in this process, so its baseline is the child's
		// own RunCtx time, without process start and exit.
		b.layerMetrics(median(replays) - median(runs))
		return nil
	}
	b.report(walls, accs, peaks, predictMS, len(walls), elapsed)
	return nil
}

// ---- sampled-res20: back-to-back campaigns in one warm process ----

func runSampled(b *bench) error {
	sz := b.sizes()
	seeds := campaignSeeds(b.seed)
	rng := rand.New(rand.NewSource(b.seed))
	if err := b.setup(func(ctx context.Context) error {
		warm := campaignConfig(sizes{res: 8}, 1)
		warm.SkipAccuracy = true
		_, err := runCampaign(ctx, warm)
		return err
	}); err != nil {
		return err
	}
	var walls, accs, predictMS, peaks, replays []float64
	sampler := startRSSSampler()
	defer sampler.close()
	elapsed := b.loop(func(ctx context.Context, i int) error {
		cfg := campaignConfig(sz, seeds(i))
		// Start each campaign from a collected heap, so the previous
		// campaign's garbage does not decide its peak RSS and GC work.
		runtime.GC()
		t0 := time.Now()
		rep, err := runCampaign(ctx, cfg)
		t1 := time.Now()
		wall := t1.Sub(t0).Seconds()
		peaks = append(peaks, sampler.peak(t0, t1))
		if err != nil {
			return err
		}
		o := outcomeOf(rep)
		var ms []float64
		if o.Predictions, ms, err = predict(rep, predictParams(rng, predictsPerCampaign)); err != nil {
			return err
		}
		if err := b.checkCampaign(sz.res, cfg.Seed, o); err != nil {
			return err
		}
		walls = append(walls, wall)
		accs = append(accs, o.Accuracy)
		predictMS = append(predictMS, ms...)
		if b.trace != nil {
			d, err := b.replayInproc(ctx, i, cfg, false)
			if err != nil {
				return err
			}
			replays = append(replays, d)
		}
		return nil
	})
	if b.trace != nil {
		b.layerMetrics(median(replays) - median(walls))
		return nil
	}
	b.report(walls, accs, peaks, predictMS, len(walls), elapsed)
	return nil
}

// ---- dmtd-res16: in-process D-M2TD against multi-process distnet ----

// dmtdPair returns the campaign with in-process D-M2TD and with distnet.
func dmtdPair(sz sizes, seed int64) []m2td.Config {
	inproc := campaignConfig(sz, seed)
	inproc.Workers = dmtdWorkers
	distnet := campaignConfig(sz, seed)
	distnet.Distributed = &m2td.DistributedConfig{Workers: dmtdWorkers, Shards: dmtdWorkers}
	return []m2td.Config{inproc, distnet}
}

// agree checks that two engines' predictions match within tolerance
// (relative to the value's magnitude, at least 1).
func agree(a, b [][]float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("engines predicted %d and %d fibers", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if d := math.Abs(a[i][j] - b[i][j]); !(d <= tolerance*math.Max(1, math.Abs(a[i][j]))) {
				return fmt.Errorf("engines disagree on prediction %d[%d] by %.3g", i, j, d)
			}
		}
	}
	return nil
}

func runDMTD(b *bench) error {
	sz := b.sizes()
	seeds := campaignSeeds(b.seed)
	rng := rand.New(rand.NewSource(b.seed))
	// The warm-up runs both engines at res 10 (~0.4 s), so computation,
	// not spawning distnet's workers, decides setup_s.
	if err := b.setup(func(ctx context.Context) error {
		for _, warm := range dmtdPair(sizes{res: min(10, sz.res)}, 1) {
			warm.SkipAccuracy = true
			if _, err := runCampaign(ctx, warm); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var walls, inWalls, netWalls, accs, predictMS, peaks, replays []float64
	sampler := startRSSSampler()
	defer sampler.close()
	elapsed := b.loop(func(ctx context.Context, i int) error {
		seed := seeds(i)
		params := predictParams(rng, predictsPerCampaign)
		var outs [2]outcome
		var engineWalls [2]float64
		runtime.GC() // as in sampled-res20
		pairStart := time.Now()
		for e, cfg := range dmtdPair(sz, seed) {
			t0 := time.Now()
			rep, err := runCampaign(ctx, cfg)
			engineWalls[e] = time.Since(t0).Seconds()
			if err != nil {
				return err
			}
			outs[e] = outcomeOf(rep)
			var ms []float64
			if outs[e].Predictions, ms, err = predict(rep, params); err != nil {
				return err
			}
			if err := b.checkCampaign(sz.res, seed, outs[e]); err != nil {
				return err
			}
			predictMS = append(predictMS, ms...)
		}
		if d := math.Abs(outs[0].Accuracy - outs[1].Accuracy); !(d <= tolerance) {
			return fmt.Errorf("seed %d: engines' accuracies differ by %.3g", seed, d)
		}
		if err := agree(outs[0].Predictions, outs[1].Predictions); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		peaks = append(peaks, sampler.peak(pairStart, time.Now()))
		walls = append(walls, engineWalls[0]+engineWalls[1])
		inWalls = append(inWalls, engineWalls[0])
		netWalls = append(netWalls, engineWalls[1])
		accs = append(accs, outs[0].Accuracy, outs[1].Accuracy)
		if b.trace != nil {
			d, err := b.replayDMTD(ctx, i, sz, seed)
			if err != nil {
				return err
			}
			replays = append(replays, d)
		}
		return nil
	})
	if b.trace != nil {
		b.metrics["inproc_dmtd_s"] = median(inWalls)
		b.metrics["distnet_dmtd_s"] = median(netWalls)
		b.layerMetrics(median(replays) - median(walls))
		return nil
	}
	b.report(walls, accs, peaks, predictMS, len(walls), elapsed)
	return nil
}
