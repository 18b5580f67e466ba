package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	m2td "repro"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/distnet"
	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/tucker"
)

// The traced run records its spans in a benchmark-owned obs.Trace that
// is never handed to the program. Every span carries a "campaign" counter
// shared by all spans of one campaign; timings and scheduling-dependent
// counts sit on the span whose call produced them, as gauges.

// span starts a child of parent tagged with the campaign id. Like every
// obs.Span method it is a no-op returning nil on a nil parent, which is
// how untraced iterations skip recording.
func span(parent *obs.Span, name string, cid int) *obs.Span {
	s := parent.Start(name)
	s.Set("campaign", int64(cid))
	return s
}

// around records a span named name under parent around fn.
func around(parent *obs.Span, name string, cid int, fn func(s *obs.Span) error) error {
	s := span(parent, name, cid)
	defer s.Finish()
	return fn(s)
}

// layerTotals sums, per span name, the duration and the self time
// (duration minus its children's) in seconds, and every counter and
// gauge; campaigns counts the campaign spans.
func layerTotals(root *obs.SpanData) (dur, self map[string]float64, values map[string]map[string]float64, campaigns int) {
	dur, self, values = map[string]float64{}, map[string]float64{}, map[string]map[string]float64{}
	root.Walk(func(depth int, s *obs.SpanData) {
		if depth == 0 {
			return // the run's root: concurrent clients overlap under it
		}
		children := int64(0)
		for _, c := range s.Children {
			children += c.DurNS
		}
		dur[s.Name] += float64(s.DurNS) / 1e9
		self[s.Name] += float64(s.DurNS-children) / 1e9
		if values[s.Name] == nil {
			values[s.Name] = map[string]float64{}
		}
		for _, m := range []map[string]int64{s.Counters, s.Gauges} {
			for k, v := range m {
				values[s.Name][k] += float64(v)
			}
		}
		if s.Name == "campaign" {
			campaigns++
		}
	})
	return dur, self, values, campaigns
}

// writeTrace writes the spans as the obs event log cmd/tracecat reads.
func writeTrace(path string, tr *obs.Trace) error {
	tr.Finish()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteJSONL(f, tr.Root().Data(), nil); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func defaultTracePath(workload string, seed int64) string {
	dir := "."
	if exe, err := os.Executable(); err == nil {
		dir = filepath.Dir(exe)
	}
	return filepath.Join(dir, "traces", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}

// replayInproc replays one RunCtx campaign as calls into the layers'
// public functions, and probes the stitch and a serial core outside the
// campaign span. A cold replay builds a fresh space, as a new process
// does; a warm one shares the process-wide space RunCtx uses. The probe
// runs before the campaign on even campaigns and after it on odd ones,
// so neither core call is always the one that runs first. It returns the
// campaign span's duration in seconds.
func (b *bench) replayInproc(ctx context.Context, cid int, cfg m2td.Config, cold bool) (float64, error) {
	var serial []float64
	var err error
	if cid%2 == 0 {
		if serial, err = b.probe(ctx, cid, cfg); err != nil {
			return 0, err
		}
	}
	elapsed, cores, err := b.replayCampaign(ctx, cid, cfg, cold)
	if err != nil {
		return 0, err
	}
	if cid%2 == 1 {
		if serial, err = b.probe(ctx, cid, cfg); err != nil {
			return 0, err
		}
	}
	for i, v := range serial {
		if d := math.Abs(v - cores[i]); !(d <= tolerance) {
			return 0, fmt.Errorf("replay: serial core differs from the parallel core by %.3g", d)
		}
	}
	return elapsed, nil
}

// replayCampaign is the campaign span of replayInproc. It returns the
// span's duration and the core's entries.
func (b *bench) replayCampaign(ctx context.Context, cid int, cfg m2td.Config, cold bool) (float64, []float64, error) {
	runtime.GC() // as before the untraced campaign
	t0 := time.Now()
	root := span(b.trace.Root(), "campaign", cid)
	var space *ensemble.Space
	err := around(root, "ensemble.reference", cid, func(*obs.Span) error {
		if !cold {
			var err error
			space, err = eval.SpaceFor(string(system), cfg.Resolution, cfg.Resolution)
			return err
		}
		sys, err := dynsys.ByName(string(system))
		if err != nil {
			return err
		}
		space = ensemble.NewSpace(sys, cfg.Resolution, cfg.Resolution)
		space.Reference()
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	part, err := replayPartition(ctx, root, cid, space, cfg.Seed)
	if err != nil {
		return 0, nil, err
	}
	var res *core.Result
	err = around(root, "core", cid, func(s *obs.Span) error {
		strips, tasks := parallel.Strips(), parallel.Tasks()
		b1, h1 := part.Sub1.Tensor.PlanStats()
		b2, h2 := part.Sub2.Tensor.PlanStats()
		var err error
		res, err = m2td.DecomposeCtx(ctx, part, m2td.DecomposeOptions{Method: cfg.Method, Rank: cfg.Rank, Parallel: cfg.Parallel})
		if err != nil {
			return err
		}
		b1e, h1e := part.Sub1.Tensor.PlanStats()
		b2e, h2e := part.Sub2.Tensor.PlanStats()
		builds, hits := b1e-b1+b2e-b2, h1e-h1+h2e-h2
		if res.Join != nil {
			jb, jh := res.Join.PlanStats()
			builds, hits = builds+jb, hits+jh
		}
		s.Set("plan_builds", builds)
		s.Set("plan_hits", hits)
		s.SetGauge("strips", parallel.Strips()-strips)
		s.SetGauge("tasks", parallel.Tasks()-tasks)
		s.SetGauge("factors_ns", res.SubDecompTime.Nanoseconds())
		s.SetGauge("stitch_ns", res.StitchTime.Nanoseconds())
		s.SetGauge("project_ns", res.CoreTime.Nanoseconds())
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	model := eval.TuckerModel{Core: res.Core, Factors: res.Factors}
	var acc float64
	if cfg.AccuracySampleSims > 0 {
		acc, err = replaySampled(root, cid, space, model, cfg)
	} else {
		acc = replayExact(root, cid, space, res)
	}
	root.Finish()
	elapsed := time.Since(t0).Seconds()
	if err != nil {
		return 0, nil, err
	}
	if err := b.checkCampaign(cfg.Resolution, cfg.Seed, outcome{Accuracy: acc, NumSims: part.NumSims, CoreShape: res.Core.Shape}); err != nil {
		return 0, nil, fmt.Errorf("replay: %w", err)
	}
	return elapsed, res.Core.Data, nil
}

// probe stitches a fresh partition of the campaign and decomposes it at
// Parallel: 1, the plain single-threaded baseline, from a collected heap.
// The partition is untimed. It returns the serial core's entries.
func (b *bench) probe(ctx context.Context, cid int, cfg m2td.Config) ([]float64, error) {
	space, err := eval.SpaceFor(string(system), cfg.Resolution, cfg.Resolution)
	if err != nil {
		return nil, err
	}
	part, err := m2td.PartitionCtx(ctx, space, space.TimeMode(), m2td.PartitionOptions{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	probe := span(b.trace.Root(), "probe", cid)
	defer probe.Finish()
	err = around(probe, "stitch", cid, func(s *obs.Span) error {
		j, err := m2td.StitchCtx(ctx, part, m2td.StitchOptions{})
		if err != nil {
			return err
		}
		// Each stored cell is an index per mode plus its value.
		s.Set("join_nnz", int64(j.NNZ()))
		s.Set("join_bytes", int64(j.NNZ()*(len(j.Shape)+1)*8))
		return nil
	})
	if err != nil {
		return nil, err
	}
	runtime.GC() // drop the probe's join before the timed call
	var serial *core.Result
	err = around(probe, "core.serial", cid, func(s *obs.Span) error {
		serial, err = m2td.DecomposeCtx(ctx, part, m2td.DecomposeOptions{Method: cfg.Method, Rank: cfg.Rank, Parallel: 1})
		if err != nil {
			return err
		}
		s.SetGauge("project_ns", serial.CoreTime.Nanoseconds())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return serial.Core.Data, nil
}

func replayPartition(ctx context.Context, parent *obs.Span, cid int, space *ensemble.Space, seed int64) (part *partition.Result, err error) {
	err = around(parent, "partition", cid, func(s *obs.Span) error {
		part, err = m2td.PartitionCtx(ctx, space, space.TimeMode(), m2td.PartitionOptions{Seed: seed})
		if err != nil {
			return err
		}
		s.Set("sims", int64(part.NumSims))
		s.Set("executed", int64(part.Stats.ExecutedSims))
		s.Set("retried", int64(part.Stats.RetriedSims))
		return nil
	})
	return part, err
}

func replayExact(root *obs.Span, cid int, space *ensemble.Space, res *core.Result) float64 {
	truth := span(root, "ensemble.ground_truth", cid)
	gt := space.GroundTruth()
	truth.Set("sims", int64(space.TotalSims()))
	truth.Finish()
	recon := span(root, "tensor.reconstruct", cid)
	x := res.Reconstruct()
	recon.Set("cells", int64(len(x.Data)))
	recon.Finish()
	cmp := span(root, "eval.compare", cid)
	acc := eval.Accuracy(x, gt)
	cmp.Finish()
	return acc
}

// replaySampled estimates accuracy exactly as RunCtx does, from the same
// derived fiber seed.
func replaySampled(root *obs.Span, cid int, space *ensemble.Space, model eval.TuckerModel, cfg m2td.Config) (acc float64, err error) {
	err = around(root, "eval.sampled", cid, func(s *obs.Span) error {
		s.Set("sims", int64(cfg.AccuracySampleSims))
		acc, err = eval.EstimateAccuracy(space, model, cfg.AccuracySampleSims, rand.New(rand.NewSource(cfg.Seed+100)))
		return err
	})
	return acc, err
}

// replayDMTD replays one dmtd-res16 campaign: for each engine, the
// partition, the engine's decomposition and the sampled accuracy, as the
// two RunCtx calls do.
func (b *bench) replayDMTD(ctx context.Context, cid int, sz sizes, seed int64) (float64, error) {
	cfg := campaignConfig(sz, seed)
	runtime.GC() // as before the untraced campaign
	t0 := time.Now()
	root := span(b.trace.Root(), "campaign", cid)
	defer root.Finish()
	space, err := eval.SpaceFor(string(system), sz.res, sz.res)
	if err != nil {
		return 0, err
	}
	ranks := tucker.UniformRanks(space.Order(), rank)
	var accs []float64
	for _, engine := range []string{"dist", "distnet"} {
		part, err := replayPartition(ctx, root, cid, space, seed)
		if err != nil {
			return 0, err
		}
		var res *core.Result
		err = around(root, engine, cid, func(s *obs.Span) error {
			if engine == "dist" {
				d, err := dist.Decompose(part, dist.Options{Options: core.Options{Method: core.SELECT, Ranks: ranks}, Workers: dmtdWorkers})
				if err != nil {
					return err
				}
				res = d.Result
				s.SetGauge("phase1_ns", d.Phase1.Total().Nanoseconds())
				s.SetGauge("phase2_ns", d.Phase2.Total().Nanoseconds())
				s.SetGauge("phase3_ns", d.Phase3.Total().Nanoseconds())
				return nil
			}
			dir, err := os.MkdirTemp("", "campaignbench-distnet-")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			d, err := distnet.Decompose(ctx, part, distnet.Options{
				Method: core.SELECT, Ranks: ranks, Workers: dmtdWorkers, Shards: dmtdWorkers,
				WorkDir: dir, Kill: faults.KillSpec{Seed: seed},
			})
			if err != nil {
				return err
			}
			res = d.Result
			for p, ps := range []distnet.PhaseStats{d.Phase1, d.Phase2, d.Phase3} {
				s.SetGauge(fmt.Sprintf("phase%d_ns", p+1), ps.Duration.Nanoseconds())
				s.Add("tasks", int64(ps.Tasks))
				s.AddGauge("requeues", int64(ps.Requeues))
				s.AddGauge("workers_lost", int64(ps.WorkersLost))
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
		acc, err := replaySampled(root, cid, space, eval.TuckerModel{Core: res.Core, Factors: res.Factors}, cfg)
		if err != nil {
			return 0, err
		}
		if err := b.checkCampaign(sz.res, seed, outcome{Accuracy: acc, NumSims: part.NumSims, CoreShape: res.Core.Shape}); err != nil {
			return 0, fmt.Errorf("replay %s: %w", engine, err)
		}
		accs = append(accs, acc)
	}
	if d := math.Abs(accs[0] - accs[1]); !(d <= tolerance) {
		return 0, fmt.Errorf("replay: engines' accuracies differ by %.3g", d)
	}
	return time.Since(t0).Seconds(), nil
}

// layerMetrics turns the recorded spans into the per-layer metrics: self
// times and counts per campaign, and the ratios between them. overhead is
// the traced replay's median campaign minus the untraced one.
func (b *bench) layerMetrics(overhead float64) {
	dur, self, counters, n := layerTotals(b.trace.Root().Data())
	if n == 0 {
		return
	}
	// The workload split, for a reader of the log: each layer's share of
	// the campaign spans.
	fmt.Fprintf(os.Stderr, "campaignbench: share of campaign time:")
	for _, name := range []string{"ensemble.ground_truth", "partition", "core", "dist", "distnet", "tensor.reconstruct", "eval.compare", "eval.sampled"} {
		if _, ok := self[name]; ok {
			fmt.Fprintf(os.Stderr, " %s %.1f%%", name, 100*self[name]/dur["campaign"])
		}
	}
	fmt.Fprintln(os.Stderr)
	per := func(x float64) float64 { return x / float64(n) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m := b.metrics
	m["ensemble.ground_truth_s"] = per(self["ensemble.ground_truth"])
	m["ensemble.ground_truth_sims"] = per(counters["ensemble.ground_truth"]["sims"])
	m["ensemble.ground_truth_sims_per_s"] = ratio(counters["ensemble.ground_truth"]["sims"], self["ensemble.ground_truth"])
	m["ensemble.reference_s"] = per(self["ensemble.reference"])
	m["partition.busy_s"] = per(self["partition"])
	m["partition.sims"] = per(counters["partition"]["sims"])
	m["partition.sims_per_s"] = ratio(counters["partition"]["sims"], self["partition"])
	m["partition.retry_frac"] = ratio(counters["partition"]["retried"], counters["partition"]["executed"])
	m["stitch.busy_s"] = per(self["stitch"])
	m["stitch.join_nnz"] = per(counters["stitch"]["join_nnz"])
	m["stitch.join_bytes_computed"] = per(counters["stitch"]["join_bytes"])
	m["core.busy_s"] = per(self["core"])
	m["core.factors_s"] = per(counters["core"]["factors_ns"]) / 1e9
	m["core.stitch_s"] = per(counters["core"]["stitch_ns"]) / 1e9
	m["core.project_s"] = per(counters["core"]["project_ns"]) / 1e9
	m["core.plan_hit_frac"] = ratio(counters["core"]["plan_hits"], counters["core"]["plan_hits"]+counters["core"]["plan_builds"])
	m["core.serial_busy_s"] = per(self["core.serial"])
	// Serial over default-Parallel core projection time, both calls on a
	// fresh partition in alternating order.
	m["core.speedup"] = ratio(counters["core.serial"]["project_ns"], counters["core"]["project_ns"])
	m["parallel.strips"] = per(counters["core"]["strips"])
	m["parallel.tasks"] = per(counters["core"]["tasks"])
	m["tensor.reconstruct_s"] = per(self["tensor.reconstruct"])
	m["tensor.reconstruct_cells"] = per(counters["tensor.reconstruct"]["cells"])
	m["eval.compare_s"] = per(self["eval.compare"])
	m["eval.sampled_s"] = per(self["eval.sampled"])
	m["eval.sampled_sims"] = per(counters["eval.sampled"]["sims"])
	m["dist.busy_s"] = per(self["dist"])
	m["distnet.busy_s"] = per(self["distnet"])
	for _, e := range []string{"dist", "distnet"} {
		phases := 0.0
		for p := 1; p <= 3; p++ {
			v := per(counters[e][fmt.Sprintf("phase%d_ns", p)]) / 1e9
			m[fmt.Sprintf("%s.phase%d_s", e, p)] = v
			phases += v
		}
		if e == "distnet" {
			m["distnet.overhead_s"] = m["distnet.busy_s"] - phases
		}
	}
	m["distnet.requeue_frac"] = ratio(counters["distnet"]["requeues"], counters["distnet"]["tasks"])
	m["distnet.workers_lost"] = counters["distnet"]["workers_lost"]
	m["trace.overhead_s"] = overhead
}
