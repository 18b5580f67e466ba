package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	m2td "repro"
	"repro/api"
	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

const (
	serveClients = 2
	// predictsPerResult is how many Predict reads follow each result.
	predictsPerResult = 3
	// recentSpecs is how far back a repeat submission looks, so repeats
	// hit in-flight jobs (coalesced) and the LRU rather than the store.
	recentSpecs = 8
	// probePoints is the size of the fixed set of parameter points the
	// clients predict at. Each client walks all of them in a seeded order
	// within its first ~90 results, so the accuracy of the served model
	// is scored on the same points in every run.
	probePoints = 256
)

var probes = predictParams(rand.New(rand.NewSource(1)), probePoints)

// servedServer is a self-hosted campaign server on a loopback port over a
// temporary store.
type servedServer struct {
	srv    *serve.Server
	http   *http.Server
	dir    string
	url    string
	cancel context.CancelFunc
	served chan error
}

func startServer() (*servedServer, error) {
	dir, err := os.MkdirTemp("", "campaignbench-store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv, err := serve.New(serve.Options{Store: st, Registry: obs.NewRegistry()})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	s := &servedServer{
		srv:    srv,
		http:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		dir:    dir,
		url:    "http://" + ln.Addr().String(),
		cancel: cancel,
		served: make(chan error, 1),
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// close drains the campaign server, stops the HTTP server, waits for its
// serve loop to return and removes the store.
func (s *servedServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if herr := s.http.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	s.cancel()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// spec is the fresh-campaign spec: API defaults at the workload's
// resolution, accuracy skipped, and the given seed.
func spec(res int, seed int64) api.CampaignSpec {
	return api.CampaignSpec{Resolution: res, SkipAccuracy: true, Seed: seed}
}

// served collects what the clients measured.
type served struct {
	mu        sync.Mutex
	seen      map[int64]bool
	specs     []int64 // admitted fresh seeds, in admission order
	fresh     []float64
	hits      []float64
	freshOdd  []float64 // fresh latencies of untraced iterations (traced run)
	submitMS  []float64
	resultMS  []float64
	predictMS []float64
	queueMS   []float64
	runMS     []float64
	repeats   int
	completed int
	nextCID   int
	// fibers are the predictions with their parameters, for accuracy.
	fibers []fiber
}

type fiber struct {
	seed   int64
	probe  int // index into probes
	values []float64
}

// client is one closed-loop client's connection and seeded input stream.
type client struct {
	api    *api.Client
	rng    *rand.Rand
	order  []int // probe order
	probes int   // predictions made
	fresh  int   // position of the fresh submission in the current block of 4
}

// freshSeed returns a seed no earlier submission of this run used.
func (s *served) freshSeed(rng *rand.Rand) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		seed := rng.Int63n(1<<40) + 1
		if !s.seen[seed] {
			s.seen[seed] = true
			return seed
		}
	}
}

// publish makes an admitted fresh seed available to repeats. It runs only
// after the server accepted the submission, so a repeat can never be the
// first submission of its spec.
func (s *served) publish(seed int64) {
	s.mu.Lock()
	s.specs = append(s.specs, seed)
	s.mu.Unlock()
}

// repeatSeed returns one of the most recently admitted fresh seeds.
func (s *served) repeatSeed(pick int) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.specs)
	seed := s.specs[n-1-pick%min(n, recentSpecs)]
	s.repeats++
	return seed
}

func (s *served) add(dst *[]float64, v float64) {
	s.mu.Lock()
	*dst = append(*dst, v)
	s.mu.Unlock()
}

func runServe(b *bench) error {
	ctx := context.Background()
	res := b.sizes().res
	var srv *servedServer
	if err := b.setup(func(ctx context.Context) error {
		if srv != nil {
			err := srv.close()
			srv = nil
			if err != nil {
				return err
			}
		}
		var err error
		if srv, err = startServer(); err != nil {
			return err
		}
		// One untimed campaign and prediction, with a seed no client draws.
		cl := api.NewClient(srv.url)
		sub, err := cl.Submit(ctx, api.SubmitRequest{Tenant: "warm-up", Campaign: spec(res, -1)})
		if err != nil {
			return err
		}
		if _, err := cl.Wait(ctx, sub.JobID, 5*time.Second); err != nil {
			return err
		}
		_, err = cl.Predict(ctx, sub.JobID, predictParams(rand.New(rand.NewSource(b.seed)), 1)[0])
		return err
	}); err != nil {
		if srv != nil {
			srv.close()
		}
		return err
	}
	defer func() {
		if err := srv.close(); err != nil {
			b.failf("server shutdown: %v", err)
		}
	}()
	control := api.NewClient(srv.url)
	before, err := control.Stats(ctx)
	if err != nil {
		return err
	}

	s := &served{seen: map[int64]bool{}}
	sampler := startRSSSampler()
	defer sampler.close()
	start := time.Now()
	var wg sync.WaitGroup
	var errMu sync.Mutex
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(b.seed*serveClients + int64(c)))
			cl := &client{api: api.NewClient(srv.url), rng: rng, order: rng.Perm(probePoints)}
			for i := 0; i == 0 || time.Since(start) < b.seconds; i++ {
				ctx, cancel := context.WithTimeout(ctx, opTimeout)
				err := b.serveOnce(ctx, cl, s, res, i)
				cancel()
				errMu.Lock()
				b.attempted++
				if err != nil {
					b.failf("serve client %d op %d: %v", c, i, err)
				}
				errMu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, err := control.Stats(ctx)
	if err != nil {
		return err
	}
	freshCount := len(s.seen)
	if got := after.JobsDone - before.JobsDone; got != int64(freshCount) {
		b.failf("server ran %d campaigns for %d fresh specs: a duplicate was recomputed or a fresh spec was absorbed", got, freshCount)
	}
	if failed := after.JobsFailed - before.JobsFailed; failed != 0 {
		b.failf("%d served campaigns failed", failed)
	}
	if err := b.checkParity(ctx, res, s); err != nil {
		b.failf("parity with in-process RunCtx: %v", err)
	}

	if b.trace != nil {
		b.layerMetrics(median(s.fresh)/1e3 - median(s.freshOdd)/1e3)
		m := b.metrics
		m["api.submit_ms.p50"] = median(s.submitMS)
		m["api.result_ms.p50"] = median(s.resultMS)
		m["api.predict_ms.p50"] = median(s.predictMS)
		all := append(append([]float64(nil), s.fresh...), s.freshOdd...)
		m["fresh_campaign_ms.p50"] = median(all)
		m["fresh_campaign_ms.p90"] = percentile(all, 0.9)
		m["hit_campaign_ms.p50"] = median(s.hits)
		m["predict_ms.p90"] = percentile(s.predictMS, 0.9)
		m["served_campaigns_per_s"] = float64(s.completed) / elapsed.Seconds()
		m["serve.queue_wait_ms.p50"] = median(s.queueMS)
		m["serve.queue_wait_ms.p90"] = percentile(s.queueMS, 0.9)
		m["serve.run_ms.p50"] = median(s.runMS)
		m["serve.run_ms.p90"] = percentile(s.runMS, 0.9)
		absorbed := (after.Coalesced - before.Coalesced) + (after.CacheHits - before.CacheHits) + (after.StoreHits - before.StoreHits)
		if s.repeats > 0 {
			m["serve.absorbed_frac"] = float64(absorbed) / float64(s.repeats)
		}
		m["serve.jobs_done"] = float64(after.JobsDone - before.JobsDone)
		m["serve.coalesced"] = float64(after.Coalesced - before.Coalesced)
		m["serve.cache_hits"] = float64(after.CacheHits - before.CacheHits)
		m["serve.queue_rejected"] = float64(after.QueueRejected - before.QueueRejected)
		return nil
	}
	acc, err := predictionAccuracy(res, s.fibers)
	if err != nil {
		return err
	}
	fresh := make([]float64, len(s.fresh))
	for i, ms := range s.fresh {
		fresh[i] = ms / 1e3
	}
	peaks := sampler.windowPeaks(start, start.Add(elapsed), 4*time.Second)
	b.report(fresh, []float64{acc}, peaks, s.predictMS, s.completed, elapsed)
	return nil
}

// serveOnce is one closed-loop iteration of a client: a submission (fresh
// once in every block of 4, at a seeded position, otherwise a repeat of a
// recent spec), a wait until its result is readable, and a few
// predictions. In a traced run, spans are recorded on even iterations
// only, so the odd ones give the untraced baseline for trace.overhead_s.
func (b *bench) serveOnce(ctx context.Context, cl *client, s *served, res, i int) error {
	// Draw every input up front so the sequence depends on the seed only.
	rng := cl.rng
	if i%4 == 0 {
		cl.fresh = rng.Intn(4)
	}
	pick := rng.Intn(recentSpecs)
	tenant := fmt.Sprintf("tenant-%d", rng.Intn(4))
	var points []int
	for k := 0; k < predictsPerResult; k++ {
		points = append(points, cl.order[cl.probes%probePoints])
		cl.probes++
	}

	s.mu.Lock()
	fresh := i%4 == cl.fresh || len(s.specs) == 0
	cid := s.nextCID
	s.nextCID++
	s.mu.Unlock()
	var seed int64
	if fresh {
		seed = s.freshSeed(rng)
	} else {
		seed = s.repeatSeed(pick)
	}
	var tr *obs.Span // nil on untraced iterations
	if i%2 == 0 {
		tr = b.trace.Root()
	}

	root := span(tr, "campaign", cid)
	t0 := time.Now()
	sp := span(root, "api.submit", cid)
	sub, err := cl.api.Submit(ctx, api.SubmitRequest{Tenant: tenant, Campaign: spec(res, seed)})
	sp.Finish()
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	s.add(&s.submitMS, msSince(t0))
	absorbed := sub.Coalesced || sub.CacheHit || sub.StoreHit
	if fresh && absorbed {
		return fmt.Errorf("fresh seed %d was absorbed: %+v", seed, sub)
	}
	if fresh {
		s.publish(seed)
	}
	if !fresh && !absorbed {
		return fmt.Errorf("duplicate of seed %d was recomputed: %+v", seed, sub)
	}
	sp = span(root, "api.wait", cid)
	st, err := cl.api.Wait(ctx, sub.JobID, 5*time.Second)
	sp.Finish()
	if err != nil {
		return fmt.Errorf("wait: %w", err)
	}
	if st.State != api.StateDone {
		return fmt.Errorf("job %s ended %s: %v", sub.JobID, st.State, st.Error)
	}
	t1 := time.Now()
	sp = span(root, "api.result", cid)
	out, err := cl.api.Result(ctx, sub.JobID)
	sp.Finish()
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	latency := msSince(t0)
	root.Finish()
	s.add(&s.resultMS, msSince(t1))
	info := out.Decomposition
	if info == nil {
		return fmt.Errorf("job %s has no decomposition", sub.JobID)
	}
	if err := checkShape(res, outcome{NumSims: info.NumSims, CoreShape: info.CoreShape}); err != nil {
		return fmt.Errorf("seed %d: %w", seed, err)
	}
	switch {
	case fresh && (b.trace == nil || i%2 == 0):
		s.add(&s.fresh, latency)
	case fresh:
		s.add(&s.freshOdd, latency)
	default:
		s.add(&s.hits, latency)
	}
	if fresh && st.StartedAtMS > 0 {
		s.add(&s.queueMS, float64(st.StartedAtMS-st.SubmittedAtMS))
		s.add(&s.runMS, float64(st.FinishedAtMS-st.StartedAtMS))
		root.SetGauge("queue_wait_ms", st.StartedAtMS-st.SubmittedAtMS)
		root.SetGauge("run_ms", st.FinishedAtMS-st.StartedAtMS)
	}

	for _, p := range points {
		t := time.Now()
		sp := span(tr, "api.predict", cid)
		pr, err := cl.api.Predict(ctx, sub.JobID, probes[p])
		sp.Finish()
		if err != nil {
			return fmt.Errorf("predict: %w", err)
		}
		s.add(&s.predictMS, msSince(t))
		if err := checkFiber(pr.Values, res); err != nil {
			return err
		}
		s.mu.Lock()
		s.fibers = append(s.fibers, fiber{seed: seed, probe: p, values: pr.Values})
		s.mu.Unlock()
	}
	s.mu.Lock()
	s.completed++
	s.mu.Unlock()
	return nil
}

// checkParity reruns the first served spec in-process with the config the
// server builds from it and requires bit-identical predictions.
func (b *bench) checkParity(ctx context.Context, res int, s *served) error {
	if len(s.fibers) == 0 {
		return fmt.Errorf("no prediction was served")
	}
	f := s.fibers[0]
	rep, err := runCampaign(ctx, m2td.Config{Resolution: res, Seed: f.seed, SkipAccuracy: true})
	if err != nil {
		return err
	}
	for _, g := range s.fibers {
		if g.seed != f.seed {
			continue
		}
		want, err := rep.Predict(probes[g.probe])
		if err != nil {
			return err
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(g.values[i]) {
				return fmt.Errorf("seed %d: served prediction %v, in-process %v", f.seed, g.values, want)
			}
		}
	}
	return nil
}

// predictionAccuracy is the paper's accuracy metric over the served
// predictions: 1 - ||predicted - simulated|| / ||simulated||, where the
// first served prediction at each probe point is compared with a
// simulation at the same parameters.
func predictionAccuracy(res int, fibers []fiber) (float64, error) {
	sys, err := dynsys.ByName(string(system))
	if err != nil {
		return 0, err
	}
	ref := ensemble.NewSpace(sys, res, res).Reference()
	var diff, norm float64
	scored := map[int]bool{}
	for _, f := range fibers {
		if scored[f.probe] {
			continue
		}
		scored[f.probe] = true
		truth := dynsys.CellValues(sys, probes[f.probe], ref)
		for i, y := range truth {
			d := f.values[i] - y
			diff += d * d
			norm += y * y
		}
	}
	if norm == 0 {
		return 0, fmt.Errorf("no served prediction to score")
	}
	return 1 - math.Sqrt(diff)/math.Sqrt(norm), nil
}
