package main

// The traced run's replay: a workload's exact operation sequence replayed
// in-process, calling each layer's public function in the order the served
// or CLI path calls it, with a span around every call. The served path runs
// whole through serve.Server's handler (an httptest recorder, no socket);
// the layers inside it are then called directly, on a separate cache, so
// their spans attribute the handler's time: what the portfolio cascade ran
// live is re-run stage by stage, what the flat analysis ran is re-run
// component by component. The same replay runs twice — bare, then traced —
// and the wall-time difference is the tracing overhead.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"airct/internal/acyclicity"
	"airct/internal/chase"
	"airct/internal/core"
	"airct/internal/guarded"
	"airct/internal/logic"
	"airct/internal/parser"
	"airct/internal/portfolio"
	"airct/internal/serve"
	"airct/internal/sticky"
	"airct/internal/tgds"
)

// Budgets shared by termcheckd and termcheck (their defaults).
const (
	guardedBudget = 2000
	stickyStates  = 200_000
	mfaSteps      = 20_000
	existsStates  = 10_000
	existsAtoms   = 200
	chaseMaxSteps = 100_000
)

// counts are the work counters read from the layers' returned structs.
type counts struct {
	served                int
	decisions             int
	decidedTier           [3]int
	stagesAttempted       int
	probes, probesDecided int
	probeSeeds            int
	seedsTried            int
	stickyStates          int
	runSteps, runEq       int
	runEnqueued           int
	runSkipped            int
	runActivity           int
	searchStates          int
	searchMemo            int
	searchRepairs         int
	searchRebuilds        int
	// Cache counters of the CLI's per-invocation caches (cli-batch).
	cacheHits, cacheMisses int64
	cacheBytes, evictions  int64
	snapshotBytes          int64
}

type replayer struct {
	g     *generator
	t     *tracer
	tally *tally
	c     counts
	ctx   context.Context

	srv        *serve.Server // served workloads: the in-process termcheckd
	layerCache *chase.Cache  // the directly called layers' cache (served workloads)
	cacheFile  string        // cli-batch: the batch's portfolio cache
}

// newReplayer builds fresh replay state for the workload in dir.
func newReplayer(g *generator, t *tracer, dir string) (*replayer, error) {
	r := &replayer{g: g, t: t, tally: newTally(), ctx: context.Background()}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	switch g.workload {
	case "cold-decide":
		// termcheckd's defaults: a fresh cache, one worker.
		r.srv = serve.New(serve.Config{Workers: 1})
		r.layerCache = chase.NewCache()
	case "warm-replay":
		if err := r.setupWarm(filepath.Join(dir, "warm.chasecache")); err != nil {
			return nil, err
		}
	case "cli-batch":
		r.cacheFile = filepath.Join(dir, "portfolio.chasecache")
	}
	return r, nil
}

// setupWarm mirrors the end-to-end set-up in-process: ask every pool
// program once, snapshot the cache, and restore it twice — once for the
// handler's server, once for the directly called layers.
func (r *replayer) setupWarm(file string) error {
	fill := serve.New(serve.Config{Workers: 1})
	for ci := 0; ci < r.g.poolSize(); ci++ {
		o := r.g.poolOp(ci)
		path, body, err := requestBody(&o)
		if err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		fill.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if err := checkResponse(&o, rec.Code, rec.Body.Bytes()); err != nil {
			r.tally.fail("replay set-up %s/%s: %v", o.Kind, o.Class, err)
		}
	}
	sc, end := r.t.begin(r.ctx, -1)
	defer end()
	if err := r.save(sc, fill.Cache(), file); err != nil {
		return err
	}
	served, err := r.load(sc, file)
	if err != nil {
		return err
	}
	if r.layerCache, err = r.load(sc, file); err != nil {
		return err
	}
	r.srv = serve.New(serve.Config{Cache: served, Workers: 1})
	return nil
}

// stats reads the in-process server's /v1/stats through its handler, as a
// client of termcheckd would; nil on cli-batch, which runs no server.
func (r *replayer) stats() (*serve.StatsResponse, error) {
	if r.srv == nil {
		return nil, nil
	}
	rec := httptest.NewRecorder()
	r.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st serve.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return nil, fmt.Errorf("/v1/stats: status %d: %w", rec.Code, err)
	}
	return &st, nil
}

func (r *replayer) save(sc scope, c *chase.Cache, file string) error {
	var err error
	r.t.do(sc, "chase.snapshot_save", func() { err = chase.SaveCacheFile(c, file) })
	if err != nil {
		return fmt.Errorf("save snapshot: %w", err)
	}
	fi, err := os.Stat(file)
	if err != nil {
		return err
	}
	r.c.snapshotBytes = fi.Size()
	return nil
}

// load restores a snapshot the way serve.OpenCacheFile does: a missing
// file starts cold.
func (r *replayer) load(sc scope, file string) (*chase.Cache, error) {
	var c *chase.Cache
	var err error
	r.t.do(sc, "chase.snapshot_load", func() { c, _, err = chase.LoadCacheFile(file) })
	switch {
	case err == nil:
		return c, nil
	case os.IsNotExist(err):
		return chase.NewCache(), nil
	}
	return nil, fmt.Errorf("load snapshot: %w", err)
}

// interleave replays ops through both replayers, one operation at a time
// and alternating which goes first, until dur has passed. It returns how
// many operations ran and each replayer's total wall time: interleaving
// exposes the bare and the traced replay to the same host conditions, so
// their ratio is the tracing overhead rather than the host's drift.
func interleave(bare, traced *replayer, ops []op, dur time.Duration) (n int, bareWall, tracedWall time.Duration) {
	start := time.Now()
	for n < len(ops) && time.Since(start) < dur {
		first, second := bare, traced
		if n%2 == 1 {
			first, second = traced, bare
		}
		t0 := time.Now()
		first.op(&ops[n])
		t1 := time.Now()
		second.op(&ops[n])
		d1, d2 := t1.Sub(t0), time.Since(t1)
		if first == bare {
			bareWall, tracedWall = bareWall+d1, tracedWall+d2
		} else {
			bareWall, tracedWall = bareWall+d2, tracedWall+d1
		}
		n++
	}
	return n, bareWall, tracedWall
}

// op replays one operation and tallies its outcome.
func (r *replayer) op(o *op) {
	sc, end := r.t.begin(r.ctx, o.Seq)
	defer end()
	var err error
	if o.Kind.served() {
		err = r.served(sc, o)
	} else {
		err = r.cli(sc, o)
	}
	r.tally.record(o, sample{}, err)
}

func (r *replayer) parse(sc scope, o *op) (*parser.Program, error) {
	var prog *parser.Program
	var err error
	r.t.do(sc, "parser.parse", func() { prog, err = parser.Parse(o.Program) })
	return prog, err
}

// served replays one request: wire codec, the whole handler, then the
// layers the handler called.
func (r *replayer) served(sc scope, o *op) error {
	r.c.served++
	var path string
	var body []byte
	var err error
	r.t.do(sc, "serve.json", func() {
		if path, body, err = requestBody(o); err != nil {
			return
		}
		if o.Kind == kindExists {
			err = json.Unmarshal(body, &serve.ExistsRequest{})
		} else {
			err = json.Unmarshal(body, &serve.DecideRequest{})
		}
	})
	if err != nil {
		return err
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	r.t.do(sc, "serve.handler", func() { r.srv.Handler().ServeHTTP(rec, req) })
	r.t.do(sc, "serve.json", func() {
		var v any = &serve.DecideResponse{}
		if o.Kind == kindExists {
			v = &serve.ExistsResponse{}
		}
		if err = json.Unmarshal(rec.Body.Bytes(), v); err == nil {
			_, err = json.Marshal(v)
		}
	})
	if err := checkResponse(o, rec.Code, rec.Body.Bytes()); err != nil {
		return err
	}
	prog, err := r.parse(sc, o)
	if err != nil {
		return err
	}
	r.t.do(sc, "tgds.fingerprint", func() {
		prog.TGDs.Fingerprint()
		logic.FingerprintAtoms(prog.Database.Atoms())
	})
	switch o.Kind {
	case kindPortfolio:
		return r.portfolio(sc, o, prog.TGDs, r.layerCache, 1)
	case kindDecide:
		return r.flat(sc, o, prog.TGDs, r.layerCache, 1)
	}
	return r.search(sc, o, prog, r.layerCache)
}

// cli replays one CLI invocation in the order the command runs it.
func (r *replayer) cli(sc scope, o *op) error {
	prog, err := r.parse(sc, o)
	if err != nil {
		return err
	}
	switch o.Kind {
	case kindChase:
		return r.chase(sc, o, prog)
	case kindTermcheck:
		// termcheck's guarded pool defaults to GOMAXPROCS workers.
		return r.flat(sc, o, prog.TGDs, nil, 0)
	case kindTermcheckExists:
		return r.search(sc, o, prog, nil)
	}
	cache, err := r.load(sc, r.cacheFile)
	if err != nil {
		return err
	}
	if err := r.portfolio(sc, o, prog.TGDs, cache, 0); err != nil {
		return err
	}
	st := cache.Stats()
	r.c.cacheHits += st.Hits
	r.c.cacheMisses += st.Misses
	r.c.evictions += st.Evictions
	r.c.cacheBytes = st.Bytes
	return r.save(sc, cache, r.cacheFile)
}

func verdictErr(o *op, got core.Conclusion) error {
	if got.String() != o.Verdict {
		return fmt.Errorf("got verdict %s, want %s", got, o.Verdict)
	}
	return nil
}

// portfolio runs the staged cascade, then re-runs every stage it ran live.
// guardedWorkers is the guarded seed pool the front end configures
// (termcheckd: 1; termcheck: 0, i.e. GOMAXPROCS).
func (r *replayer) portfolio(sc scope, o *op, set *tgds.Set, cache *chase.Cache, guardedWorkers int) error {
	opts := portfolio.Options{
		Guarded:    guarded.DecideOptions{MaxSteps: guardedBudget, Workers: guardedWorkers},
		Sticky:     sticky.DecideOptions{MaxStates: stickyStates},
		ProbeSteps: guarded.DefaultProbeSteps,
		Workers:    1,
		Cache:      cache,
	}
	var res *portfolio.Result
	var err error
	r.t.do(sc, "portfolio.analyze", func() { res, err = portfolio.Analyze(r.ctx, set, opts) })
	if err != nil {
		return err
	}
	r.c.decisions++
	for _, s := range res.Stages {
		if strings.HasPrefix(s.Detail, "skipped") {
			continue
		}
		r.c.stagesAttempted++
		if s.Decided {
			r.c.decidedTier[s.Tier]++
		}
	}
	if err := verdictErr(o, res.Conclusion); err != nil {
		return err
	}
	if res.CacheHit {
		return nil // nothing ran live
	}
	var tier0 []string
	for _, s := range res.Stages {
		if strings.HasPrefix(s.Detail, "skipped") {
			continue
		}
		switch s.Stage {
		case "full", "weak-acyclicity", "joint-acyclicity", "jointree-prune":
			tier0 = append(tier0, s.Stage)
			continue
		}
		r.tier0(sc, set, tier0)
		tier0 = nil
		gopts := guarded.DecideOptions{MaxSteps: guardedBudget, Workers: guardedWorkers}
		switch s.Stage {
		case "mfa":
			r.mfa(sc, set)
		case "probe":
			var out guarded.ProbeOutcome
			r.t.do(sc, "guarded.probe", func() { out, err = guarded.ProbeSeeds(r.ctx, set, gopts, guarded.DefaultProbeSteps) })
			if err != nil {
				return err
			}
			r.c.probes++
			r.c.probeSeeds += out.Seeds
			if out.Decided {
				r.c.probesDecided++
			}
		case "sticky":
			if err := r.sticky(sc, set, nil); err != nil {
				return err
			}
		case "guarded":
			if err := r.guarded(sc, set, gopts); err != nil {
				return err
			}
		}
	}
	r.tier0(sc, set, tier0)
	return nil
}

// tier0 re-runs the attempted Tier 0 checks as one span.
func (r *replayer) tier0(sc scope, set *tgds.Set, stages []string) {
	if len(stages) == 0 {
		return
	}
	r.t.do(sc, "acyclicity.tier0", func() {
		for _, name := range stages {
			switch name {
			case "full":
				set.IsFull()
			case "weak-acyclicity":
				acyclicity.IsWeaklyAcyclic(set)
			case "joint-acyclicity":
				acyclicity.IsJointlyAcyclic(set)
			case "jointree-prune":
				acyclicity.PruneNeverFiring(set)
			}
		}
	})
}

func (r *replayer) mfa(sc scope, set *tgds.Set) {
	r.t.do(sc, "acyclicity.mfa", func() { acyclicity.CheckMFA(set, mfaSteps) })
}

func (r *replayer) sticky(sc scope, set *tgds.Set, cache *chase.Cache) error {
	var v *sticky.Verdict
	var err error
	r.t.do(sc, "sticky.decide", func() {
		v, err = sticky.DecideContext(r.ctx, set, sticky.DecideOptions{MaxStates: stickyStates, Cache: cache})
	})
	if err == nil {
		r.c.stickyStates += v.StatesExplored
	}
	return err
}

func (r *replayer) guarded(sc scope, set *tgds.Set, opts guarded.DecideOptions) error {
	var v *guarded.Verdict
	var err error
	r.t.do(sc, "guarded.decide", func() { v, err = guarded.DecideContext(r.ctx, set, opts) })
	if err == nil {
		r.c.seedsTried += v.SeedsTried
	}
	return err
}

// flat runs core.AnalyzeContext, then re-runs the components it ran: the
// baselines (which it re-runs even on a warm cache) and the deciders.
func (r *replayer) flat(sc scope, o *op, set *tgds.Set, cache *chase.Cache, guardedWorkers int) error {
	gopts := guarded.DecideOptions{MaxSteps: guardedBudget, Workers: guardedWorkers, Cache: cache}
	var rep *core.Report
	var err error
	r.t.do(sc, "core.analyze", func() {
		rep, err = core.AnalyzeContext(r.ctx, set, core.Options{
			GuardedOptions: gopts,
			StickyOptions:  sticky.DecideOptions{MaxStates: stickyStates, Cache: cache},
		})
	})
	if err != nil {
		return err
	}
	if err := verdictErr(o, rep.Conclusion); err != nil {
		return err
	}
	r.tier0(sc, set, []string{"weak-acyclicity", "joint-acyclicity", "jointree-prune"})
	r.mfa(sc, set)
	if rep.StickyVerdict != nil {
		if err := r.sticky(sc, set, cache); err != nil {
			return err
		}
	}
	if rep.GuardedVerdict != nil {
		return r.guarded(sc, set, gopts)
	}
	return nil
}

// search runs the ∀∃ derivation search with the front ends' defaults.
func (r *replayer) search(sc scope, o *op, prog *parser.Program, cache *chase.Cache) error {
	var res *chase.ExistsResult
	r.t.do(sc, "chase.search", func() {
		res = chase.SearchTerminatingDerivationContext(r.ctx, prog.Database, prog.TGDs, chase.SearchOptions{
			MaxStates: existsStates, MaxAtoms: existsAtoms, Strategy: chase.SmallestFirst, Workers: 1, Cache: cache,
		})
	})
	r.c.searchStates += res.StatesVisited
	r.c.searchMemo += res.Stats.MemoHits
	r.c.searchRepairs += res.Stats.IndexRepairs
	r.c.searchRebuilds += res.Stats.IndexRebuilds
	if !res.Found || res.StatesVisited != o.States {
		return fmt.Errorf("got found=%t after %d states, want found after %d", res.Found, res.StatesVisited, o.States)
	}
	return nil
}

// chase runs the engine exactly as `chase -quiet` does.
func (r *replayer) chase(sc scope, o *op, prog *parser.Program) error {
	var run *chase.Run
	r.t.do(sc, "chase.run", func() {
		run = chase.RunChase(prog.Database, prog.TGDs, chase.Options{
			Variant: chase.Restricted, Strategy: chase.FIFO, MaxSteps: chaseMaxSteps, DropSteps: true,
		})
	})
	r.c.runSteps += run.StepsTaken
	r.c.runEq += run.EqualitySteps
	r.c.runEnqueued += run.Stats.TriggersEnqueued
	r.c.runSkipped += run.Stats.TriggersSkipped
	r.c.runActivity += run.Stats.ActivityChecks
	if !run.Terminated() || run.Final.Len() != o.Atoms {
		return fmt.Errorf("got %s with %d atoms, want fixpoint with %d", run.Reason, run.Final.Len(), o.Atoms)
	}
	return nil
}

// runtimeStats are runtime/metrics readings over one replay.
type runtimeStats struct {
	gcShare    float64
	heapPeakMB float64
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// watchRuntime samples the heap every few milliseconds until stopped and
// then reports the GC's share of the CPU the process spent in between.
func watchRuntime() (stop func() runtimeStats) {
	before := readRuntime()
	done := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if h := readRuntime()[2].Value.Uint64(); h > peak {
				peak = h
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() runtimeStats {
		close(done)
		wg.Wait()
		after := readRuntime()
		gc := after[0].Value.Float64() - before[0].Value.Float64()
		user := after[1].Value.Float64() - before[1].Value.Float64()
		return runtimeStats{gcShare: ratio(gc, gc+user), heapPeakMB: float64(peak) / (1 << 20)}
	}
}
