// Command perfbench is the repository's benchmark: seeded workloads against
// the real termcheckd, termcheck and chase binaries, every output checked
// against the generator's expected answer, plus a traced in-process replay
// that attributes time to the layers. WORKLOADS.md gives the rationale;
// run.sh builds everything and runs it:
//
//	bash perfbench/run.sh --workload cold-decide --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the gated end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1). The lines before it report every
// metric by name with its unit, ungated ones included, the provenance of
// the run, and every failed operation with its sequence index.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/trace"
	"sort"
	"strings"
	"syscall"
	"time"

	"airct/internal/parser"
	"airct/internal/serve"
)

// setupRuns is how many set-ups each workload measures per run; setup_s
// is the median.
var setupRuns = map[string]int{"cold-decide": 9, "warm-replay": 5, "cli-batch": 9}

// prefillPerSecond bounds how many operations a workload completes per
// second; that many are generated before the timed phase so generation
// stays out of it (a faster run generates the rest on demand).
var prefillPerSecond = map[string]int{"cold-decide": 1000, "warm-replay": 2000, "cli-batch": 150}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	HostCPUs   int     `json:"host_cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Sequence   string  `json:"sequence_digest"`
	Consumed   int     `json:"operations_consumed"`
	Attempted  int     `json:"attempted"`
	Succeeded  int     `json:"succeeded"`
	Failed     int     `json:"failed"`
}

type outcome struct {
	attempted, failed int
	metrics           map[string]metric
}

func main() { os.Exit(run()) }

func run() int {
	workloadFlag := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", 1, "workload seed: one seed always yields the same operation sequence")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	traceFlag := flag.Int("trace", 0, "1: the traced in-process replay (per-layer metrics) instead of the end-to-end run")
	bin := flag.String("bin", "", "directory holding the termcheckd, termcheck and chase binaries (required)")
	work := flag.String("work", "", "scratch directory for caches, inputs and span files (required)")
	commit := flag.String("commit", "unknown", "commit of the code under test, for the provenance")
	execTrace := flag.String("exec-trace", "", "with --trace 1, also write a runtime/trace execution trace of the traced replay here (go tool trace)")
	flag.Parse()
	names := []string{*workloadFlag}
	if *workloadFlag == "all" {
		names = workloadNames
	}
	if *bin == "" || *work == "" || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -bin, -work, --seconds > 0 and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e := newEnv(*bin, *work)
	total := outcome{metrics: map[string]metric{}}
	for _, name := range names {
		prov := provenance{
			Workload: name, Seed: *seed, Seconds: *seconds, Trace: *traceFlag == 1,
			HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: *commit,
		}
		out, err := runWorkload(e, &prov, *execTrace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		b, _ := json.Marshal(prov) // plain struct: cannot fail
		fmt.Printf("provenance %s\n", b)
		total.attempted += out.attempted
		total.failed += out.failed
		for k, v := range out.metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			total.metrics[k] = v
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{total.failed == 0, total.attempted, total.failed, total.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func runWorkload(e *env, prov *provenance, execTrace string) (outcome, error) {
	g, err := newGenerator(prov.Workload, prov.Seed)
	if err != nil {
		return outcome{}, err
	}
	if err := selfTest(prov.Workload, prov.Seed); err != nil {
		return outcome{}, fmt.Errorf("generator self-test: %w", err)
	}
	dur := time.Duration(prov.Seconds * float64(time.Second))
	ops := g.prefix(int(prov.Seconds * float64(prefillPerSecond[prov.Workload])))
	var out outcome
	var t *tally
	if prov.Trace {
		out, t, prov.Consumed, err = traced(e, g, ops, dur, execTrace, *prov)
	} else {
		out, t, prov.Consumed, err = endToEnd(e, g, ops, dur)
	}
	if err != nil {
		return outcome{}, err
	}
	consumed := g.prefix(prov.Consumed)
	prov.Sequence = digest(consumed)
	if err := uniqueFingerprints(g, consumed); err != nil {
		t.fail("generator: %v", err)
	}
	out.failed = len(t.failures)
	prov.Attempted, prov.Failed = out.attempted, out.failed
	prov.Succeeded = out.attempted - out.failed
	if prov.Succeeded < 0 {
		prov.Succeeded = 0
	}
	for _, f := range t.failures {
		fmt.Printf("FAILED %s %s\n", prov.Workload, f)
	}
	names := make([]string, 0, len(out.metrics))
	for k := range out.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %s %s %.6g %s\n", prov.Workload, k, out.metrics[k].Value, out.metrics[k].Unit)
	}
	return out, nil
}

// tailPercentile is the highest percentile with at least ten samples beyond
// it at the workload's run size: p99 for the served workloads (thousands
// of requests), p95 for cli-batch (hundreds of child processes).
func tailPercentile(workloadName string) (float64, string) {
	if workloadName == "cli-batch" {
		return 0.95, "latency_p95_ms"
	}
	return 0.99, "latency_p99_ms"
}

// endToEnd runs the workload against the real binaries and computes the
// end-to-end metrics.
func endToEnd(e *env, g *generator, ops []op, dur time.Duration) (outcome, *tally, int, error) {
	var res *e2eResult
	var err error
	// The load generator's own collector competes with the daemon for the
	// same CPUs; a lazier collector keeps it out of the measurement. (The
	// traced replay runs the program's code in-process and keeps the
	// default.)
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	client0 := selfCPU()
	if g.workload == "cli-batch" {
		res, err = e.runCLI(g, ops, dur, setupRuns[g.workload])
	} else {
		res, err = e.runServed(g, ops, dur, setupRuns[g.workload])
	}
	if err != nil {
		return outcome{}, nil, 0, err
	}
	fmt.Printf("client-cpu %s %.3fs over the run\n", g.workload, (selfCPU() - client0).Seconds())
	t := res.tally
	if len(t.samples) == 0 {
		return outcome{}, nil, 0, errors.New("no operation completed")
	}
	p, tailName := tailPercentile(g.workload)
	ws := splitWindows(res, dur)
	var p50s, tails, rates, unstolen, cpus []float64
	for _, w := range ws {
		n := float64(len(w.lat))
		p50s = append(p50s, ms(percentile(w.lat, 0.5)))
		tails = append(tails, ms(percentile(w.lat, p)))
		rates = append(rates, n/w.length.Seconds())
		unstolen = append(unstolen, ratio(n, w.length.Seconds()*(1-w.steal)))
		cpus = append(cpus, ratio(ms(w.cpu), n))
	}
	m := map[string]metric{
		"throughput_unstolen_rps": {medianFloat(unstolen), "1/s"},
		"cpu_ms_per_op":           {medianFloat(cpus), "ms"},
		"rss_peak_mb":             {res.rssMB, "MB"},
		"setup_s":                 {medianDuration(res.setups).Seconds(), "s"},
	}
	// Reported by name but not in the result object, which holds only the
	// metrics steady enough to gate a change on a shared 2-vCPU host
	// (WORKLOADS.md): wall-clock latency and raw throughput swing with the
	// hypervisor's steal, and the error rate is 0 on a correct run, which
	// no relative bound can gate (attempted and failed carry it).
	perWindow := len(t.samples) / windows
	failed := len(t.failures)
	fmt.Printf("metric %s latency_p50_ms %.6g ms\n", g.workload, medianFloat(p50s))
	fmt.Printf("metric %s %s %.6g ms (median of %d windows of ~%d samples, %d beyond each)\n",
		g.workload, tailName, medianFloat(tails), windows, perWindow, int((1-p)*float64(perWindow)))
	fmt.Printf("metric %s throughput_rps %.6g 1/s\n", g.workload, medianFloat(rates))
	fmt.Printf("metric %s error_rate %.6g ratio (%d failed of %d attempted)\n",
		g.workload, ratio(float64(failed), float64(t.attempted)), failed, t.attempted)
	fmt.Printf("host %s steal_share %.4f of busy CPU time over the timed phase\n", g.workload, res.marks.stealShare(0, windows))
	printClasses(g.workload, t)
	return outcome{attempted: t.attempted, metrics: m}, t, res.used, nil
}

// printClasses reports per-class medians: where the latency comes from.
func printClasses(workloadName string, t *tally) {
	keys := make([]string, 0, len(t.byClass))
	for k := range t.byClass {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ds := t.byClass[k]
		fmt.Printf("class %s %s n=%d p50=%.3fms max=%.3fms\n", workloadName, k, len(ds), ms(medianDuration(ds)), ms(percentile(ds, 1)))
	}
}

// traced is the --trace 1 run: the bare and the traced replay of the same
// operations, interleaved.
func traced(e *env, g *generator, ops []op, dur time.Duration, execTrace string, prov provenance) (outcome, *tally, int, error) {
	bare, err := newReplayer(g, newTracer(false, false), filepath.Join(e.work, "replay-bare"))
	if err != nil {
		return outcome{}, nil, 0, err
	}
	t := newTracer(true, execTrace != "")
	rep, err := newReplayer(g, t, filepath.Join(e.work, "replay-traced"))
	if err != nil {
		return outcome{}, nil, 0, err
	}
	var execFile *os.File
	if execTrace != "" {
		if execFile, err = os.Create(execTrace); err != nil {
			return outcome{}, nil, 0, err
		}
		if err := trace.Start(execFile); err != nil {
			execFile.Close()
			return outcome{}, nil, 0, err
		}
	}
	watch := watchRuntime()
	n, untraced, tracedWall := interleave(bare, rep, ops, dur)
	rt := watch()
	if execFile != nil {
		trace.Stop()
		if err := execFile.Close(); err != nil {
			return outcome{}, nil, 0, err
		}
	}
	// The span file names the replayed operations; the run's counts are
	// in the result line.
	prov.Consumed, prov.Sequence = n, digest(ops[:n])
	spansPath := filepath.Join(e.work, fmt.Sprintf("spans-%s-seed%d.json", g.workload, prov.Seed))
	if err := t.writeSpans(spansPath, prov); err != nil {
		return outcome{}, nil, 0, err
	}
	fmt.Printf("spans %s (%d spans over %d operations)\n", spansPath, len(t.spans), n)
	st, err := rep.stats()
	if err != nil {
		return outcome{}, nil, 0, err
	}

	all := bare.tally
	all.attempted += rep.tally.attempted
	all.failures = append(all.failures, rep.tally.failures...)
	m := layerMetrics(t.summarize(), &rep.c, st, rt, ratio(tracedWall.Seconds(), untraced.Seconds())-1)
	return outcome{attempted: all.attempted, metrics: m}, all, n, nil
}

// layerMetrics derives the per-layer metrics from the traced replay's spans
// and counters and, on the served workloads, its server's /v1/stats (st).
func layerMetrics(sum map[string]*layerTime, c *counts, st *serve.StatsResponse, rt runtimeStats, overhead float64) map[string]metric {
	get := func(name string) *layerTime {
		if lt := sum[name]; lt != nil {
			return lt
		}
		return &layerTime{}
	}
	perCall := func(name string, scale float64) float64 {
		lt := get(name)
		return ratio(lt.TotalMS*scale, float64(lt.Count))
	}
	hits, misses := c.cacheHits, c.cacheMisses
	bytes, evictions := c.cacheBytes, c.evictions
	var deduped, shed int64
	if st != nil {
		hits, misses = st.Cache.Hits, st.Cache.Misses
		bytes, evictions = st.Cache.Bytes, st.Cache.Evictions
		deduped, shed = st.Flights.Deduped, st.Flights.Shed
	}
	decisions := float64(c.decisions)
	return map[string]metric{
		"serve.handler_ms_p50":            {ms(medianDuration(get("serve.handler").durations)), "ms"},
		"serve.json_us_per_op":            {ratio(get("serve.json").TotalMS*1000, float64(c.served)), "us"},
		"serve.flights_deduped":           {float64(deduped), "count"},
		"serve.shed":                      {float64(shed), "count"},
		"parser.parse_us_per_op":          {perCall("parser.parse", 1000), "us"},
		"tgds.fingerprint_us_per_op":      {perCall("tgds.fingerprint", 1000), "us"},
		"chase.cache_hit_ratio":           {ratio(float64(hits), float64(hits+misses)), "ratio"},
		"chase.cache_bytes":               {float64(bytes), "bytes"},
		"chase.cache_evictions":           {float64(evictions), "count"},
		"chase.snapshot_bytes":            {float64(c.snapshotBytes), "bytes"},
		"chase.snapshot_save_ms":          {perCall("chase.snapshot_save", 1), "ms"},
		"chase.snapshot_load_ms":          {perCall("chase.snapshot_load", 1), "ms"},
		"portfolio.analyze_ms_per_op":     {perCall("portfolio.analyze", 1), "ms"},
		"portfolio.decided_tier0_share":   {ratio(float64(c.decidedTier[0]), decisions), "ratio"},
		"portfolio.decided_tier1_share":   {ratio(float64(c.decidedTier[1]), decisions), "ratio"},
		"portfolio.decided_tier2_share":   {ratio(float64(c.decidedTier[2]), decisions), "ratio"},
		"portfolio.stages_per_decision":   {ratio(float64(c.stagesAttempted), decisions), "count"},
		"acyclicity.tier0_us_per_op":      {perCall("acyclicity.tier0", 1000), "us"},
		"acyclicity.mfa_ms_per_op":        {perCall("acyclicity.mfa", 1), "ms"},
		"guarded.probe_ms_per_op":         {perCall("guarded.probe", 1), "ms"},
		"guarded.probe_decided_ratio":     {ratio(float64(c.probesDecided), float64(c.probes)), "ratio"},
		"guarded.probe_seeds_per_op":      {ratio(float64(c.probeSeeds), float64(c.probes)), "count"},
		"guarded.decide_ms_per_op":        {perCall("guarded.decide", 1), "ms"},
		"guarded.seeds_tried_per_op":      {ratio(float64(c.seedsTried), float64(get("guarded.decide").Count)), "count"},
		"sticky.decide_ms_per_op":         {perCall("sticky.decide", 1), "ms"},
		"sticky.states_per_ms":            {ratio(float64(c.stickyStates), get("sticky.decide").TotalMS), "states/ms"},
		"core.analyze_ms_per_op":          {perCall("core.analyze", 1), "ms"},
		"chase.run_ms_per_op":             {perCall("chase.run", 1), "ms"},
		"chase.run_steps_per_ms":          {ratio(float64(c.runSteps), get("chase.run").TotalMS), "steps/ms"},
		"chase.run_skipped_ratio":         {ratio(float64(c.runSkipped), float64(c.runEnqueued)), "ratio"},
		"chase.activity_checks_per_step":  {ratio(float64(c.runActivity), float64(c.runSteps)), "count"},
		"chase.eq_steps_share":            {ratio(float64(c.runEq), float64(c.runSteps)), "ratio"},
		"chase.search_ms_per_op":          {perCall("chase.search", 1), "ms"},
		"chase.search_states_per_ms":      {ratio(float64(c.searchStates), get("chase.search").TotalMS), "states/ms"},
		"chase.search_memo_hit_ratio":     {ratio(float64(c.searchMemo), float64(c.searchMemo+c.searchStates)), "ratio"},
		"chase.search_index_repair_ratio": {ratio(float64(c.searchRepairs), float64(c.searchRepairs+c.searchRebuilds)), "ratio"},
		"runtime.gc_cpu_share":            {rt.gcShare, "ratio"},
		"runtime.heap_peak_mb":            {rt.heapPeakMB, "MB"},
		"trace.overhead_share":            {overhead, "ratio"},
	}
}

// selfTest checks the generator's determinism: one seed yields the
// byte-identical sequence (pre-generated or generated on demand, as the
// end-to-end run and the replay take it), another seed a different one.
func selfTest(workloadName string, seed int64) error {
	a, _ := newGenerator(workloadName, seed)
	b, _ := newGenerator(workloadName, seed)
	c, _ := newGenerator(workloadName, seed+1)
	n := 3*len(a.deck) + 7
	first := a.prefix(n)
	var again []op
	for i := 0; i < n; i++ {
		again = append(again, b.op(i))
	}
	if digest(first) != digest(again) {
		return fmt.Errorf("seed %d yields two different sequences", seed)
	}
	if digest(first) == digest(c.prefix(n)) {
		return fmt.Errorf("seeds %d and %d yield the same sequence", seed, seed+1)
	}
	for ci := 0; ci < a.poolSize(); ci++ {
		x, y := a.poolOp(ci), b.poolOp(ci)
		if x.Program != y.Program {
			return fmt.Errorf("pool program %d differs between generations", ci)
		}
	}
	return nil
}

// uniqueFingerprints checks that no renamed stream program repeats a TGD
// set fingerprint: every cold-decide request and every program the
// cli-batch portfolio cache grows by is new to the cache.
func uniqueFingerprints(g *generator, ops []op) error {
	if g.poolSize() > 0 {
		return nil // a fixed pool recurs by design
	}
	seen := map[string]int{}
	for _, o := range ops {
		if !o.Kind.served() && o.Kind != kindTermcheckPortfolio {
			continue
		}
		prog, err := parser.Parse(o.Program)
		if err != nil {
			return fmt.Errorf("seq %d: %v", o.Seq, err)
		}
		fp := prog.TGDs.Fingerprint().String()
		if prev, ok := seen[fp]; ok {
			return fmt.Errorf("seq %d repeats the TGD-set fingerprint of seq %d", o.Seq, prev)
		}
		seen[fp] = o.Seq
	}
	return nil
}

// selfCPU is the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
}
