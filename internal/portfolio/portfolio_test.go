package portfolio

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"airct/internal/chase"
	"airct/internal/core"
	"airct/internal/guarded"
	"airct/internal/panics"
	"airct/internal/parser"
	"airct/internal/tgds"
	"airct/internal/workload"
)

// testBudgets keeps the corpus sweeps fast while matching core.Analyze's
// budgets exactly on both sides of every identity assertion.
const testDecideSteps = 500

func coreOpts() core.Options {
	return core.Options{GuardedOptions: guarded.DecideOptions{MaxSteps: testDecideSteps}}
}

func portOpts() Options {
	return Options{Guarded: guarded.DecideOptions{MaxSteps: testDecideSteps}}
}

func mustSet(t *testing.T, src string) *tgds.Set {
	t.Helper()
	set, err := parser.ParseTGDs(src)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestConclusionIdentityOnWorkloadCorpus is the portfolio's core contract:
// on every corpus family, the cascade's conclusion equals core.Analyze's,
// cache off, cold and warm.
func TestConclusionIdentityOnWorkloadCorpus(t *testing.T) {
	for _, l := range workload.Corpus() {
		t.Run(l.Name, func(t *testing.T) {
			rep, err := core.Analyze(l.Set, coreOpts())
			if err != nil {
				t.Fatal(err)
			}
			opts := portOpts()
			off, err := Analyze(context.Background(), l.Set, opts)
			if err != nil {
				t.Fatal(err)
			}
			if off.Conclusion != rep.Conclusion {
				t.Fatalf("conclusion = %v, want %v (core.Analyze); decided by %q\nstages: %+v",
					off.Conclusion, rep.Conclusion, off.DecidedBy, off.Stages)
			}
			if off.Conclusion != core.Unknown && off.DecidedBy == "" {
				t.Error("decisive result without a deciding stage")
			}
			opts.Cache = chase.NewCache()
			cold, err := Analyze(context.Background(), l.Set, opts)
			if err != nil {
				t.Fatal(err)
			}
			warm, err := Analyze(context.Background(), l.Set, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !warm.CacheHit || cold.CacheHit {
				t.Errorf("cache hits: cold %v, warm %v", cold.CacheHit, warm.CacheHit)
			}
			for label, got := range map[string]*Result{"cold": cold, "warm": warm} {
				if got.Conclusion != rep.Conclusion || got.DecidedBy != off.DecidedBy {
					t.Errorf("%s drifted: %v/%q vs %v/%q",
						label, got.Conclusion, got.DecidedBy, rep.Conclusion, off.DecidedBy)
				}
			}
		})
	}
}

// TestVerdictInvariantAcrossRacerPoolShapes is the satellite quick-check:
// conclusion and deciding stage never depend on the Tier 2 worker count or
// on cache state. It runs under the CI -race job, so it also exercises the
// race's memory discipline.
func TestVerdictInvariantAcrossRacerPoolShapes(t *testing.T) {
	// Families chosen to exercise every racer combination: sticky+guarded
	// terminating and diverging, guarded-only diverging, sticky-only
	// terminating, and a baseline-decided set.
	cases := []workload.Labeled{
		workload.LinearCycle(3),
		workload.StickyRelay(2),
		workload.GuardedLadder(2),
		workload.StickyJoin(2),
		workload.SwapIntro(2),
		workload.ExistentialChain(3),
	}
	for _, l := range cases {
		t.Run(l.Name, func(t *testing.T) {
			base, err := Analyze(context.Background(), l.Set, portOpts())
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				for _, withCache := range []bool{false, true} {
					opts := portOpts()
					opts.Workers = workers
					if withCache {
						opts.Cache = chase.NewCache()
					}
					for pass := 0; pass < 2; pass++ {
						got, err := Analyze(context.Background(), l.Set, opts)
						if err != nil {
							t.Fatal(err)
						}
						if got.Conclusion != base.Conclusion || got.DecidedBy != base.DecidedBy {
							t.Errorf("workers=%d cache=%v pass=%d: %v/%q, want %v/%q",
								workers, withCache, pass, got.Conclusion, got.DecidedBy,
								base.Conclusion, base.DecidedBy)
						}
						if !withCache {
							break
						}
					}
				}
			}
		})
	}
}

// TestStageAttribution pins which tier decides the canonical families — the
// cascade's reason to exist.
func TestStageAttribution(t *testing.T) {
	cases := []struct {
		name      string
		set       *tgds.Set
		decidedBy string
		verdict   core.Conclusion
	}{
		{"datalog-full", workload.DatalogChain(3).Set, "full", core.Terminates},
		{"existential-wa", workload.ExistentialChain(3).Set, "weak-acyclicity", core.Terminates},
		{"swap-intro-prune", workload.SwapIntro(2).Set, "jointree-prune", core.Terminates},
		{"sticky-relay-race", workload.StickyRelay(2).Set, "sticky", core.Diverges},
		// The guarded ladder diverges and is guarded non-sticky: the Tier 1
		// probe's rejecting fast path finds the pump certificate on a
		// k-prefix and decides before the Tier 2 race even starts.
		{"guarded-ladder-reject", workload.GuardedLadder(2).Set, "probe", core.Diverges},
		// MFA-but-not-JA separator: Mov(Y) reaches R.1 (via the swap copy)
		// and R.2 (via the direct copy), so the diagonal rule R(X,X) → S(X)
		// positionally forwards the null to S and back to A — JA sees a
		// cycle. Concretely no single null ever sits in both R positions at
		// once (R(n,c) and R(c,n) are never diagonal), so the critical-
		// instance so-chase saturates and MFA decides before any racer.
		{"mfa-separator", mustSet(t, `
			A(X) -> T(X,Y).
			T(X,Y) -> R(Y,X).
			T(X,Y) -> R(X,Y).
			R(X,X) -> S(X).
			S(X) -> A(X).`), "mfa", core.Terminates},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Analyze(context.Background(), tc.set, portOpts())
			if err != nil {
				t.Fatal(err)
			}
			if res.Conclusion != tc.verdict || res.DecidedBy != tc.decidedBy {
				t.Errorf("got %v decided by %q, want %v by %q\nstages: %+v",
					res.Conclusion, res.DecidedBy, tc.verdict, tc.decidedBy, res.Stages)
			}
		})
	}
}

// TestProbeTierAttribution pins Tier 1's rejecting fast path on example
// 5.6's guarded non-sticky diverging shape: a pump certificate surfaces on
// a seed's k-prefix and the probe decides Diverges — carrying the
// certificate — before Tier 2 starts. The conclusion must still equal
// core.Analyze's, where the guarded racer reaches the identical verdict.
func TestProbeTierAttribution(t *testing.T) {
	// Guarded, not sticky (marked X recurs in body positions), not WA/JA,
	// not prunable — and genuinely diverging through the P self-feed.
	set := mustSet(t, `
		S(X,Y) -> T(X).
		R(X,Y), T(Y) -> P(X,Y).
		P(X,Y) -> P(Y,Z).
	`)
	if set.IsSticky() || !set.IsGuarded() {
		t.Fatal("example 5.6 class flags shifted")
	}
	rep, err := core.Analyze(set, coreOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Conclusion != core.Diverges {
		t.Fatalf("core.Analyze on example 5.6 = %v, want diverges", rep.Conclusion)
	}
	res, err := Analyze(context.Background(), set, portOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.DecidedBy != "probe" || res.Conclusion != core.Diverges {
		t.Errorf("example 5.6: %v by %q, want diverges by probe\nstages: %+v",
			res.Conclusion, res.DecidedBy, res.Stages)
	}
	for _, s := range res.Stages {
		if s.Stage == "probe" && s.Decided && s.Evidence == "" {
			t.Error("rejecting probe carries no divergence certificate")
		}
		if s.Tier == 2 {
			t.Errorf("Tier 2 stage %q recorded after a decisive probe: %+v", s.Stage, s)
		}
	}
}

// TestExistsRacerIsNonAuthoritative pins the ∀∃ stage contract: with a
// database supplied it reports, but the conclusion and deciding stage are
// unchanged — even on a set where the search finds a terminating
// derivation while the ∀∀ answer is Diverges.
func TestExistsRacerIsNonAuthoritative(t *testing.T) {
	prog := parser.MustParse(`
		S(a).
		S(X) -> R(X,Y).
		R(X,Y) -> S(Y).
	`)
	without, err := Analyze(context.Background(), prog.TGDs, portOpts())
	if err != nil {
		t.Fatal(err)
	}
	opts := portOpts()
	opts.Database = prog.Database
	opts.Exists = chase.SearchOptions{MaxStates: 2000, MaxAtoms: 50}
	with, err := Analyze(context.Background(), prog.TGDs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if with.Conclusion != without.Conclusion || with.DecidedBy != without.DecidedBy {
		t.Errorf("∀∃ racer changed the answer: %v/%q vs %v/%q",
			with.Conclusion, with.DecidedBy, without.Conclusion, without.DecidedBy)
	}
	found := false
	for _, s := range with.Stages {
		if s.Stage == "exists" {
			found = true
			if s.Decided || s.Conclusion != core.Unknown {
				t.Errorf("exists stage marked decisive: %+v", s)
			}
		}
	}
	if !found {
		t.Error("no exists stage recorded despite a supplied database")
	}
}

func TestEmptySetRejected(t *testing.T) {
	if _, err := Analyze(context.Background(), &tgds.Set{}, Options{}); err == nil {
		t.Fatal("empty set accepted")
	}
}

// TestAnalyzeCancelledPropagates pins the cascade's own cancellation: a
// context cancelled mid-race surfaces as ctx's error, promptly. The probe
// is pinned accept-only — its rejecting fast path would otherwise decide
// the diverging ladder in well under the cancellation delay, leaving no
// race to cancel — so the cascade reaches the Tier 2 chase the cancel is
// meant to interrupt.
func TestAnalyzeCancelledPropagates(t *testing.T) {
	set := workload.GuardedLadder(2).Set
	opts := portOpts()
	opts.Guarded.MaxSteps = 50_000_000
	opts.Guarded.ProbeAcceptOnly = true
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := Analyze(ctx, set, opts)
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("err = %v (result %+v), want context.Canceled", err, res)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancelled Analyze took %v", elapsed)
	}
}

// TestWorkersOneIsSequentialCascade pins the degenerate pool: with one
// worker the race is a sequential cascade with early exit, and a decisive
// first racer leaves the second skipped, not cancelled.
func TestWorkersOneIsSequentialCascade(t *testing.T) {
	opts := portOpts()
	opts.Workers = 1
	res, err := Analyze(context.Background(), workload.LinearCycle(3).Set, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.DecidedBy != "sticky" || res.Conclusion != core.Diverges {
		t.Fatalf("linear cycle: %v by %q", res.Conclusion, res.DecidedBy)
	}
	for _, s := range res.Stages {
		if s.Stage == "guarded" && s.Detail != "skipped: an earlier stage decided" {
			t.Errorf("W=1 loser not skipped: %+v", s)
		}
	}
}

// TestGuardedRacerBranchesSequential drives the guarded racer's outcomes
// with one worker, so no other racer can finish first and the branch taken
// does not depend on scheduling: a probe budget of one step routes both
// guarded, non-sticky sets past Tier 1, and the guarded stage then finds a
// divergence witness or, at a three-step budget, exhausts its budget
// without a certificate. Each conclusion matches core.Analyze's.
func TestGuardedRacerBranchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name     string
		set      *tgds.Set
		steps    int
		want     core.Conclusion
		decided  string
		detailed string
	}{
		{"example-5.6", mustSet(t, `
			S(X,Y) -> T(X).
			R(X,Y), T(Y) -> P(X,Y).
			P(X,Y) -> P(Y,Z).
		`), testDecideSteps, core.Diverges, "guarded", "guarded: diverging witness database"},
		{"guard-chain-pump", mustSet(t, `
			G(X,Y), S(X) -> G(Y,Z).
			G(X,Y) -> S(Y).
		`), 3, core.Unknown, "", "guarded: budget exhausted without certificate"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Guarded: guarded.DecideOptions{MaxSteps: tc.steps, Workers: 1}, ProbeSteps: 1, Workers: 1}
			res, err := Analyze(context.Background(), tc.set, opts)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := core.Analyze(tc.set, core.Options{GuardedOptions: guarded.DecideOptions{MaxSteps: tc.steps, Workers: 1}})
			if err != nil {
				t.Fatal(err)
			}
			if res.Conclusion != tc.want || rep.Conclusion != tc.want || res.DecidedBy != tc.decided {
				t.Fatalf("portfolio %v by %q, core.Analyze %v; want %v by %q", res.Conclusion, res.DecidedBy, rep.Conclusion, tc.want, tc.decided)
			}
			last := res.Stages[len(res.Stages)-1]
			if last.Stage != "guarded" || !strings.HasPrefix(last.Detail, tc.detailed) {
				t.Errorf("last stage = %+v, want guarded %q…", last, tc.detailed)
			}
		})
	}
}

// TestCancelledMFAStoresNothing pins MFA's cancellation through both
// analyzers: under an already-cancelled context and a large MFA budget,
// each returns the context's error promptly and stores no ledger, so the
// next uncancelled call misses the cache. The second set is neither guarded
// nor sticky and not decided before MFA, so MFA's own chase (≈100 steps to
// its cyclic null, past the engine's poll interval) is the only stage that
// observes the context.
func TestCancelledMFAStoresNothing(t *testing.T) {
	long := mustSet(t, workload.LinearCycle(100).Source+"E(X,Y), E(Y,Z) -> E(X,Z).\n")
	if long.IsGuarded() || long.IsSticky() {
		t.Fatal("corpus error: the long-MFA set must be neither guarded nor sticky")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, set := range []*tgds.Set{workload.GuardedLadder(10).Set, long} {
		cache := chase.NewCache()
		copts := coreOpts()
		copts.MFASteps = 10_000_000
		copts.Cache = cache
		popts := portOpts()
		popts.MFASteps = 10_000_000
		popts.Cache = cache

		start := time.Now()
		if rep, err := core.AnalyzeContext(ctx, set, copts); err != context.Canceled {
			t.Errorf("core.AnalyzeContext = (%v, %v), want context.Canceled", rep, err)
		}
		if res, err := Analyze(ctx, set, popts); err != context.Canceled {
			t.Errorf("portfolio.Analyze = (%+v, %v), want context.Canceled", res, err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("cancelled analyses took %v", elapsed)
		}
		if n := cache.Stats().Entries; n != 0 {
			t.Errorf("cancelled analyses stored %d cache entries", n)
		}
		rep, err := core.AnalyzeContext(context.Background(), set, copts)
		if err != nil || rep.CacheHit {
			t.Errorf("flat analysis after a cancelled one: cache hit %v, err %v", rep != nil && rep.CacheHit, err)
		}
		res, err := Analyze(context.Background(), set, popts)
		if err != nil || res.CacheHit {
			t.Errorf("portfolio after a cancelled one: cache hit %v, err %v", res != nil && res.CacheHit, err)
		}
	}
}

// TestRacerPanicIsContained injects a panicking Tier 2 racer ahead of the
// real ones: on the sequential cascade and on the worker pool alike,
// Analyze returns a *panics.Error naming the stage, stores no ledger (the
// next call on the same cache misses it), and that next call runs normally.
func TestRacerPanicIsContained(t *testing.T) {
	set := workload.LinearCycle(3).Set
	for _, workers := range []int{1, 0} {
		cache := chase.NewCache()
		opts := portOpts()
		opts.Workers = workers
		opts.Cache = cache
		opts.racers = func(rs []racer) []racer {
			faulty := racer{name: "faulty", authoritative: true, run: func(context.Context) (StageOutcome, error) {
				panic("injected racer fault")
			}}
			return append([]racer{faulty}, rs...)
		}
		res, err := Analyze(context.Background(), set, opts)
		var pe *panics.Error
		if !errors.As(err, &pe) || pe.Where != "portfolio stage faulty" || pe.Value != "injected racer fault" {
			t.Fatalf("workers=%d: Analyze = (%+v, %v), want a panic error naming the stage", workers, res, err)
		}
		opts.racers = nil
		res, err = Analyze(context.Background(), set, opts)
		if err != nil || res.Conclusion != core.Diverges || res.CacheHit {
			t.Errorf("workers=%d: run after the panic = (%+v, %v)", workers, res, err)
		}
	}
}
