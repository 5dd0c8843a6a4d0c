package core_test

// The flat stage ledger: with Options.Cache set, a finished analysis is
// stored in the cache's StageOutcomes kind and later calls replay it. These
// tests pin that a replayed report is byte-identical to the cold one —
// warm in-process and after a snapshot restart, at every guarded worker
// count — that a cancelled or failed analysis stores nothing, and that a
// flat entry and a portfolio entry for the same set and budgets coexist.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"airct/internal/chase"
	"airct/internal/core"
	"airct/internal/guarded"
	"airct/internal/instance"
	"airct/internal/logic"
	"airct/internal/parser"
	"airct/internal/portfolio"
	"airct/internal/sticky"
	"airct/internal/tgds"
	"airct/internal/workload"
)

const ledgerDecideSteps = 500

// ledgerCorpus gathers the conformance programs, the labeled workload
// families (diverging members included) and key-graph EGD programs, plus
// two never-firing programs: one whose prune decides and one whose prune
// only removes a rule (the data-only ledger record). Sets that fingerprint
// equal to an earlier entry are dropped, so every first call is cold.
func ledgerCorpus(t *testing.T) map[string]*tgds.Set {
	t.Helper()
	out := make(map[string]*tgds.Set)
	seen := make(map[logic.Fingerprint]bool)
	add := func(name string, set *tgds.Set) {
		if !seen[set.Fingerprint()] {
			seen[set.Fingerprint()] = true
			out[name] = set
		}
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "conformance", "*.chase"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no conformance corpus: %v", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := parser.Parse(string(raw))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		add("conformance/"+filepath.Base(f), prog.TGDs)
	}
	for _, l := range workload.Corpus() {
		add("workload/"+l.Name, l.Set)
	}
	for _, seed := range []int64{1, 2} {
		add(fmt.Sprintf("key-graph/%d", seed), workload.KeyGraph(6, seed).TGDs)
	}
	for name, src := range map[string]string{
		"prune-decides":   `n: R(X,Y) -> R(X,Z).`,
		"prune-undecided": `S(X) -> R(X,Y). R(X,Y) -> S(Y). n: R(X,Y) -> R(X,Z).`,
	} {
		set, err := parser.ParseTGDs(src)
		if err != nil {
			t.Fatal(err)
		}
		add(name, set)
	}
	return out
}

func ledgerOptions(workers int, cache *chase.Cache) core.Options {
	return core.Options{
		GuardedOptions: guarded.DecideOptions{MaxSteps: ledgerDecideSteps, Workers: workers},
		Cache:          cache,
	}
}

// rendering is the identity witness: the conclusion, every reason, the
// never-firing labels and the whole terminal summary (which covers the
// class flags and the witness lines).
func rendering(rep *core.Report) string {
	return fmt.Sprintf("%v|%q|%q\n%s", rep.Conclusion, rep.Reasons, rep.NeverFiring, rep.Summary())
}

func TestFlatLedgerReplaysByteIdentically(t *testing.T) {
	corpus := ledgerCorpus(t)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cache := chase.NewCache()
			want := make(map[string]string, len(corpus))
			for name, set := range corpus {
				ref, err := core.Analyze(set, ledgerOptions(workers, nil))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want[name] = rendering(ref)
				for i, regime := range []string{"cold", "warm"} {
					rep, err := core.Analyze(set, ledgerOptions(workers, cache))
					if err != nil {
						t.Fatalf("%s %s: %v", name, regime, err)
					}
					if rep.CacheHit != (i == 1) {
						t.Errorf("%s %s: CacheHit = %v", name, regime, rep.CacheHit)
					}
					if got := rendering(rep); got != want[name] {
						t.Errorf("%s %s drifted from the uncached report:\n%s\nvs\n%s", name, regime, got, want[name])
					}
				}
			}

			path := filepath.Join(t.TempDir(), "ledger.cache")
			if err := chase.SaveCacheFile(cache, path); err != nil {
				t.Fatal(err)
			}
			restored, rep, err := chase.LoadCacheFile(path)
			if err != nil || rep.Skipped > 0 || rep.Truncated {
				t.Fatalf("restart load: %v %+v", err, rep)
			}
			for name, set := range corpus {
				rep, err := core.Analyze(set, ledgerOptions(workers, restored))
				if err != nil {
					t.Fatalf("%s restart: %v", name, err)
				}
				if !rep.CacheHit {
					t.Errorf("%s restart: not replayed from the restored ledger", name)
				}
				if got := rendering(rep); got != want[name] {
					t.Errorf("%s restart drifted:\n%s\nvs\n%s", name, got, want[name])
				}
			}
		})
	}
}

// TestFlatLedgerSaltFoldsBudgetsNotWorkers pins the salt: worker counts never split
// the key, every resolved budget does.
func TestFlatLedgerSaltFoldsBudgetsNotWorkers(t *testing.T) {
	set := workload.GuardedLadder(2).Set
	cache := chase.NewCache()
	if _, err := core.Analyze(set, ledgerOptions(1, cache)); err != nil {
		t.Fatal(err)
	}
	rep, err := core.Analyze(set, ledgerOptions(4, cache))
	if err != nil || !rep.CacheHit {
		t.Fatalf("workers=4 after workers=1: hit = %v, err = %v", rep != nil && rep.CacheHit, err)
	}
	for name, opts := range map[string]core.Options{
		"guarded steps":  {GuardedOptions: guarded.DecideOptions{MaxSteps: ledgerDecideSteps + 1}},
		"guarded seeds":  {GuardedOptions: guarded.DecideOptions{MaxSteps: ledgerDecideSteps, MaxSeeds: 7}},
		"mfa steps":      {GuardedOptions: guarded.DecideOptions{MaxSteps: ledgerDecideSteps}, MFASteps: 99},
		"skip baselines": {GuardedOptions: guarded.DecideOptions{MaxSteps: ledgerDecideSteps}, SkipBaselines: true},
		"sticky states":  {GuardedOptions: guarded.DecideOptions{MaxSteps: ledgerDecideSteps}, StickyOptions: sticky.DecideOptions{MaxStates: 99}},
		"extra seeds": {GuardedOptions: guarded.DecideOptions{MaxSteps: ledgerDecideSteps,
			ExtraSeeds: []*instance.Database{workload.StarDatabase("S", 2)}}},
	} {
		opts.Cache = cache
		rep, err := core.Analyze(set, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.CacheHit {
			t.Errorf("%s: a different budget replayed another budget's ledger", name)
		}
	}
}

func TestFlatLedgerStoresNothingOnCancelOrError(t *testing.T) {
	cache := chase.NewCache()
	opts := core.Options{Cache: cache}

	done, stop := context.WithCancel(context.Background())
	stop()

	// The decision procedures observe the cancelled context and fail with
	// its error.
	for _, set := range []*tgds.Set{workload.GuardedLadder(3).Set, workload.StickyRelay(2).Set} {
		if _, err := core.AnalyzeContext(done, set, opts); err == nil {
			t.Fatal("cancelled analysis returned no error")
		}
	}

	// A set whose checks never look at the context (full, neither guarded
	// nor sticky): the report is returned, but a cancelled call still
	// stores nothing.
	full, err := parser.ParseTGDs(`R(X,Y), S(Y,Z) -> T(X,Z).`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.AnalyzeContext(done, full, opts); err != nil {
		t.Fatalf("full set under a cancelled context: %v", err)
	}

	empty, err := parser.ParseTGDs(``)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Analyze(empty, opts); err == nil {
		t.Fatal("empty set must error")
	}
	if n := cache.Stats().Entries; n != 0 {
		t.Errorf("cancelled or failed analyses stored %d entries", n)
	}
}

// TestFlatAndPortfolioLedgersCoexist pins that the flat "flat|…" salt and
// the portfolio salt occupy distinct keys of the one StageOutcomes kind:
// each question replays its own shape, never the other's.
func TestFlatAndPortfolioLedgersCoexist(t *testing.T) {
	for _, set := range []*tgds.Set{workload.GuardedLadder(2).Set, workload.StickyRelay(2).Set, workload.SwapIntro(2).Set} {
		cache := chase.NewCache()
		flatOpts := ledgerOptions(1, cache)
		popts := portfolio.Options{
			Guarded: guarded.DecideOptions{MaxSteps: ledgerDecideSteps, Workers: 1},
			Workers: 1,
			Cache:   cache,
		}
		flatCold, err := core.Analyze(set, flatOpts)
		if err != nil {
			t.Fatal(err)
		}
		pfCold, err := portfolio.Analyze(context.Background(), set, popts)
		if err != nil {
			t.Fatal(err)
		}
		if pfCold.CacheHit {
			t.Fatal("portfolio replayed the flat ledger")
		}
		flatWarm, err := core.Analyze(set, flatOpts)
		if err != nil {
			t.Fatal(err)
		}
		pfWarm, err := portfolio.Analyze(context.Background(), set, popts)
		if err != nil {
			t.Fatal(err)
		}
		if !flatWarm.CacheHit || !pfWarm.CacheHit {
			t.Fatalf("warm hits: flat %v, portfolio %v", flatWarm.CacheHit, pfWarm.CacheHit)
		}
		if rendering(flatWarm) != rendering(flatCold) {
			t.Errorf("flat replay drifted:\n%s\nvs\n%s", rendering(flatWarm), rendering(flatCold))
		}
		if got, want := stageShape(pfWarm), stageShape(pfCold); got != want {
			t.Errorf("portfolio replay drifted:\n%s\nvs\n%s", got, want)
		}
	}
}

func stageShape(res *portfolio.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v by %s\n", res.Conclusion, res.DecidedBy)
	for _, s := range res.Stages {
		fmt.Fprintf(&b, "%s tier=%d decided=%v %v %s\n", s.Stage, s.Tier, s.Decided, s.Conclusion, s.Detail)
	}
	return b.String()
}
