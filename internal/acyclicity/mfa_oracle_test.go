package acyclicity

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"airct/internal/chase"
	"airct/internal/critical"
	"airct/internal/logic"
	"airct/internal/parser"
	"airct/internal/tgds"
	"airct/internal/workload"
)

// refMFAResult is the oracle's result, including the offending null the
// production result no longer reports.
type refMFAResult struct {
	Acyclic    bool
	CyclicNull logic.Term
	Steps      int
}

// referenceMFA is the naive string-keyed round loop that CheckMFA replaced,
// kept as the differential oracle. It runs the MFA-style test: chase the
// critical instance D* with the semi-oblivious chase, tracking null ancestry; if a null created by
// (σ, z) has an ancestor null created by the same (σ, z), the set is
// reported cyclic. If the chase saturates first, the set is MFA and every
// chase variant terminates on every database. maxSteps bounds the search
// (0: 100_000); hitting the bound reports Acyclic = false with no witness.
func referenceMFA(set *tgds.Set, maxSteps int) refMFAResult {
	if maxSteps <= 0 {
		maxSteps = 100_000
	}
	db := critical.Instance(set)
	inst := db.Instance()
	nulls := chase.NewNullFactory(chase.StructuralNaming)
	// origin[n] = "tgdIndex|var" creating n; parents[n] = nulls in the
	// frontier image of the creating trigger.
	origin := make(map[logic.Term]string)
	parents := make(map[logic.Term][]logic.Term)
	appliedFrontier := make(map[string]struct{})
	steps := 0
	for {
		if steps >= maxSteps {
			return refMFAResult{Acyclic: false, Steps: steps}
		}
		progressed := false
		for _, tr := range chase.AllTriggers(set, inst) {
			fk := tr.FrontierKey()
			if _, done := appliedFrontier[fk]; done {
				continue
			}
			appliedFrontier[fk] = struct{}{}
			result := chase.Result(tr, nulls)
			frontierNulls := frontierNullsOf(tr)
			for _, atom := range result {
				for _, term := range atom.Args {
					if !term.IsNull() {
						continue
					}
					if _, known := origin[term]; known {
						continue
					}
					// Origin granularity is the creating TGD. The textbook
					// MFA condition keys on (σ, z); collapsing the
					// existential variables of one TGD only makes the
					// cycle test fire earlier, which keeps acceptance
					// sound (an accepted set still saturated cycle-free).
					origin[term] = fmt.Sprintf("%d", tr.TGDIndex)
					parents[term] = frontierNulls
					if hasCyclicAncestry(term, origin, parents) {
						return refMFAResult{Acyclic: false, CyclicNull: term, Steps: steps}
					}
				}
				inst.Add(atom)
			}
			steps++
			progressed = true
			if steps >= maxSteps {
				return refMFAResult{Acyclic: false, Steps: steps}
			}
		}
		if !progressed {
			return refMFAResult{Acyclic: true, Steps: steps}
		}
	}
}

func frontierNullsOf(tr chase.Trigger) []logic.Term {
	var out []logic.Term
	seen := map[logic.Term]bool{}
	for x := range tr.TGD.Frontier() {
		t := tr.H.ApplyTerm(x)
		if t.IsNull() && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

func hasCyclicAncestry(n logic.Term, origin map[logic.Term]string, parents map[logic.Term][]logic.Term) bool {
	want := origin[n]
	seen := map[logic.Term]bool{n: true}
	stack := append([]logic.Term{}, parents[n]...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v] {
			continue
		}
		seen[v] = true
		if origin[v] == want {
			return true
		}
		stack = append(stack, parents[v]...)
	}
	return false
}

// mfaCase is one differential input: a name and a set.
type mfaCase struct {
	name string
	set  *tgds.Set
}

// mfaCorpus gathers the oracle's inputs: two hand-written edge cases, the
// labeled corpus, every labeled family at sizes 2–10, the conformance
// programs with TGDs (both checks ignore EGDs), and 200 seeds of each random
// program generator.
func mfaCorpus(t *testing.T) []mfaCase {
	t.Helper()
	// Two hand-written edge cases of the ancestry rule. In the first, a null
	// of the first TGD is nested once inside another of its nulls and the
	// chase then stops (D holds of the constant only): MFA must reject it
	// although the critical-instance chase terminates. In the second, the
	// only R-atom of one null pairs it with a null of s at s's non-frontier
	// position Y; ancestry follows the frontier image only, so that null is
	// no ancestor and MFA accepts the set.
	out := []mfaCase{
		{"bounded-self-nesting", set(t, `A(X) -> B(X,Y). B(X,Y), D(X) -> A(Y).`)},
		{"non-frontier-null", set(t, `
			s: R(X,Y) -> S(X,Z).
			K(X) -> L(X,V).
			L(X,V) -> R(V,V).
			L(X,V) -> T(V,U).
			S(X,Y), T(X,W) -> R(W,Y).`)},
	}
	for _, l := range workload.Corpus() {
		out = append(out, mfaCase{"corpus/" + l.Name, l.Set})
	}
	families := []func(int) workload.Labeled{
		workload.DatalogChain, workload.ExistentialChain, workload.LinearCycle,
		workload.SwapIntro, workload.GuardedLadder, workload.StickyJoin, workload.StickyRelay,
	}
	for _, fam := range families {
		for n := 2; n <= 10; n++ {
			l := fam(n)
			out = append(out, mfaCase{"family/" + l.Name, l.Set})
		}
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "conformance", "*.chase"))
	if err != nil || len(files) == 0 {
		t.Fatalf("conformance programs: %v (found %d)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := parser.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if prog.TGDs.Len() == 0 {
			continue
		}
		out = append(out, mfaCase{"conformance/" + strings.TrimSuffix(filepath.Base(f), ".chase"), prog.TGDs})
	}
	for seed := int64(0); seed < 200; seed++ {
		out = append(out,
			mfaCase{fmt.Sprintf("random-existential/%d", seed), workload.RandomExistentialProgram(seed).TGDs},
			mfaCase{fmt.Sprintf("random-datalog/%d", seed), workload.RandomDatalogProgram(seed).TGDs},
		)
	}
	return out
}

// TestCheckMFAMatchesReference pins the engine-backed check against the
// naive round loop: the same Acyclic everywhere, and the same Steps
// whenever the set is acyclic — at the default-sized budget and, for every
// saturating set, at budgets saturation−1, saturation and saturation+1
// (saturation needs strictly more budget than steps).
func TestCheckMFAMatchesReference(t *testing.T) {
	const budget = 20_000
	var acyclic, cyclic int
	for _, tc := range mfaCorpus(t) {
		check := func(maxSteps int) refMFAResult {
			t.Helper()
			want := referenceMFA(tc.set, maxSteps)
			got := CheckMFA(tc.set, maxSteps)
			if got.Acyclic != want.Acyclic || (want.Acyclic && got.Steps != want.Steps) {
				t.Errorf("%s at budget %d: CheckMFA = %+v, reference = {Acyclic:%v Steps:%d}",
					tc.name, maxSteps, got, want.Acyclic, want.Steps)
			}
			return want
		}
		want := check(budget)
		if !want.Acyclic {
			cyclic++
			continue
		}
		acyclic++
		for _, b := range []int{want.Steps - 1, want.Steps, want.Steps + 1} {
			if b > 0 {
				check(b)
			}
		}
	}
	t.Logf("%d acyclic, %d cyclic", acyclic, cyclic)
	if acyclic == 0 || cyclic == 0 {
		t.Errorf("degenerate corpus: %d acyclic, %d cyclic sets", acyclic, cyclic)
	}
}

// TestCheckMFAContextCancelled: a check whose chase outlasts the engine's
// poll interval returns the context's error and no verdict under a
// cancelled context, on an acyclic and on a cyclic set alike.
func TestCheckMFAContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, l := range []workload.Labeled{workload.ExistentialChain(100), workload.LinearCycle(100)} {
		if res := CheckMFA(l.Set, 1_000_000); res.Steps < 200 {
			t.Fatalf("%s: uncancelled check took %d steps, too few to reach a poll", l.Name, res.Steps)
		}
		res, err := CheckMFAContext(ctx, l.Set, 1_000_000)
		if err != context.Canceled || res.Acyclic {
			t.Errorf("%s: CheckMFAContext under a cancelled context = (%+v, %v), want context.Canceled", l.Name, res, err)
		}
	}
}

// BenchmarkCheckMFA times one check on a cyclic guarded family, a cyclic
// linear family and an acyclic existential chain.
func BenchmarkCheckMFA(b *testing.B) {
	for _, l := range []workload.Labeled{workload.GuardedLadder(10), workload.LinearCycle(8), workload.ExistentialChain(8)} {
		b.Run(l.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				CheckMFA(l.Set, 20_000)
			}
		})
	}
}
