package main

import (
	"fmt"
	"sort"
	"testing"

	"airct/internal/chase"
	"airct/internal/parser"
)

func TestGeneratorSelfTest(t *testing.T) {
	for _, w := range workloadNames {
		for _, seed := range []int64{1, 2, 17} {
			if err := selfTest(w, seed); err != nil {
				t.Errorf("%s seed %d: %v", w, seed, err)
			}
		}
	}
}

// TestStreamsNeverRepeat pins the renaming: a cold-decide stream and the
// cli-batch portfolio programs never repeat a TGD-set fingerprint.
func TestStreamsNeverRepeat(t *testing.T) {
	for _, w := range []string{"cold-decide", "cli-batch"} {
		g, err := newGenerator(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := uniqueFingerprints(g, g.prefix(4*len(g.deck))); err != nil {
			t.Errorf("%s: %v", w, err)
		}
	}
}

// TestDeckMixIsSeedIndependent pins what keeps runs comparable across
// seeds: every block holds the same classes.
func TestDeckMixIsSeedIndependent(t *testing.T) {
	for _, w := range workloadNames {
		a, _ := newGenerator(w, 1)
		b, _ := newGenerator(w, 2)
		n := 2 * len(a.deck)
		ca, cb := classCounts(a.prefix(n)), classCounts(b.prefix(n))
		if len(ca) != len(cb) {
			t.Fatalf("%s: class sets differ", w)
		}
		for i := range ca {
			if ca[i] != cb[i] {
				t.Errorf("%s: %s vs %s", w, ca[i], cb[i])
			}
		}
	}
}

// TestChaseExpectations checks the generator's closed-form atom counts
// against the engine on one database of each chase family.
func TestChaseExpectations(t *testing.T) {
	g, err := newGenerator("cli-batch", 5)
	if err != nil {
		t.Fatal(err)
	}
	for ci, c := range g.classes {
		if c.kind != kindChase {
			continue
		}
		o := g.classOp(ci, 0)
		prog, err := parser.Parse(o.Program)
		if err != nil {
			t.Fatal(err)
		}
		run := chase.RunChase(prog.Database, prog.TGDs, chase.Options{MaxSteps: chaseMaxSteps, DropSteps: true})
		if !run.Terminated() || run.Final.Len() != o.Atoms {
			t.Errorf("%s: %s with %d atoms, generator expects fixpoint with %d", o.Class, run.Reason, run.Final.Len(), o.Atoms)
		}
	}
}

// classCounts tallies a sequence by kind and class, sorted.
func classCounts(ops []op) []string {
	m := map[string]int{}
	for _, o := range ops {
		m[o.Kind.String()+"/"+o.Class]++
	}
	var out []string
	for k, v := range m {
		out = append(out, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(out)
	return out
}
