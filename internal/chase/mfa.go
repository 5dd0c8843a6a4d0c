package chase

import (
	"context"

	"airct/internal/instance"
	"airct/internal/logic"
	"airct/internal/tgds"
)

// MFA runs the model-faithful acyclicity chase: the semi-oblivious (skolem)
// chase of db under the set's TGDs, with null ancestry tracked by origin.
// A null's origin is the TGD whose application created it, and its
// ancestors are the nulls in the frontier image of that application,
// closed transitively. The run halts as soon as an application would
// create a null with an ancestor of its own origin (a cyclic null).
//
// acyclic is true when the chase saturated within maxSteps applications
// (strictly fewer) without creating a cyclic null; steps is then the number
// of applications, one per frontier class of the skolem fixpoint, which no
// application order changes. On a cyclic null, steps counts the
// applications before it; on budget exhaustion it is maxSteps. maxSteps ≤ 0
// means no budget. EGDs are ignored. The engine polls ctx every
// engineCtxInterval pops; a run it stops returns ctx's error.
//
// Ancestry is a per-null bitset over TGD indexes — the origins of the null
// and of all its ancestors — built from the parents' bitsets at creation,
// so the cycle test is one bit probe rather than a walk of the ancestry.
func MFA(ctx context.Context, db *instance.Database, set *tgds.Set, maxSteps int) (acyclic bool, steps int, err error) {
	if set.HasEGDs() {
		set = &tgds.Set{TGDs: set.TGDs}
	}
	frontier := make([][]int32, len(set.TGDs))
	for i, t := range set.TGDs {
		frontier[i] = frontierSlots(t, t.BodyVars().Sorted())
	}
	words := (len(set.TGDs) + 63) / 64
	var (
		ancestry []uint64 // words per application: the TGDs that created its nulls and their ancestors
		appOf    []int32  // TermID -> 1 + index of the creating application (0: not a chase null)
		bits     = make([]uint64, words)
		cyclic   bool
	)
	observe := func(tgd int, bt []uint32, nulls []logic.TermID) bool {
		if len(nulls) == 0 {
			return true
		}
		clear(bits)
		for _, s := range frontier[tgd] {
			if t := bt[s]; int(t) < len(appOf) && appOf[t] > 0 {
				parent := ancestry[int(appOf[t]-1)*words:][:words]
				for w := range bits {
					bits[w] |= parent[w]
				}
			}
		}
		if bits[tgd/64]&(1<<(tgd%64)) != 0 {
			cyclic = true
			return false
		}
		bits[tgd/64] |= 1 << (tgd % 64)
		ancestry = append(ancestry, bits...)
		app := int32(len(ancestry) / words)
		for _, n := range nulls {
			for int(n) >= len(appOf) {
				appOf = append(appOf, 0)
			}
			appOf[n] = app
		}
		return true
	}
	run := RunChaseContext(ctx, db, set, Options{
		Variant:   SemiOblivious,
		MaxSteps:  maxSteps,
		DropSteps: true,
		onApply:   observe,
	})
	switch {
	case cyclic:
		return false, run.StepsTaken, nil
	case run.Reason == Cancelled:
		return false, run.StepsTaken, ctx.Err()
	}
	return run.Reason == Fixpoint && (maxSteps <= 0 || run.StepsTaken < maxSteps), run.StepsTaken, nil
}
