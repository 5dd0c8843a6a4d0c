package guarded

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"airct/internal/acyclicity"
	"airct/internal/chase"
	"airct/internal/etypes"
	"airct/internal/instance"
	"airct/internal/logic"
	"airct/internal/ochase"
	"airct/internal/panics"
	"airct/internal/tgds"
)

// Verdict is the outcome of the CT^res_∀∀(G) decision.
type Verdict struct {
	// Terminates is true when every restricted chase derivation of every
	// database terminates (w.r.t. the procedure's bound; see Method).
	Terminates bool
	// Method names the deciding argument: "weak-acyclicity" (sound proof),
	// "divergence-witness" (sound refutation: a concrete database and a
	// pumpable derivation), or "seed-exhaustion" (bounded claim: every
	// seed database chased quietly to fixpoint).
	Method string
	// Witness is the diverging seed database when Terminates is false.
	Witness *instance.Database
	// Evidence describes the divergence certificate (guard-chain pump).
	Evidence string
	// PumpDepth is, on a "divergence-witness" verdict, the length of the
	// shortest run prefix that already carries the certificate — the later
	// step of the repeated signature pair, 1-based. The certificate is
	// budget-independent: any chase of this seed under the same order that
	// runs at least PumpDepth steps surfaces it. Persisted through the
	// seed-outcome ledger, so a cache replay reports the cold run's depth;
	// zero only when the verdict carries no pump ("budget-exhausted").
	PumpDepth int
	// SeedsTried counts candidate databases examined.
	SeedsTried int
	// Budget is the per-seed step budget used.
	Budget int
}

// Budget defaults: what DecideOptions resolves a zero MaxSteps or MaxSeeds
// to. Callers that fold the resolved budgets into a cache key use them too.
const (
	DefaultMaxSteps = 2000
	DefaultMaxSeeds = 256
)

// DecideOptions configures the decision procedure.
type DecideOptions struct {
	// MaxSteps is the per-seed restricted-chase budget (0: DefaultMaxSteps).
	MaxSteps int
	// MaxSeeds caps the candidate databases (0: DefaultMaxSeeds).
	MaxSeeds int
	// ExtraSeeds adds caller-provided databases to the pool.
	ExtraSeeds []*instance.Database
	// Workers bounds the worker pool chasing seed databases (the per-seed
	// chases are independent: each run owns its instance and interner).
	// 0 uses GOMAXPROCS; 1 scans sequentially. The verdict — including
	// Witness, Evidence and SeedsTried — is deterministic regardless of
	// worker count: outcomes are combined in canonical seed order.
	Workers int
	// Cache, when set, memoises the per-seed chase batteries (and the
	// generated seed pools and the engine's initial trigger queues) across
	// Decide calls on (TGD-set fingerprint, seed fingerprint) keys — see
	// internal/chase/cache.go. Verdicts are bit-identical with and without
	// a cache, and across cold and warm caches. Safe to share one cache
	// across concurrent Decide calls and across the seed worker pool.
	Cache *chase.Cache
	// ProbeAcceptOnly restricts ProbeSeeds to its accept-only behaviour:
	// a probe never rejects, a pump surfaced at budget k only routes the
	// input onward. The zero value enables the rejecting fast path (a
	// pump on a seed's k-prefix is a budget-independent divergence
	// certificate and decides outright — see ProbeSeeds). The toggle
	// exists so benchmarks can reproduce the pre-reject cascade as a
	// baseline; it does not affect Decide itself.
	ProbeAcceptOnly bool
}

func (o DecideOptions) maxSteps() int {
	if o.MaxSteps <= 0 {
		return DefaultMaxSteps
	}
	return o.MaxSteps
}

func (o DecideOptions) maxSeeds() int {
	if o.MaxSeeds <= 0 {
		return DefaultMaxSeeds
	}
	return o.MaxSeeds
}

func (o DecideOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// Decide decides CT^res_∀∀(G) for a single-head guarded set.
//
// The paper reduces the complement to MSOL satisfiability over infinite
// trees (Theorem 5.1); this implementation replaces the MSOL step with a
// bounded certificate search over the same objects (docs/ARCHITECTURE.md,
// "The guarded decision"):
//
//  1. weak acyclicity proves termination outright;
//  2. otherwise, seed databases are generated from the TGD bodies —
//     canonical (frozen) bodies under every variable unification, plus the
//     Treeification expansions of Appendix C.2, which supply the remote
//     side atoms that Example 5.6 shows are necessary;
//  3. each seed is chased (restricted, fair FIFO order plus perturbed
//     orders); a budget-exhausted run is mined for a guard-chain pump — a
//     repeated (TGD, equality-type, guard-sharing) signature along a
//     guard-ancestor chain — which certifies divergence by the
//     finite-alphabet regularity of Λ_T;
//  4. if every seed saturates, the set is declared terminating.
func Decide(set *tgds.Set, opts DecideOptions) (*Verdict, error) {
	return DecideContext(context.Background(), set, opts)
}

// DecideContext is Decide under a context: the per-seed chase batteries run
// on chase.RunChaseContext (cancellation observed every few dozen trigger
// pops) and the seed scan — sequential or pooled — stops claiming seeds once
// the context fires. A cancelled call returns ctx's error; no partial
// battery outcome is interpreted or cached. Uncancelled calls behave
// identically to Decide.
func DecideContext(ctx context.Context, set *tgds.Set, opts DecideOptions) (*Verdict, error) {
	if !set.IsGuarded() {
		return nil, fmt.Errorf("guarded: Decide requires a single-head guarded set")
	}
	if acyclicity.IsWeaklyAcyclic(set) {
		return &Verdict{Terminates: true, Method: "weak-acyclicity"}, nil
	}
	budget := opts.maxSteps()
	seeds := generateSeedsCached(set, opts.maxSeeds(), opts.Cache)
	seeds = append(seeds, opts.ExtraSeeds...)
	outcomes, err := chaseSeedsContext(ctx, set, seeds, budget, opts.workers(), opts.Cache)
	if err != nil {
		return nil, err
	}
	for i, v := range outcomes {
		if v == nil {
			continue // seed chased quietly to fixpoint under every order
		}
		v.SeedsTried = i + 1
		v.Budget = budget
		return v, nil
	}
	return &Verdict{
		Terminates: true,
		Method:     "seed-exhaustion",
		SeedsTried: len(seeds),
		Budget:     budget,
	}, nil
}

// chaseSeed runs one seed's bounded restricted chases (fair FIFO plus
// perturbed orders) and returns a divergence verdict, or nil when every
// order saturated quietly, plus the battery's saturation depth — the
// deepest chase among the orders on a saturating seed, or the diverging
// run's step count. SeedsTried and Budget are filled by the caller. With a
// cache, the battery outcome is keyed by (set fingerprint, seed
// fingerprint, budget): a hit rebuilds the verdict around the caller's own
// seed database without chasing and replays the recorded depth; the three
// chase orders of a miss share the engine-level seed-index entries through
// chase.Options.Cache.
func chaseSeed(ctx context.Context, set *tgds.Set, seed *instance.Database, budget int, cache *chase.Cache, setFP, seedFP logic.Fingerprint) (*Verdict, int) {
	if cache != nil {
		if o, ok := cache.LookupSeedOutcome(setFP, seedFP, budget); ok {
			if !o.Diverges {
				return nil, o.Steps
			}
			return &Verdict{Terminates: false, Method: o.Method, Witness: seed, Evidence: o.Evidence, PumpDepth: o.PumpDepth}, o.Steps
		}
	}
	v, steps := chaseSeedBattery(ctx, set, seed, budget, cache)
	if v == cancelledVerdict {
		// A cancelled battery proves nothing; never cache it.
		return v, steps
	}
	if cache != nil {
		o := chase.SeedOutcome{Steps: steps}
		if v != nil {
			o = chase.SeedOutcome{Diverges: true, Method: v.Method, Evidence: v.Evidence, Steps: steps, PumpDepth: v.PumpDepth}
		}
		cache.StoreSeedOutcome(setFP, seedFP, budget, o)
	}
	return v, steps
}

// cancelledVerdict is the in-package sentinel a battery returns when its
// context fired mid-chase: callers translate it to ctx.Err() and must never
// cache or interpret it.
var cancelledVerdict = &Verdict{Method: "cancelled"}

// chaseSeedBattery is the uncached battery: fair FIFO, then a perturbed
// Random order, then LIFO. The returned depth is the deepest chase among
// the orders (the diverging run's step count when an order diverged).
func chaseSeedBattery(ctx context.Context, set *tgds.Set, seed *instance.Database, budget int, cache *chase.Cache) (*Verdict, int) {
	depth := 0
	for _, o := range []chase.Options{
		{Variant: chase.Restricted, Strategy: chase.FIFO, MaxSteps: budget, Cache: cache},
		{Variant: chase.Restricted, Strategy: chase.Random, Seed: 1, MaxSteps: budget, Cache: cache},
		{Variant: chase.Restricted, Strategy: chase.LIFO, MaxSteps: budget, Cache: cache},
	} {
		run := chase.RunChaseContext(ctx, seed, set, o)
		if run.Reason == chase.Cancelled {
			return cancelledVerdict, depth
		}
		if run.StepsTaken > depth {
			depth = run.StepsTaken
		}
		if run.Terminated() {
			continue
		}
		if ev, depth, ok := DivergencePump(run); ok {
			return &Verdict{
				Terminates: false,
				Method:     "divergence-witness",
				Witness:    seed,
				Evidence:   ev,
				PumpDepth:  depth,
			}, run.StepsTaken
		}
		// Budget exhausted without a pump: report divergence with weaker
		// evidence rather than silently claiming termination.
		return &Verdict{
			Terminates: false,
			Method:     "budget-exhausted",
			Witness:    seed,
			Evidence:   fmt.Sprintf("no fixpoint after %d steps (no pump found)", budget),
		}, run.StepsTaken
	}
	return nil, depth
}

// chaseSeedsContext computes every seed's outcome on a bounded worker pool. The
// per-seed chases are independent (each RunChase clones the seed into a
// fresh instance with its own interner), so the pool may finish them in any
// order; Decide then combines outcomes in canonical seed order, which keeps
// the verdict bit-identical to a sequential scan. Seeds are claimed in
// ascending index order and a worker stops once every remaining index lies
// beyond the lowest diverging index found so far — those outcomes cannot
// affect the combined verdict.
//
// Seeds are deduplicated by exact content fingerprint before chasing:
// GenerateSeeds dedups isomorphism-insensitively within its own pool, but
// ExtraSeeds and treeification can repeat exact databases, and within one
// pool the cross-run cache cannot hit (every fingerprint is new there).
// Each distinct fingerprint is chased once; a duplicate's outcome slot is
// simply left nil, which cannot change the combined verdict — its
// representative sits at a strictly earlier index with the identical
// outcome (the engine's trigger order is canonical in term content), so
// Decide's first-non-nil scan never reaches the duplicate.
func chaseSeedsContext(ctx context.Context, set *tgds.Set, seeds []*instance.Database, budget, workers int, cache *chase.Cache) ([]*Verdict, error) {
	fps := make([]logic.Fingerprint, len(seeds))
	first := make(map[logic.Fingerprint]struct{}, len(seeds))
	uniq := make([]int, 0, len(seeds))
	for i, s := range seeds {
		fps[i] = logic.FingerprintAtoms(s.Atoms())
		if _, dup := first[fps[i]]; !dup {
			first[fps[i]] = struct{}{}
			uniq = append(uniq, i)
		}
	}
	var setFP logic.Fingerprint
	if cache != nil {
		setFP = set.Fingerprint()
	}
	chaseOne := func(i int) *Verdict {
		v, _ := chaseSeed(ctx, set, seeds[i], budget, cache, setFP, fps[i])
		return v
	}
	return sweepSeeds(ctx, len(seeds), uniq, workers, chaseOne)
}

// sweepSeeds runs chaseOne over the seed indexes uniq (ascending) and
// returns the outcomes indexed by seed, n slots in all: sequentially with
// early exit at the first non-nil outcome when workers ≤ 1, else on the
// bounded pool chaseSeedsContext describes. A panic in chaseOne is
// recovered into a *panics.Error naming the seed, on either path, and
// returned instead of killing the process from a worker goroutine.
func sweepSeeds(ctx context.Context, n int, uniq []int, workers int, chaseOne func(i int) *Verdict) ([]*Verdict, error) {
	out := make([]*Verdict, n)
	try := func(i int) (v *Verdict, err error) {
		defer panics.Recover(&err, "guarded seed %d", i)
		return chaseOne(i), nil
	}
	if workers > len(uniq) {
		workers = len(uniq)
	}
	if workers <= 1 {
		for _, i := range uniq {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			v, err := try(i)
			if err != nil {
				return nil, err
			}
			if v == cancelledVerdict {
				return nil, ctx.Err()
			}
			if out[i] = v; v != nil {
				break
			}
		}
		return out, nil
	}
	var next atomic.Int64
	var best atomic.Int64 // lowest diverging seed index found so far
	best.Store(int64(n))
	var cancelled atomic.Bool
	var failed atomic.Pointer[error] // first recovered panic
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					cancelled.Store(true)
					return
				}
				u := int(next.Add(1) - 1)
				if u >= len(uniq) || int64(uniq[u]) > best.Load() || failed.Load() != nil {
					return
				}
				i := uniq[u]
				v, err := try(i)
				if err != nil {
					failed.CompareAndSwap(nil, &err)
					return
				}
				if v != nil {
					if v == cancelledVerdict {
						cancelled.Store(true)
						return
					}
					out[i] = v
					for {
						b := best.Load()
						if int64(i) >= b || best.CompareAndSwap(b, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := failed.Load(); err != nil {
		return nil, *err
	}
	if cancelled.Load() {
		return nil, ctx.Err()
	}
	return out, nil
}

// cachedSeedPool rebuilds the cross-run cached seed pool for (set
// fingerprint, pool cap): fresh Database values from the stored atoms in
// the stored order, reproducing the generated pool exactly.
func cachedSeedPool(setFP logic.Fingerprint, maxSeeds int, cache *chase.Cache) ([]*instance.Database, bool) {
	pool, ok := cache.LookupSeedPool(setFP, maxSeeds)
	if !ok {
		return nil, false
	}
	out := make([]*instance.Database, len(pool.Seeds))
	for i, atoms := range pool.Seeds {
		db := instance.NewDatabase()
		for _, a := range atoms {
			if err := db.Add(a); err != nil {
				// Cached pools are GenerateSeeds output: ground atoms a
				// Database already accepted once.
				panic(err)
			}
		}
		out[i] = db
	}
	return out, true
}

// storeSeedPool records a fully generated pool in the cross-run cache.
func storeSeedPool(setFP logic.Fingerprint, maxSeeds int, cache *chase.Cache, seeds []*instance.Database) {
	pool := &chase.SeedPool{Seeds: make([][]logic.Atom, len(seeds))}
	for i, db := range seeds {
		pool.Seeds[i] = append([]logic.Atom(nil), db.Atoms()...)
	}
	cache.StoreSeedPool(setFP, maxSeeds, pool)
}

// generateSeedsCached wraps GenerateSeeds with the cross-run seed-pool
// cache: generation — including the oblivious-chase treeification
// expansions, the expensive part — runs once per (set fingerprint, pool
// cap).
func generateSeedsCached(set *tgds.Set, maxSeeds int, cache *chase.Cache) []*instance.Database {
	if cache == nil {
		return GenerateSeeds(set, maxSeeds)
	}
	setFP := set.Fingerprint()
	if pool, ok := cachedSeedPool(setFP, maxSeeds, cache); ok {
		return pool
	}
	seeds := GenerateSeeds(set, maxSeeds)
	storeSeedPool(setFP, maxSeeds, cache, seeds)
	return seeds
}

// seedEnum enumerates the GenerateSeeds pool incrementally, in exactly
// GenerateSeeds' order: first every frozen body of every TGD under every
// unification of its body variables (the canonical databases, refined by
// equality type), then the Treeification expansions computed from
// real-oblivious-chase fragments of those base seeds (Appendix C.2's
// remote-side-parent service). The cheap canonical phase runs eagerly at
// construction; each treeification expansion — the expensive part — is
// built only when the consumer asks for the next seed, so a sweep that
// stops early (the probe deciding on, or stopped by, an early seed) never
// pays for the bases it does not reach.
type seedEnum struct {
	set      *tgds.Set
	maxSeeds int
	seen     map[logic.Fingerprint]bool
	pool     []*instance.Database
	nbase    int // phase-one prefix length: the treeification bases
	base     int // next base to expand
	next     int // next pool index to yield
}

func newSeedEnum(set *tgds.Set, maxSeeds int) *seedEnum {
	e := &seedEnum{set: set, maxSeeds: maxSeeds, seen: make(map[logic.Fingerprint]bool)}
	namer := logic.NewFreshNamer("s")
	for _, t := range set.TGDs {
		for _, unified := range unifications(t.Body) {
			frozen, _ := logic.CanonicalFreeze(unified, namer)
			db := instance.NewDatabase()
			okAll := true
			for _, a := range frozen {
				if err := db.Add(a); err != nil {
					okAll = false
					break
				}
			}
			if okAll {
				e.add(db)
			}
		}
	}
	e.nbase = len(e.pool)
	return e
}

func (e *seedEnum) add(db *instance.Database) {
	if len(e.pool) >= e.maxSeeds {
		return
	}
	// Isomorphism-insensitive dedup: canonicalise, then take the
	// order-independent set fingerprint — no key strings rendered or
	// sorted. canonicalizeAtoms renames injectively, so the canonical
	// slice is duplicate-free as FingerprintAtoms requires.
	key := logic.FingerprintAtoms(canonicalizeAtoms(db.Atoms()))
	if e.seen[key] {
		return
	}
	e.seen[key] = true
	e.pool = append(e.pool, db)
}

// Next yields the pool's next seed, expanding treeifications on demand.
func (e *seedEnum) Next() (*instance.Database, bool) {
	for e.next >= len(e.pool) {
		if e.base >= e.nbase || len(e.pool) >= e.maxSeeds {
			return nil, false
		}
		seed := e.pool[e.base]
		e.base++
		g := ochase.Build(seed, e.set, ochase.BuildOptions{MaxNodes: 600, MaxDepth: 6})
		tr, err := Treeify(g, TreeifyOptions{IncludeDirect: true})
		if err != nil {
			continue
		}
		e.add(tr.Database())
	}
	db := e.pool[e.next]
	e.next++
	return db, true
}

// drained reports whether the enumeration ran to completion, i.e. the pool
// slice now equals GenerateSeeds' output.
func (e *seedEnum) drained() bool {
	return e.next >= len(e.pool) && (e.base >= e.nbase || len(e.pool) >= e.maxSeeds)
}

// GenerateSeeds produces candidate databases for the search — see seedEnum
// for the enumeration order.
func GenerateSeeds(set *tgds.Set, maxSeeds int) []*instance.Database {
	e := newSeedEnum(set, maxSeeds)
	for {
		if _, ok := e.Next(); !ok {
			return e.pool
		}
	}
}

// canonicalizeAtoms renames constants by first occurrence so seed dedup is
// isomorphism-insensitive.
func canonicalizeAtoms(atoms []logic.Atom) []logic.Atom {
	logic.SortAtoms(atoms)
	ren := make(map[logic.Term]logic.Term)
	next := 0
	out := make([]logic.Atom, len(atoms))
	for i, a := range atoms {
		args := make([]logic.Term, len(a.Args))
		for j, t := range a.Args {
			r, ok := ren[t]
			if !ok {
				r = logic.Const(fmt.Sprintf("k%d", next))
				next++
				ren[t] = r
			}
			args[j] = r
		}
		out[i] = logic.NewAtom(a.Pred, args...)
	}
	return out
}

// unifications enumerates the images of the body under every partition of
// its variables (capped to keep Bell growth sane: bodies with more than 5
// variables only get the identity partition).
func unifications(body []logic.Atom) [][]logic.Atom {
	vars := logic.VarsOf(body).Sorted()
	if len(vars) > 5 {
		return [][]logic.Atom{body}
	}
	var out [][]logic.Atom
	for _, e := range etypes.AllForPredicate(logic.Pred("partition", len(vars))) {
		sub := logic.NewSubstitution()
		for i, v := range vars {
			rep := vars[e.ClassOf(i+1)-1]
			if rep != v {
				sub.Bind(v, rep)
			}
		}
		out = append(out, sub.ApplyAtoms(body))
	}
	return out
}

// DivergenceEvidence mines a budget-exhausted restricted chase run for a
// guard-chain pump, discarding the pump depth DivergencePump also reports.
func DivergenceEvidence(run *chase.Run) (string, bool) {
	ev, _, ok := DivergencePump(run)
	return ev, ok
}

// DivergencePump mines a restricted chase run for a guard-chain pump: two
// steps on the same guard-ancestor chain whose produced atoms share the
// (TGD, equality type, guard-sharing pattern) signature, with the later
// atom introducing fresh nulls. Over the finite alphabet Λ_T such a
// repetition witnesses an infinite regular chaseable abstract join tree,
// i.e. genuine divergence. The returned depth is the 1-based index of the
// later step of the repeated pair: the certificate lives entirely in the
// run's depth-step prefix, so it is independent of the budget the run was
// chased under — a pump found on a k-step probe prefix is the same witness
// a full-budget chase of the same order would surface.
func DivergencePump(run *chase.Run) (string, int, bool) {
	type info struct {
		step     int
		parentFP logic.Fingerprint // guard image atom hash
		sig      string
		fresh    bool // produced atom invents a null at this step
	}
	infos := make([]info, len(run.Steps))
	producedBy := make(map[logic.Fingerprint]int) // atom hash -> producing step
	for i, step := range run.Steps {
		tr := step.Trigger
		guard, ok := tr.TGD.Guard()
		if !ok {
			return "", 0, false
		}
		guardImage := guard.Apply(tr.H)
		produced := step.Result[0]
		infos[i] = info{
			step:     i,
			parentFP: logic.HashAtom(guardImage),
			sig:      stepSignature(tr.TGDIndex, produced, guardImage),
			fresh:    introducesFreshNull(produced, guardImage),
		}
		for _, a := range step.Added {
			h := logic.HashAtom(a)
			if _, dup := producedBy[h]; !dup {
				producedBy[h] = i
			}
		}
	}
	// Walk guard chains from each step upward, looking for a repeated
	// signature whose steps invent fresh nulls — a repetition of a
	// null-free signature cannot grow the term set and is no pump (a
	// terminating cycle closed by a frontier-free existential TGD would
	// otherwise be misread as divergence).
	for i := len(run.Steps) - 1; i >= 0; i-- {
		seenSigs := map[string]int{infos[i].sig: i}
		cur := i
		for {
			parentStep, ok := producedBy[infos[cur].parentFP]
			if !ok || parentStep >= cur {
				break
			}
			if first, dup := seenSigs[infos[parentStep].sig]; dup && infos[parentStep].fresh && infos[first].fresh {
				tr := run.Steps[parentStep].Trigger
				return fmt.Sprintf("guard-chain pump: %s repeats signature between steps %d and %d (period %d)",
					tr.TGD.Label, parentStep, first, first-parentStep), first + 1, true
			}
			if _, dup := seenSigs[infos[parentStep].sig]; !dup {
				seenSigs[infos[parentStep].sig] = parentStep
			}
			cur = parentStep
		}
	}
	return "", 0, false
}

// introducesFreshNull reports whether the produced atom carries a null that
// does not occur in its guard image. In a guarded TGD the guard contains
// every body variable, so every propagated term of the result appears among
// the guard image's arguments — a null absent from them was invented by
// this very step.
func introducesFreshNull(produced, guardImage logic.Atom) bool {
	for _, t := range produced.Args {
		if !t.IsNull() {
			continue
		}
		inGuard := false
		for _, u := range guardImage.Args {
			if t == u {
				inGuard = true
				break
			}
		}
		if !inGuard {
			return true
		}
	}
	return false
}

// stepSignature abstracts a produced atom to its Λ_T letter: the TGD, the
// atom's equality type, and which positions it shares with its guard image.
func stepSignature(tgdIndex int, produced, guardImage logic.Atom) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d|%s|", tgdIndex, etypes.Of(produced).Key())
	for i, t := range produced.Args {
		for j, u := range guardImage.Args {
			if t == u {
				fmt.Fprintf(&b, "%d=%d,", i, j)
			}
		}
	}
	return b.String()
}
