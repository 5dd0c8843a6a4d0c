// Package core is the library's façade: it analyses a set of TGDs for
// all-instances restricted chase termination (the paper's CT^res_∀∀
// membership problem), combining class detection, the sufficient-condition
// baselines, and the two decision procedures of the paper — the abstract-
// join-tree search for guarded sets (Section 5) and the caterpillar Büchi
// automaton for sticky sets (Section 6).
package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"

	"airct/internal/acyclicity"
	"airct/internal/chase"
	"airct/internal/guarded"
	"airct/internal/logic"
	"airct/internal/sticky"
	"airct/internal/tgds"
)

// Conclusion is the aggregate termination verdict.
type Conclusion uint8

const (
	// Unknown: no decision procedure applied (outside G and S, and no
	// sufficient condition fired). CT^res_∀∀ is undecidable in general
	// (Theorem 3.6), so Unknown is an honest possible answer.
	Unknown Conclusion = iota
	// Terminates: every valid restricted chase derivation of every
	// database is finite.
	Terminates
	// Diverges: some database admits an infinite fair restricted chase
	// derivation.
	Diverges
)

func (c Conclusion) String() string {
	switch c {
	case Terminates:
		return "terminates"
	case Diverges:
		return "diverges"
	default:
		return "unknown"
	}
}

// Report collects everything the analyzer derived about a set.
type Report struct {
	// Class flags.
	SingleHead      bool
	Guarded         bool
	Linear          bool
	Sticky          bool
	Full            bool
	FrontierGuarded bool
	WeaklyAcyclic   bool
	JointlyAcyclic  bool
	// MFA is true when the model-faithful-acyclicity check accepted the
	// set within its step budget (false means "not proven", not "cyclic").
	MFA bool
	// EGDs is the number of equality-generating dependencies in the set.
	// When non-zero, the class flags above describe the TGDs alone, and
	// only the EGD-sound conclusions (existential-free, weak acyclicity)
	// are drawn — the decision procedures and the remaining baselines are
	// TGD-only.
	EGDs int
	// NeverFiring lists the labels of TGDs pruned as never-firing (head
	// folds into body over the frontier; see acyclicity.PruneNeverFiring).
	NeverFiring []string

	// GuardedVerdict is set when the guarded procedure ran (nil on a
	// replayed report).
	GuardedVerdict *guarded.Verdict
	// StickyVerdict is set when the sticky (Büchi) procedure ran (nil on a
	// replayed report).
	StickyVerdict *sticky.Verdict

	// Conclusion aggregates the verdicts; Reasons explains each input to
	// the aggregation, in order of application.
	Conclusion Conclusion
	Reasons    []string
	// CacheHit is true when the report was replayed from Options.Cache
	// without running any check. Its Conclusion, Reasons, flags,
	// NeverFiring and Summary are byte-identical to the cold report's.
	CacheHit bool

	// ledger is the report in the cache's portable shape, built as the
	// analysis runs: one record per reason, in order, named after the stage
	// that gave it (the portfolio's stage vocabulary; empty for the EGD
	// gating notes and the undecidable fallback). Decided marks a
	// conclusion that agreed with the aggregate. Evidence holds what the
	// set alone cannot rebuild: the witness line Summary prints (sticky,
	// guarded) and the newline-joined NeverFiring labels (jointree-prune).
	// A prune that removed rules without deciding leaves a record with an
	// empty Detail: it carries NeverFiring but is not a reason.
	ledger []chase.StageRecord
}

// The ledger's stage names: the portfolio's names for the same checks.
const (
	stageFull  = "full"
	stageWA    = "weak-acyclicity"
	stageJA    = "joint-acyclicity"
	stagePrune = "jointree-prune"
	stageMFA   = "mfa"
	stageStick = "sticky"
	stageGuard = "guarded"
)

// DefaultMFASteps is what Options resolves a zero MFASteps to.
const DefaultMFASteps = 20_000

// Options configures the analyzer.
type Options struct {
	// GuardedOptions tunes the guarded seed search.
	GuardedOptions guarded.DecideOptions
	// StickyOptions tunes the Büchi exploration.
	StickyOptions sticky.DecideOptions
	// MFASteps bounds the MFA check's semi-oblivious critical-instance
	// chase (0: DefaultMFASteps). The check is skipped with SkipBaselines.
	MFASteps int
	// SkipBaselines disables the sufficient-condition checks — WA, JA,
	// the never-firing prune and MFA — used by experiments that time the
	// decision procedures in isolation.
	SkipBaselines bool
	// Cache, when set, memoises the whole analysis as a stage ledger in the
	// cache's StageOutcomes kind, keyed by the set fingerprint, the zero
	// instance fingerprint and a salt folding in every budget (never
	// worker counts), like portfolio.Options.Cache. A hit replays the
	// report without running any check. GuardedOptions.Cache and
	// StickyOptions.Cache are independent of it.
	Cache *chase.Cache
}

func (o Options) mfaSteps() int {
	if o.MFASteps <= 0 {
		return DefaultMFASteps
	}
	return o.MFASteps
}

// salt folds every budget the analysis resolves into the ledger key. The
// "flat" tag keeps flat entries apart from portfolio entries for the same
// set and budgets; worker counts are excluded because verdicts are
// worker-invariant.
func (o Options) salt() uint64 {
	g, st := o.GuardedOptions, o.StickyOptions
	h := fnv.New64a()
	fmt.Fprintf(h, "flat|%d|%d|%d|%d|%t",
		orDefault(g.MaxSteps, guarded.DefaultMaxSteps),
		orDefault(g.MaxSeeds, guarded.DefaultMaxSeeds),
		orDefault(st.MaxStates, sticky.DefaultMaxStates),
		o.mfaSteps(), o.SkipBaselines)
	for _, db := range g.ExtraSeeds {
		fmt.Fprintf(h, "|%v", db.Fingerprint())
	}
	return h.Sum64()
}

func orDefault(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// Analyze inspects the set and decides CT^res_∀∀ membership where the
// paper's results make that possible.
func Analyze(set *tgds.Set, opts Options) (*Report, error) {
	return AnalyzeContext(context.Background(), set, opts)
}

// AnalyzeContext is Analyze with cancellation: the context is threaded into
// the MFA baseline's chase, the sticky Büchi exploration and the guarded
// seed search (the procedures that can run long), which observe it inside
// their inner loops and return its error promptly. The report is
// bit-identical to Analyze's on an uncancelled context — the baselines and
// the procedure order are unchanged. With Options.Cache set, a finished analysis is stored as a
// stage ledger and a later call with the same set and budgets replays it;
// a cancelled or failed analysis stores nothing.
func AnalyzeContext(ctx context.Context, set *tgds.Set, opts Options) (*Report, error) {
	if set.Len() == 0 && !set.HasEGDs() {
		return nil, fmt.Errorf("core: empty TGD set")
	}
	var salt uint64
	if opts.Cache != nil {
		salt = opts.salt()
		if so, ok := opts.Cache.LookupStageOutcomes(set.Fingerprint(), logic.Fingerprint{}, salt); ok {
			return replay(set, so), nil
		}
	}
	r, err := analyze(ctx, set, opts)
	if err != nil {
		return nil, err
	}
	if opts.Cache != nil && ctx.Err() == nil {
		opts.Cache.StoreStageOutcomes(set.Fingerprint(), logic.Fingerprint{}, salt, r.outcomes())
	}
	return r, nil
}

// newReport fills the syntactic class flags, which the set determines.
func newReport(set *tgds.Set) *Report {
	return &Report{
		SingleHead:      set.IsSingleHead(),
		Guarded:         set.IsGuarded(),
		Linear:          set.IsLinear(),
		Sticky:          set.IsSticky(),
		Full:            set.IsFull(),
		FrontierGuarded: set.IsFrontierGuarded(),
		EGDs:            set.NumEGDs(),
	}
}

func analyze(ctx context.Context, set *tgds.Set, opts Options) (*Report, error) {
	r := newReport(set)
	if r.Full {
		// Full (existential-free) sets never invent nulls: every chase is
		// bounded by the closure of the active domain. Equality steps only
		// merge existing terms, so the bound survives arbitrary EGDs.
		if set.HasEGDs() {
			r.conclude(stageFull, Terminates, "existential-free TGDs with EGDs: no invented values, and equality steps strictly shrink the term count")
		} else {
			r.conclude(stageFull, Terminates, "full (existential-free) set: the chase cannot invent values")
		}
	}
	if !opts.SkipBaselines {
		// Weak acyclicity is computed over the TGDs alone; the classic data
		// exchange result (Fagin et al.) makes it a sufficient termination
		// condition for weakly acyclic TGDs together with arbitrary EGDs.
		// The other baselines — joint acyclicity, the never-firing prune,
		// MFA — have no published EGD-aware counterpart, so they are gated
		// to TGD-only sets: their termination arguments do not account for
		// the triggers an equality merge can create.
		r.WeaklyAcyclic = acyclicity.IsWeaklyAcyclic(set)
		if r.WeaklyAcyclic {
			if set.HasEGDs() {
				r.conclude(stageWA, Terminates, "weak acyclicity of the TGDs (sufficient with arbitrary EGDs, Fagin et al.)")
			} else {
				r.conclude(stageWA, Terminates, "weak acyclicity (sufficient condition)")
			}
		}
		if set.HasEGDs() {
			r.reason("", "EGDs present: joint acyclicity, the never-firing prune and MFA are TGD-only baselines and were skipped")
		} else {
			r.JointlyAcyclic = acyclicity.IsJointlyAcyclic(set)
			if r.JointlyAcyclic {
				r.conclude(stageJA, Terminates, "joint acyclicity (sufficient condition)")
			}
			if pruned, removed := acyclicity.PruneNeverFiring(set); len(removed) > 0 {
				for _, i := range removed {
					r.NeverFiring = append(r.NeverFiring, set.TGDs[i].Label)
				}
				switch {
				case pruned == nil:
					r.conclude(stagePrune, Terminates, fmt.Sprintf("jointree prune: all %d TGDs are never-firing (head folds into body over the frontier)", len(removed)))
				case pruned.IsFull():
					r.conclude(stagePrune, Terminates, fmt.Sprintf("jointree prune: %d never-firing TGDs removed; remainder is existential-free", len(removed)))
				case acyclicity.IsWeaklyAcyclic(pruned):
					r.conclude(stagePrune, Terminates, fmt.Sprintf("jointree prune: %d never-firing TGDs removed; remainder is weakly acyclic", len(removed)))
				case acyclicity.IsJointlyAcyclic(pruned):
					r.conclude(stagePrune, Terminates, fmt.Sprintf("jointree prune: %d never-firing TGDs removed; remainder is jointly acyclic", len(removed)))
				default:
					r.reason(stagePrune, "") // carries NeverFiring only
				}
				r.evidence(strings.Join(r.NeverFiring, "\n"))
			}
			mfa, err := acyclicity.CheckMFAContext(ctx, set, opts.mfaSteps())
			if err != nil {
				return nil, err
			}
			if mfa.Acyclic {
				r.MFA = true
				r.conclude(stageMFA, Terminates, fmt.Sprintf("MFA: semi-oblivious critical-instance chase saturated in %d steps (sufficient condition)", mfa.Steps))
			}
		}
	}
	if r.Sticky {
		v, err := sticky.DecideContext(ctx, set, opts.StickyOptions)
		if err != nil {
			return nil, err
		}
		r.StickyVerdict = v
		if v.Terminates {
			if v.Complete {
				r.conclude(stageStick, Terminates, "sticky Büchi automaton A_T is empty (Theorem 6.1)")
			} else {
				r.reason(stageStick, "sticky Büchi exploration incomplete (state bound); no witness found")
			}
		} else {
			r.conclude(stageStick, Diverges, fmt.Sprintf(
				"sticky Büchi witness: caterpillar lasso of length %d+%d (Theorem 6.1)",
				len(v.Lasso.Prefix), len(v.Lasso.Cycle)))
			r.evidence(fmt.Sprintf("witness (sticky): seed %v, lasso prefix %v cycle %v",
				v.Seed.EType, v.Lasso.Prefix, v.Lasso.Cycle))
		}
	}
	if r.Guarded {
		v, err := guarded.DecideContext(ctx, set, opts.GuardedOptions)
		if err != nil {
			return nil, err
		}
		r.GuardedVerdict = v
		switch {
		case v.Terminates && v.Method == "weak-acyclicity":
			r.conclude(stageGuard, Terminates, "guarded: weak acyclicity")
		case v.Terminates:
			r.conclude(stageGuard, Terminates, fmt.Sprintf("guarded: %d seeds exhausted at budget %d (Theorem 5.1, bounded search)", v.SeedsTried, v.Budget))
		case v.Method == "divergence-witness":
			r.conclude(stageGuard, Diverges, fmt.Sprintf("guarded: diverging witness database (%s)", v.Evidence))
		default:
			r.reason(stageGuard, fmt.Sprintf("guarded: budget exhausted without certificate (%s)", v.Evidence))
		}
		if !v.Terminates && v.Witness != nil {
			r.evidence(fmt.Sprintf("witness (guarded): database %v", v.Witness))
		}
	}
	if set.HasEGDs() && r.Conclusion == Unknown {
		r.reason("", "the guarded and sticky decision procedures are TGD-only and do not run on sets with EGDs")
	}
	if r.Conclusion == Unknown && len(r.Reasons) == 0 {
		r.reason("", "outside the guarded and sticky classes; no sufficient condition fired (CT^res_∀∀ is undecidable in general, Theorem 3.6)")
	}
	return r, nil
}

// conclude records a verdict with its justification, surfacing
// contradictions between procedures loudly instead of masking them.
func (r *Report) conclude(stage string, c Conclusion, why string) {
	if r.Conclusion != Unknown && r.Conclusion != c {
		r.reason(stage, fmt.Sprintf("CONTRADICTION: %s says %v but prior verdict was %v", why, c, r.Conclusion))
		return
	}
	r.Conclusion = c
	r.Reasons = append(r.Reasons, why)
	r.ledger = append(r.ledger, chase.StageRecord{Stage: stage, Decided: true, Verdict: c.String(), Detail: why})
}

// reason records a non-concluding justification; an empty why adds a
// ledger record without a reason.
func (r *Report) reason(stage, why string) {
	if why != "" {
		r.Reasons = append(r.Reasons, why)
	}
	r.ledger = append(r.ledger, chase.StageRecord{Stage: stage, Verdict: Unknown.String(), Detail: why})
}

// evidence attaches to the latest ledger record what replay cannot rebuild
// from the set.
func (r *Report) evidence(s string) {
	r.ledger[len(r.ledger)-1].Evidence = s
}

// outcomes converts a finished report into the portable cache entry. The
// entry shares the report's ledger, which is never mutated afterwards.
func (r *Report) outcomes() *chase.StageOutcomes {
	so := &chase.StageOutcomes{Verdict: r.Conclusion.String(), Records: r.ledger}
	for _, rec := range r.ledger {
		if rec.Decided {
			so.DecidedBy = rec.Stage
			break
		}
	}
	return so
}

// replay rebuilds a report from its ledger. The syntactic class flags come
// from the set; each baseline flag is set exactly when its stage left a
// record, because a baseline gives a reason only when it accepts.
func replay(set *tgds.Set, so *chase.StageOutcomes) *Report {
	r := newReport(set)
	r.Conclusion = ParseConclusion(so.Verdict)
	r.CacheHit = true
	r.ledger = so.Records
	for _, rec := range so.Records {
		if rec.Detail != "" {
			r.Reasons = append(r.Reasons, rec.Detail)
		}
		switch rec.Stage {
		case stageWA:
			r.WeaklyAcyclic = true
		case stageJA:
			r.JointlyAcyclic = true
		case stageMFA:
			r.MFA = true
		case stagePrune:
			r.NeverFiring = strings.Split(rec.Evidence, "\n")
		}
	}
	return r
}

// ParseConclusion inverts Conclusion.String; any other string is Unknown.
func ParseConclusion(s string) Conclusion {
	switch s {
	case "terminates":
		return Terminates
	case "diverges":
		return Diverges
	default:
		return Unknown
	}
}

// Summary renders the report for terminals.
func (r *Report) Summary() string {
	var b strings.Builder
	flag := func(name string, v bool) {
		mark := " "
		if v {
			mark = "x"
		}
		fmt.Fprintf(&b, "  [%s] %s\n", mark, name)
	}
	fmt.Fprintf(&b, "classes:\n")
	flag("single-head", r.SingleHead)
	flag("linear", r.Linear)
	flag("guarded (G)", r.Guarded)
	flag("frontier-guarded", r.FrontierGuarded)
	flag("sticky (S)", r.Sticky)
	flag("full (datalog)", r.Full)
	flag("weakly acyclic", r.WeaklyAcyclic)
	flag("jointly acyclic", r.JointlyAcyclic)
	flag("MFA (critical instance)", r.MFA)
	if r.EGDs > 0 {
		fmt.Fprintf(&b, "egds: %d (class flags describe the TGDs alone)\n", r.EGDs)
	}
	fmt.Fprintf(&b, "verdict: %s\n", r.Conclusion)
	for _, why := range r.Reasons {
		fmt.Fprintf(&b, "  - %s\n", why)
	}
	for _, rec := range r.ledger {
		if (rec.Stage == stageStick || rec.Stage == stageGuard) && rec.Evidence != "" {
			fmt.Fprintf(&b, "%s\n", rec.Evidence)
		}
	}
	return b.String()
}
