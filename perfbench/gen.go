package main

// Workload generation. Every operation of every workload is a pure function
// of (workload, seed, sequence index): one seed always yields the
// byte-identical sequence, the end-to-end run and the traced replay consume
// the same operations, and a run of any length consumes a prefix of one
// unbounded sequence.
//
// Each workload is a deck: a fixed multiset of operation classes. Block b of
// the sequence is the deck shuffled by an rng seeded from (seed, b), so any
// whole number of blocks carries exactly the same class mix under every
// seed — the seed changes names, order and random databases, never the
// amount of work. That is what keeps medians and throughput comparable
// across seeds.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"sync"

	"airct/internal/parser"
	"airct/internal/workload"
)

type opKind uint8

const (
	kindDecide             opKind = iota // POST /v1/decide, flat core.AnalyzeContext
	kindPortfolio                        // POST /v1/decide with portfolio=true
	kindExists                           // POST /v1/exists
	kindChase                            // chase -quiet FILE
	kindTermcheck                        // termcheck FILE (flat analysis)
	kindTermcheckExists                  // termcheck -exists FILE
	kindTermcheckPortfolio               // termcheck -portfolio -cache-file F FILE
)

var kindNames = [...]string{"decide", "portfolio", "exists", "chase", "termcheck", "termcheck-exists", "termcheck-portfolio"}

func (k opKind) String() string { return kindNames[k] }

// served reports whether the operation is an HTTP request to termcheckd.
func (k opKind) served() bool { return k <= kindExists }

// op is one operation with the answer the generator expects.
type op struct {
	Seq     int
	Kind    opKind
	Class   string // family and size, e.g. "guarded-ladder-8"
	Program string
	// Verdict is "terminates"/"diverges" for decides, "found" for exists
	// and "terminates" (a fixpoint) for the chase; the CLI's exit code is
	// derived from it.
	Verdict string
	// States is the exists search's expected state count (stage-grid n
	// reaches exactly 3^n distinct instances).
	States int
	// Atoms is the chase's expected final atom count.
	Atoms int
}

// exitCode is the CLI exit code the expected answer implies: chase and
// found/terminates exit 0, diverges exits 1.
func (o *op) exitCode() int {
	if o.Verdict == "diverges" {
		return 1
	}
	return 0
}

// class is one deck entry: an operation kind over a family at size n,
// repeated weight times per block.
type class struct {
	kind   opKind
	family string
	n      int
	weight int
}

func (c class) label() string { return fmt.Sprintf("%s-%d", c.family, c.n) }

// decks defines the three workloads. Sizes are capped so that every class,
// the heaviest included, contributes many samples to every run, and so that
// every path reaches a decisive verdict (unknown is never expected).
var decks = map[string][]class{
	// Every request misses the cache: names never repeat.
	"cold-decide": {
		{kindPortfolio, "datalog-chain", 4, 1},
		{kindPortfolio, "datalog-chain", 8, 1},
		{kindPortfolio, "existential-chain", 4, 1},
		{kindPortfolio, "existential-chain", 8, 1},
		{kindPortfolio, "linear-cycle", 4, 1},
		{kindPortfolio, "linear-cycle", 8, 1},
		{kindPortfolio, "sticky-relay", 4, 1},
		{kindPortfolio, "sticky-relay", 8, 1},
		{kindPortfolio, "sticky-join", 4, 1},
		{kindPortfolio, "sticky-join", 8, 1},
		{kindPortfolio, "swap-intro", 4, 1},
		{kindPortfolio, "swap-intro", 8, 1},
		{kindPortfolio, "guarded-ladder", 4, 1},
		{kindPortfolio, "guarded-ladder", 8, 1},
		{kindPortfolio, "guarded-ladder", 10, 1},
		{kindExists, "stage-grid", 4, 1},
		{kindExists, "stage-grid", 5, 1},
		{kindExists, "stage-grid", 6, 1},
	},
	// A fixed pool, replayed with skewed popularity: weights fall with the
	// rank inside each endpoint kind.
	"warm-replay": warmPool(),
	// One child process at a time.
	"cli-batch": {
		{kindChase, "exchange", 600, 2},
		{kindChase, "ontology", 600, 2},
		{kindChase, "key-graph", 500, 2},
		{kindTermcheck, "swap-intro", 4, 1},
		{kindTermcheck, "guarded-ladder", 4, 1},
		{kindTermcheck, "linear-cycle", 4, 1},
		{kindTermcheck, "sticky-join", 6, 1},
		{kindTermcheck, "sticky-relay", 4, 1},
		{kindTermcheck, "existential-chain", 6, 1},
		{kindTermcheckExists, "stage-grid", 5, 1},
		{kindTermcheckExists, "stage-grid", 6, 1},
		{kindTermcheckPortfolio, "guarded-ladder", 6, 1},
		{kindTermcheckPortfolio, "swap-intro", 6, 1},
		{kindTermcheckPortfolio, "sticky-join", 4, 1},
		{kindTermcheckPortfolio, "linear-cycle", 6, 1},
		{kindTermcheckPortfolio, "datalog-chain", 6, 1},
		{kindTermcheckPortfolio, "sticky-relay", 6, 1},
	},
}

// workloadNames lists the workloads in reporting order.
var workloadNames = []string{"cold-decide", "warm-replay", "cli-batch"}

// popularity is the per-rank weight inside each warm-replay endpoint kind:
// a Zipf-like skew, fixed so the mix is seed-independent.
var popularity = []int{6, 4, 3, 2, 2, 2, 1, 1, 1, 1, 1, 1}

// warmPool builds the warm-replay deck: twelve programs per endpoint kind,
// most popular first.
func warmPool() []class {
	flat := []class{
		{kindDecide, "sticky-join", 4, 0},
		{kindDecide, "guarded-ladder", 4, 0},
		{kindDecide, "linear-cycle", 4, 0},
		{kindDecide, "datalog-chain", 4, 0},
		{kindDecide, "swap-intro", 4, 0},
		{kindDecide, "sticky-relay", 4, 0},
		{kindDecide, "existential-chain", 4, 0},
		{kindDecide, "guarded-ladder", 6, 0},
		{kindDecide, "sticky-join", 6, 0},
		{kindDecide, "linear-cycle", 6, 0},
		{kindDecide, "existential-chain", 6, 0},
		{kindDecide, "sticky-relay", 6, 0},
	}
	port := []class{
		{kindPortfolio, "guarded-ladder", 8, 0},
		{kindPortfolio, "swap-intro", 6, 0},
		{kindPortfolio, "sticky-join", 6, 0},
		{kindPortfolio, "linear-cycle", 6, 0},
		{kindPortfolio, "sticky-relay", 6, 0},
		{kindPortfolio, "existential-chain", 6, 0},
		{kindPortfolio, "datalog-chain", 6, 0},
		{kindPortfolio, "guarded-ladder", 4, 0},
		{kindPortfolio, "swap-intro", 4, 0},
		{kindPortfolio, "sticky-join", 4, 0},
		{kindPortfolio, "linear-cycle", 4, 0},
		{kindPortfolio, "sticky-relay", 4, 0},
	}
	var exists []class
	for _, n := range []int{5, 6, 4, 7} {
		for v := 0; v < 3; v++ {
			exists = append(exists, class{kindExists, "stage-grid", n, 0})
		}
	}
	var out []class
	for _, group := range [][]class{flat, port, exists} {
		for rank, c := range group {
			c.weight = popularity[rank]
			out = append(out, c)
		}
	}
	return out
}

// generator yields a workload's operations for one seed.
type generator struct {
	workload string
	seed     int64
	deck     []int // class indexes, one per deck slot
	classes  []class

	mu     sync.Mutex
	blocks map[int][]int // block index -> shuffled deck
	memos  map[string]op // built programs: class bases, pool slots, chase inputs
}

func newGenerator(workloadName string, seed int64) (*generator, error) {
	classes, ok := decks[workloadName]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", workloadName, strings.Join(workloadNames, ", "))
	}
	g := &generator{
		workload: workloadName,
		seed:     seed,
		classes:  classes,
		blocks:   make(map[int][]int),
		memos:    make(map[string]op),
	}
	for i, c := range classes {
		for w := 0; w < c.weight; w++ {
			g.deck = append(g.deck, i)
		}
	}
	return g, nil
}

// poolSize is the number of distinct programs in a fixed-pool workload
// (warm-replay); 0 for streams.
func (g *generator) poolSize() int {
	if g.workload == "warm-replay" {
		return len(g.classes)
	}
	return 0
}

func (g *generator) rng(parts ...int64) *rand.Rand {
	h := sha256.New()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(g.seed))
	h.Write(b[:])
	h.Write([]byte(g.workload))
	for _, p := range parts {
		binary.LittleEndian.PutUint64(b[:], uint64(p))
		h.Write(b[:])
	}
	sum := h.Sum(nil)
	return rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(sum[:8]))))
}

func (g *generator) block(b int) []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if blk, ok := g.blocks[b]; ok {
		return blk
	}
	blk := append([]int(nil), g.deck...)
	g.rng(int64(b)).Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	g.blocks[b] = blk
	return blk
}

// memo returns the operation built under key, building it once.
func (g *generator) memo(key string, build func() op) op {
	g.mu.Lock()
	o, ok := g.memos[key]
	g.mu.Unlock()
	if !ok {
		o = build()
		g.mu.Lock()
		g.memos[key] = o
		g.mu.Unlock()
	}
	return o
}

// op returns operation i of the sequence.
func (g *generator) op(i int) op {
	return g.classOp(g.block(i / len(g.deck))[i%len(g.deck)], i)
}

// poolOp returns pool program ci of a fixed-pool workload as the set-up
// asks it (sequence index -1).
func (g *generator) poolOp(ci int) op { return g.classOp(ci, -1) }

// classOp builds operation i of class ci. Renaming every predicate keeps a
// program's cost but gives it a fresh TGD-set fingerprint: a stream renames
// per operation, so no request ever repeats; the fixed pool renames per
// slot, so each program recurs under its own name.
func (g *generator) classOp(ci, i int) op {
	c := g.classes[ci]
	var o op
	switch {
	case c.kind == kindChase:
		// The chase CLI keeps nothing between invocations, so a handful
		// of random databases per class suffices.
		db := i % 5
		if i < 0 {
			db = 0
		}
		o = g.memo(fmt.Sprintf("chase/%d/%d", ci, db), func() op {
			return chaseOp(c, g.rng(int64(ci), int64(db)).Int63())
		})
	case g.poolSize() > 0:
		o = g.memo(fmt.Sprintf("pool/%d", ci), func() op {
			o := g.base(ci)
			o.Program = rename(o.Program, g.suffix(ci))
			return o
		})
	default:
		o = g.base(ci)
		o.Program = rename(o.Program, g.suffix(i))
	}
	o.Seq = i
	return o
}

func (g *generator) suffix(key int) string { return fmt.Sprintf("s%dk%d", g.seed, key) }

// base is class ci's program before renaming, with its expected answer.
func (g *generator) base(ci int) op {
	return g.memo(fmt.Sprintf("base/%d", ci), func() op {
		c := g.classes[ci]
		o := op{Kind: c.kind, Class: c.label()}
		if c.family == "stage-grid" {
			o.Verdict = "found"
			o.States = pow3(c.n)
			o.Program = parser.Print(workload.StageGrid(c.n))
			return o
		}
		l := labeled(c.family, c.n)
		o.Program = l.Source
		o.Verdict = "diverges"
		if l.Terminates {
			o.Verdict = "terminates"
		}
		return o
	})
}

// chaseOp builds the chase input of class c over the random database
// drawn from seed, with its expected final atom count:
//   - exchange: each distinct Emp tuple yields one TgtEmp, one Dept (a
//     fresh null per tuple), one Head and one Person — 5 atoms per tuple;
//   - ontology: every professor and student is a Person with one MemberOf
//     and one Org, each Teaches yields one Course, and each distinct
//     advisor becomes a Mentor (already a Person);
//   - key-graph: the key EGD leaves exactly one F atom per node, and the
//     chase never fails (no ground F facts).
func chaseOp(c class, seed int64) op {
	o := op{Kind: c.kind, Class: c.label(), Verdict: "terminates"}
	var prog *parser.Program
	switch c.family {
	case "exchange":
		prog = workload.Exchange(c.n, seed).Program
		o.Atoms = 5 * prog.Database.Len()
	case "ontology":
		prog = workload.Ontology(c.n, seed)
		count := map[string]int{}
		courses, advisors := map[string]bool{}, map[string]bool{}
		for _, a := range prog.Database.Atoms() {
			count[a.Pred.Name]++
			switch a.Pred.Name {
			case "Teaches":
				courses[a.Args[1].String()] = true
			case "Advises":
				advisors[a.Args[0].String()] = true
			}
		}
		persons := count["Professor"] + count["Student"]
		o.Atoms = prog.Database.Len() + 3*persons + len(courses) + len(advisors)
	case "key-graph":
		prog = workload.KeyGraph(c.n, seed)
		o.Atoms = prog.Database.Len() + c.n
	default:
		panic("perfbench: unknown chase family " + c.family)
	}
	o.Program = parser.Print(prog)
	return o
}

func labeled(family string, n int) workload.Labeled {
	switch family {
	case "datalog-chain":
		return workload.DatalogChain(n)
	case "existential-chain":
		return workload.ExistentialChain(n)
	case "linear-cycle":
		return workload.LinearCycle(n)
	case "swap-intro":
		return workload.SwapIntro(n)
	case "guarded-ladder":
		return workload.GuardedLadder(n)
	case "sticky-join":
		return workload.StickyJoin(n)
	case "sticky-relay":
		return workload.StickyRelay(n)
	}
	panic("perfbench: unknown family " + family)
}

func pow3(n int) int {
	p := 1
	for i := 0; i < n; i++ {
		p *= 3
	}
	return p
}

// predicateRE matches a predicate name: an upper-case identifier directly
// followed by its argument list (variables are never followed by '(').
var predicateRE = regexp.MustCompile(`\b([A-Z][A-Za-z0-9_]*)\(`)

func rename(src, suffix string) string {
	return predicateRE.ReplaceAllString(src, "${1}_"+suffix+"(")
}

// prefix generates operations [0, n).
func (g *generator) prefix(n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = g.op(i)
	}
	return out
}

// digest hashes an operation sequence byte for byte.
func digest(ops []op) string {
	h := sha256.New()
	for _, o := range ops {
		fmt.Fprintf(h, "%d|%d|%s|%s|%d|%d|%d\n%s\n", o.Seq, o.Kind, o.Class, o.Verdict, o.States, o.Atoms, len(o.Program), o.Program)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}
