package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/classes"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dependency"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/storage"
)

const (
	onboardRules   = 40
	onboardTuples  = 50
	onboardDomain  = 25
	onboardQueries = 8
)

// onboardSets are the generated rule sets of an operation, one per family.
// The seeds were picked so that each set's eight rewritings together take
// 10 to 80 ms on the sandbox: most seeds give rewritings of a few CQs that
// cost nothing, and about half of the Sticky ones have a join query that
// rewrites into hundreds of CQs and takes 0.4 s to 40 s, which would be most
// of a run. FamilyChain shares FamilyLinear's generator; its seed makes it a
// different set.
var onboardSets = []datagen.Config{
	{Family: datagen.FamilyLinear, Seed: 2},
	{Family: datagen.FamilyMultilinear, Seed: 13},
	{Family: datagen.FamilySticky, Seed: 12},
	{Family: datagen.FamilyChain, Seed: 7},
}

// structure is one ontology of the onboarding pool before its predicates are
// renamed: rules, an instance and the queries asked of it.
type structure struct {
	name    string
	rules   *dependency.Set
	facts   []logic.Atom
	queries []*query.CQ
}

// program is a structure under fresh predicate names, as the text a user
// would submit.
type program struct {
	of      *structure
	text    string
	queries []string
}

// onboardRewrite is the onboard_rewrite workload: every operation submits six
// programs nobody has seen before (one of each generated family, a 32-deep
// hierarchy and University), classifies each and answers eight new queries on
// it by rewriting.
//
// The six rule sets are the same for every operation and every seed, so that
// all operations cost the same and runs with different --seed measure the
// same graph shapes; the seed decides the predicate names, the instances and
// therefore the answers.
type onboardRewrite struct {
	seed  int64
	suite []*structure
	last  []program // the programs of the operation do last ran
	ops   int       // operations so far; part of every predicate name
	// counts[p][q] is the answer count the operations gave for query q of
	// program p.
	counts [][]int
}

func setupOnboard(cfg config) (state, error) {
	s := &onboardRewrite{seed: cfg.seed}
	for i, c := range onboardSets {
		c.Rules = cfg.size(onboardRules, 10)
		s.suite = append(s.suite, newStructure(fmt.Sprintf("%s/%d", c.Family, c.Seed), datagen.Rules(c), cfg.seed+int64(i)))
	}
	s.suite = append(s.suite,
		newStructure("chain32", datagen.ChainOntology(32), cfg.seed),
		newStructure("university", datagen.University(), cfg.seed))
	if _, _, err := s.do(0); err != nil { // one operation outside the measurement
		return nil, err
	}
	return s, nil
}

// newStructure attaches a seeded instance and the queries to a rule set. The
// queries are chosen by position in the sorted predicate list, so they are the
// same for every seed: four single-atom queries and four two-atom joins on
// the first argument.
func newStructure(name string, rules *dependency.Set, seed int64) *structure {
	sig, err := rules.Predicates()
	if err != nil {
		panic(err)
	}
	preds := make([]string, 0, len(sig))
	for p := range sig {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	atom := func(i int, tag string) logic.Atom {
		p := preds[i%len(preds)]
		args := []logic.Term{logic.NewVar("X")}
		for k := 1; k < sig[p]; k++ {
			args = append(args, logic.NewVar(fmt.Sprintf("%s%d", tag, k)))
		}
		return logic.NewAtom(p, args...)
	}
	head := logic.NewAtom("q", logic.NewVar("X"))
	st := &structure{name: name, rules: rules, facts: datagen.Instance(rules, onboardTuples, onboardDomain, seed).Atoms()}
	for i := 0; i < onboardQueries/2; i++ {
		st.queries = append(st.queries,
			query.MustNew(head, []logic.Atom{atom(i, "A")}),
			query.MustNew(head, []logic.Atom{atom(onboardQueries/2+2*i, "A"), atom(onboardQueries/2+2*i+1, "B")}))
	}
	return st
}

// rename renders the structure as program and query texts with prefix put
// before every predicate.
func (st *structure) rename(prefix string) program {
	re := func(atoms []logic.Atom) string {
		out := make([]logic.Atom, len(atoms))
		for i, a := range atoms {
			out[i] = logic.NewAtom(prefix+a.Pred, a.Args...)
		}
		return logic.AtomsString(out)
	}
	var b strings.Builder
	for _, r := range st.rules.Rules {
		fmt.Fprintf(&b, "%s -> %s .\n", re(r.Body), re(r.Head))
	}
	for _, f := range st.facts {
		fmt.Fprintf(&b, "%s .\n", re([]logic.Atom{f}))
	}
	p := program{of: st, text: b.String()}
	for _, q := range st.queries {
		p.queries = append(p.queries, fmt.Sprintf("%s :- %s .", q.Head, re(q.Body)))
	}
	return p
}

func (s *onboardRewrite) clients() []client { return []client{s} }
func (s *onboardRewrite) kinds() []string   { return []string{"onboard"} }
func (s *onboardRewrite) close()            {}
func (s *onboardRewrite) sampling() int     { return 2 }

func (s *onboardRewrite) rootSpan() (string, string) { return "ontology", "ontology.onboard" }

func (s *onboardRewrite) do(int) (int, time.Duration, error) {
	s.ops++
	s.last = s.last[:0]
	for p, st := range s.suite {
		s.last = append(s.last, st.rename(fmt.Sprintf("s%do%dp%d_", s.seed, s.ops, p)))
	}
	counts := make([][]int, len(s.last))
	var firstErr error
	t0 := time.Now()
	for p, prog := range s.last {
		o, err := repro.Parse(prog.text)
		if err != nil {
			return 0, time.Since(t0), err
		}
		if !o.Classify().FORewritable && firstErr == nil {
			firstErr = fmt.Errorf("%s: not reported FO-rewritable", prog.of.name)
		}
		for _, q := range prog.queries {
			ans, err := o.AnswerCtx(ctx, q, repro.Options{})
			if err != nil {
				return 0, time.Since(t0), err
			}
			counts[p] = append(counts[p], ans.Len())
		}
	}
	d := time.Since(t0)
	if s.counts == nil {
		s.counts = counts
	} else if fmt.Sprint(s.counts) != fmt.Sprint(counts) && firstErr == nil {
		firstErr = fmt.Errorf("answer counts %v differ from an earlier operation's %v", counts, s.counts)
	}
	return 0, d, firstErr
}

// explain replays the suite program by program through the layers Parse,
// Classify and a rewriting answer are made of.
func (s *onboardRewrite) explain(rec *recorder, root int) {
	for _, prog := range s.last {
		var parsed *parser.Program
		rec.stage(root, "parser", "parser.parse", func() { parsed, _ = parser.Parse(prog.text) })
		rules, err := parsed.RuleSet()
		if err != nil {
			panic(err)
		}
		var ins *storage.Instance
		rec.stage(root, "storage", "storage.load", func() {
			ins, _ = storage.FromAtoms(parsed.Facts)
			ins.EnsureIndexes()
		})
		total := rec.stage(root, "classify", "classify.total", func() { core.Classify(rules) })
		rec.stage(total, "classify", "classify.swr", func() { classes.SWR(rules) })
		rec.stage(total, "classify", "classify.wr", func() { classes.WR(rules) })
		for _, q := range prog.queries {
			cq := replayParseQuery(rec, root, q)
			replayEval(rec, root, replayRewrite(rec, root, cq, rules), ins)
		}
	}
}

func (s *onboardRewrite) probe(*recorder) {}

// verify checks what the paper promises for every rule set: one the generator
// built inside SWR is reported FO-rewritable, its rewritings reach a fixpoint,
// and where the chase terminates the rewriting's answers are as many as the
// chase's.
func (s *onboardRewrite) verify() []string {
	var problems []string
	for p, st := range s.suite {
		data, err := storage.FromAtoms(st.facts)
		if err != nil {
			panic(err)
		}
		o := repro.New(st.rules, data)
		rep := o.Classify()
		if !rep.FORewritable {
			problems = append(problems, st.name+": not FO-rewritable")
		}
		for qi, q := range st.queries {
			if !o.RewriteCQ(q).Complete {
				problems = append(problems, fmt.Sprintf("%s: rewriting of %s did not complete", st.name, q))
			}
			if !rep.ChaseTerminates {
				continue
			}
			chased, err := o.AnswerCtx(ctx, q.String(), repro.Options{Mode: repro.ModeChase, NoCache: true})
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: %s: chase: %v", st.name, q, err))
			} else if chased.Len() != s.counts[p][qi] {
				problems = append(problems, fmt.Sprintf("%s: %s: rewriting gave %d answers, chase %d", st.name, q, s.counts[p][qi], chased.Len()))
			}
		}
	}
	return problems
}
