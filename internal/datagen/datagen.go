// Package datagen generates synthetic workloads for tests and benchmarks:
// random simple TGD sets drawn from the paper's class families (Linear,
// Multilinear, Sticky, Sticky-Join), structured ontology patterns (chains,
// stars, diamonds), a LUBM-style university ontology, and random database
// instances. The paper has no public benchmark, so these generators stand in
// for its (absent) experimental workload; every generator is deterministic
// given its seed.
package datagen

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/dependency"
	"repro/internal/logic"
	"repro/internal/storage"
)

// Family selects a TGD-shape family for the random generator.
type Family int

// Families of generated rule sets.
const (
	// FamilyLinear: single body atom per rule.
	FamilyLinear Family = iota
	// FamilyMultilinear: every body atom carries all distinguished
	// variables.
	FamilyMultilinear
	// FamilySticky: joins only on head-preserved variables, no marked
	// repeats (generated conservatively: body atoms share only variables
	// that appear in the head).
	FamilySticky
	// FamilyChain generates exactly FamilyLinear's sets (the generator
	// shares one branch; TestFamilyChainIsLinear pins it), so a test loop
	// running both reruns identical inputs. It stays because the
	// onboard_rewrite benchmark workload (benchmark/w_onboard.go) names it.
	FamilyChain
)

// String names the family.
func (f Family) String() string {
	switch f {
	case FamilyLinear:
		return "linear"
	case FamilyMultilinear:
		return "multilinear"
	case FamilySticky:
		return "sticky"
	case FamilyChain:
		return "chain"
	default:
		return fmt.Sprintf("family(%d)", int(f))
	}
}

// Config controls random rule-set generation.
type Config struct {
	Family Family
	// Rules is the number of TGDs to generate.
	Rules int
	// Preds is the size of the predicate pool (default max(4, Rules)).
	Preds int
	// MaxArity bounds predicate arity (default 3, min 1).
	MaxArity int
	// Seed makes generation deterministic.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Preds == 0 {
		c.Preds = c.Rules
		if c.Preds < 4 {
			c.Preds = 4
		}
	}
	if c.MaxArity == 0 {
		c.MaxArity = 3
	}
	return c
}

// Rules generates a random simple TGD set of the given family. All generated
// rules are simple (no constants, no repeated variables per atom, single
// head atom), so they are inside the fragment where the paper proves its
// subsumption results.
func Rules(cfg Config) *dependency.Set {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	arity := make([]int, cfg.Preds)
	for i := range arity {
		arity[i] = 1 + rng.Intn(cfg.MaxArity)
	}
	pred := func(i int) string { return fmt.Sprintf("p%d", i) }

	var rules []*dependency.TGD
	vg := func(n int) []logic.Term {
		out := make([]logic.Term, n)
		for i := range out {
			out[i] = logic.NewVar(fmt.Sprintf("V%d", i+1))
		}
		return out
	}

	for len(rules) < cfg.Rules {
		hp := rng.Intn(cfg.Preds)
		ha := arity[hp]
		var body []logic.Atom
		var head logic.Atom

		switch cfg.Family {
		case FamilyLinear, FamilyChain:
			bp := rng.Intn(cfg.Preds)
			ba := arity[bp]
			bodyVars := vg(ba)
			body = []logic.Atom{logic.NewAtom(pred(bp), bodyVars...)}
			// Head arguments: draw from body variables or fresh
			// existentials, no repeats.
			head = buildHead(pred(hp), ha, bodyVars, rng)
		case FamilyMultilinear:
			// Distinguished variables shared by all body atoms. Body
			// predicates are drawn from those wide enough to carry every
			// distinguished variable (arities stay fixed).
			nd := 1 + rng.Intn(2)
			var wide []int
			for p, a := range arity {
				if a >= nd {
					wide = append(wide, p)
				}
			}
			if len(wide) == 0 {
				nd = 1
				for p := range arity {
					wide = append(wide, p)
				}
			}
			dist := vg(nd)
			nAtoms := 1 + rng.Intn(2)
			fresh := nd
			seenAtom := map[string]bool{}
			for a := 0; a < nAtoms; a++ {
				bp := wide[rng.Intn(len(wide))]
				args := append([]logic.Term{}, dist...)
				for len(args) < arity[bp] {
					fresh++
					args = append(args, logic.NewVar(fmt.Sprintf("V%d", fresh)))
				}
				atom := logic.NewAtom(pred(bp), args...)
				if seenAtom[atom.Key()] {
					continue
				}
				seenAtom[atom.Key()] = true
				body = append(body, atom)
			}
			head = buildHead(pred(hp), ha, dist, rng)
		case FamilySticky:
			// Body atoms joined only on variables that all go to the head.
			nAtoms := 1 + rng.Intn(2)
			join := logic.NewVar("J1")
			fresh := 1
			var bodyVars []logic.Term
			for a := 0; a < nAtoms; a++ {
				bp := rng.Intn(cfg.Preds)
				ba := arity[bp]
				args := []logic.Term{join}
				for len(args) < ba {
					fresh++
					v := logic.NewVar(fmt.Sprintf("V%d", fresh))
					args = append(args, v)
					bodyVars = append(bodyVars, v)
				}
				body = append(body, logic.NewAtom(pred(bp), args...))
			}
			// The join variable must reach the head for stickiness; other
			// body variables must NOT reach the head only if they repeat —
			// they don't (each is fresh), so any subset may be kept. Put
			// the join first, fill with fresh existential head variables.
			args := []logic.Term{join}
			for len(args) < ha {
				fresh++
				args = append(args, logic.NewVar(fmt.Sprintf("V%d", fresh)))
			}
			head = logic.NewAtom(pred(hp), args[:ha]...)
			if ha == 0 {
				head = logic.NewAtom(pred(hp))
			}
		}
		r, err := dependency.New(fmt.Sprintf("G%d", len(rules)+1), body, []logic.Atom{head})
		if err != nil {
			continue
		}
		if !r.IsSimple() {
			continue
		}
		rules = append(rules, r)
	}
	set, err := dependency.NewSet(rules...)
	if err != nil {
		panic(err) // generator bug: arities are tracked consistently
	}
	return set
}

// buildHead builds a simple head atom: arguments drawn without repetition
// from the candidate variables, padded with fresh existential variables.
func buildHead(pred string, arity int, candidates []logic.Term, rng *rand.Rand) logic.Atom {
	perm := rng.Perm(len(candidates))
	var args []logic.Term
	for _, i := range perm {
		if len(args) == arity {
			break
		}
		// Keep each candidate with probability 3/4.
		if rng.Intn(4) != 0 {
			args = append(args, candidates[i])
		}
	}
	fresh := 0
	for len(args) < arity {
		fresh++
		args = append(args, logic.NewVar(fmt.Sprintf("E%d", fresh)))
	}
	return logic.NewAtom(pred, args...)
}

// ChainOntology builds a deterministic hierarchy of depth n:
// c1(X) -> c2(X) -> ... -> cn(X). SWR, WR, and in every baseline class.
func ChainOntology(n int) *dependency.Set {
	var rules []*dependency.TGD
	for i := 1; i < n; i++ {
		rules = append(rules, dependency.MustNew(
			fmt.Sprintf("C%d", i),
			[]logic.Atom{logic.NewAtom(fmt.Sprintf("c%d", i), logic.NewVar("X"))},
			[]logic.Atom{logic.NewAtom(fmt.Sprintf("c%d", i+1), logic.NewVar("X"))}))
	}
	return dependency.MustNewSet(rules...)
}

// StarOntology builds n subclass rules into one root: s1..sn(X) -> root(X).
func StarOntology(n int) *dependency.Set {
	var rules []*dependency.TGD
	for i := 1; i <= n; i++ {
		rules = append(rules, dependency.MustNew(
			fmt.Sprintf("S%d", i),
			[]logic.Atom{logic.NewAtom(fmt.Sprintf("s%d", i), logic.NewVar("X"))},
			[]logic.Atom{logic.NewAtom("root", logic.NewVar("X"))}))
	}
	return dependency.MustNewSet(rules...)
}

// University returns a LUBM-style university ontology expressed as TGDs:
// class hierarchy, role typing, and existential axioms. It is WR (and
// FO-rewritable) but not Linear.
func University() *dependency.Set {
	at := logic.NewAtom
	v := logic.NewVar
	mk := func(label string, body []logic.Atom, head []logic.Atom) *dependency.TGD {
		return dependency.MustNew(label, body, head)
	}
	rules := []*dependency.TGD{
		// Hierarchy.
		mk("U1", []logic.Atom{at("fullProfessor", v("X"))}, []logic.Atom{at("professor", v("X"))}),
		mk("U2", []logic.Atom{at("assistantProfessor", v("X"))}, []logic.Atom{at("professor", v("X"))}),
		mk("U3", []logic.Atom{at("professor", v("X"))}, []logic.Atom{at("faculty", v("X"))}),
		mk("U4", []logic.Atom{at("lecturer", v("X"))}, []logic.Atom{at("faculty", v("X"))}),
		mk("U5", []logic.Atom{at("faculty", v("X"))}, []logic.Atom{at("employee", v("X"))}),
		mk("U6", []logic.Atom{at("undergraduateStudent", v("X"))}, []logic.Atom{at("student", v("X"))}),
		mk("U7", []logic.Atom{at("graduateStudent", v("X"))}, []logic.Atom{at("student", v("X"))}),
		mk("U8", []logic.Atom{at("student", v("X"))}, []logic.Atom{at("person", v("X"))}),
		mk("U9", []logic.Atom{at("employee", v("X"))}, []logic.Atom{at("person", v("X"))}),
		// Role typing.
		mk("U10", []logic.Atom{at("teacherOf", v("X"), v("Y"))}, []logic.Atom{at("faculty", v("X"))}),
		mk("U11", []logic.Atom{at("teacherOf", v("X"), v("Y"))}, []logic.Atom{at("course", v("Y"))}),
		mk("U12", []logic.Atom{at("takesCourse", v("X"), v("Y"))}, []logic.Atom{at("student", v("X"))}),
		mk("U13", []logic.Atom{at("takesCourse", v("X"), v("Y"))}, []logic.Atom{at("course", v("Y"))}),
		mk("U14", []logic.Atom{at("advisor", v("X"), v("Y"))}, []logic.Atom{at("student", v("X"))}),
		mk("U15", []logic.Atom{at("advisor", v("X"), v("Y"))}, []logic.Atom{at("professor", v("Y"))}),
		mk("U16", []logic.Atom{at("worksFor", v("X"), v("Y"))}, []logic.Atom{at("employee", v("X"))}),
		mk("U17", []logic.Atom{at("worksFor", v("X"), v("Y"))}, []logic.Atom{at("department", v("Y"))}),
		// Existential axioms (value invention).
		mk("U18", []logic.Atom{at("professor", v("X"))},
			[]logic.Atom{at("teacherOf", v("X"), v("C"))}),
		mk("U19", []logic.Atom{at("graduateStudent", v("X"))},
			[]logic.Atom{at("advisor", v("X"), v("P"))}),
		mk("U20", []logic.Atom{at("faculty", v("X"))},
			[]logic.Atom{at("worksFor", v("X"), v("D"))}),
		mk("U21", []logic.Atom{at("department", v("X"))},
			[]logic.Atom{at("subOrganizationOf", v("X"), v("U")), at("university", v("U"))}),
		// Join rule: co-enrollment.
		mk("U22", []logic.Atom{at("takesCourse", v("X"), v("C")), at("teacherOf", v("Y"), v("C"))},
			[]logic.Atom{at("taughtBy", v("X"), v("Y"))}),
	}
	return dependency.MustNewSet(rules...)
}

// UniversityData generates a deterministic LUBM-style instance with the
// given number of "departments"; each department contributes professors,
// students, courses and their role assertions. Size grows linearly.
func UniversityData(departments int, seed int64) *storage.Instance {
	rng := rand.New(rand.NewSource(seed))
	ins := storage.NewInstance()
	at := logic.NewAtom
	c := logic.NewConst
	add := func(a logic.Atom) {
		if err := ins.InsertAtom(a); err != nil {
			panic(err)
		}
	}
	for d := 0; d < departments; d++ {
		dept := c(fmt.Sprintf("dept%d", d))
		add(at("department", dept))
		for p := 0; p < 3; p++ {
			prof := c(fmt.Sprintf("prof%d_%d", d, p))
			if p == 0 {
				add(at("fullProfessor", prof))
			} else {
				add(at("assistantProfessor", prof))
			}
			add(at("worksFor", prof, dept))
			course := c(fmt.Sprintf("course%d_%d", d, p))
			add(at("course", course))
			add(at("teacherOf", prof, course))
		}
		for s := 0; s < 10; s++ {
			stud := c(fmt.Sprintf("student%d_%d", d, s))
			if s%3 == 0 {
				add(at("graduateStudent", stud))
			} else {
				add(at("undergraduateStudent", stud))
			}
			course := c(fmt.Sprintf("course%d_%d", d, rng.Intn(3)))
			add(at("takesCourse", stud, course))
			if s%3 == 0 {
				prof := c(fmt.Sprintf("prof%d_%d", d, rng.Intn(3)))
				add(at("advisor", stud, prof))
			}
		}
	}
	return ins
}

// Instance generates a random instance over the predicates of the set:
// tuples per relation with values drawn from a domain of the given size.
func Instance(set *dependency.Set, tuplesPerRel, domain int, seed int64) *storage.Instance {
	rng := rand.New(rand.NewSource(seed))
	sig, err := set.Predicates()
	if err != nil {
		panic(err)
	}
	ins := storage.NewInstance()
	// Deterministic predicate order.
	preds := make([]string, 0, len(sig))
	for p := range sig {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	for _, p := range preds {
		for i := 0; i < tuplesPerRel; i++ {
			args := make([]logic.Term, sig[p])
			for j := range args {
				args[j] = logic.NewConst(fmt.Sprintf("d%d", rng.Intn(domain)))
			}
			if err := ins.InsertAtom(logic.NewAtom(p, args...)); err != nil {
				panic(err)
			}
		}
	}
	return ins
}
