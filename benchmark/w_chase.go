package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/chase"
	"repro/internal/datagen"
	"repro/internal/dependency"
	"repro/internal/eval"
	"repro/internal/query"
	"repro/internal/storage"
)

const personQuery = "q(X) :- person(X) ."

// chaseBuild is the chase_build and chase_build_p2 workloads: materialize
// University from scratch and answer the first query over it.
type chaseBuild struct {
	depts    int
	parallel int
	rules    *dependency.Set
	data     *storage.Instance
	want     universityCounts
	last     *repro.Ontology // kept so that the heap metric sees a materialization
}

func setupChaseBuild(parallel int) func(config) (state, error) {
	return func(cfg config) (state, error) {
		depts := cfg.size(1000, 4)
		s := &chaseBuild{
			depts:    depts,
			parallel: parallel,
			rules:    datagen.University(),
			data:     datagen.UniversityData(depts, cfg.seed),
			want:     universityExpect(depts),
		}
		s.data.EnsureIndexes()
		// One build outside the measurement grows the heap to its working size.
		if _, _, err := s.do(0); err != nil {
			return nil, err
		}
		return s, nil
	}
}

func (s *chaseBuild) clients() []client { return []client{s} }
func (s *chaseBuild) kinds() []string   { return []string{"build"} }
func (s *chaseBuild) close()            {}
func (s *chaseBuild) sampling() int     { return 2 }

func (s *chaseBuild) rootSpan() (string, string) { return "ontology", "ontology.build" }

func (s *chaseBuild) options() repro.Options {
	return repro.Options{Mode: repro.ModeChase, MaxSteps: maxSteps, Parallelism: s.parallel}
}

func (s *chaseBuild) do(int) (int, time.Duration, error) {
	t0 := time.Now()
	o := repro.New(s.rules, s.data.Clone())
	ans, err := o.AnswerCtx(ctx, personQuery, s.options())
	d := time.Since(t0)
	s.last = o
	if err != nil {
		return 0, d, err
	}
	if ans.Len() != s.want.persons {
		return 0, d, fmt.Errorf("person answers: got %d, want %d", ans.Len(), s.want.persons)
	}
	if bad := checkMaterialization(o, s.want); len(bad) > 0 {
		return 0, d, fmt.Errorf("%v", bad)
	}
	return 0, d, nil
}

// explain replays a build as the three calls it is made of: copy the data,
// chase it, evaluate the query over the chase.
func (s *chaseBuild) explain(rec *recorder, root int) {
	rec.stage(root, "storage", "storage.clone", func() { _ = s.data.Clone() })
	var res *chase.Result
	// chase.Run copies its input itself; that copy is chase time here.
	rec.stage(root, "chase", "chase.run", func() {
		res = chase.Run(s.rules, s.data, chase.Options{MaxSteps: maxSteps, Parallelism: s.parallel})
	})
	rec.count("chase.steps", float64(res.Steps))
	rec.count("chase.rounds", float64(res.Rounds))
	rec.count("chase.nulls", float64(res.NullsCreated))
	rec.count("chase.facts_out", float64(res.Instance.Size()))
	replayEval(rec, root, query.MustNewUCQ(mustQuery(personQuery)), res.Instance)
}

// replayEval records plan compilation and execution of u over ins under parent.
func replayEval(rec *recorder, parent int, u *query.UCQ, ins *storage.Instance) {
	var plans []*eval.Plan
	rec.stage(parent, "eval", "eval.plan", func() {
		plans = eval.CompileUCQ(u, ins, eval.PlannerDefault, eval.JoinDefault)
	})
	var ans *eval.Answers
	rec.stage(parent, "eval", "eval.exec", func() {
		ans = eval.RunPlans(plans, u.Arity(), ins, eval.Options{FilterNulls: true})
	})
	rec.count("eval.answers", float64(ans.Len()))
}

func (s *chaseBuild) probe(rec *recorder) { probeStorage(rec, s.data, freshStudent) }

func (s *chaseBuild) verify() []string { return nil }
