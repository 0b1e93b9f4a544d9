package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/chase"
	"repro/internal/datagen"
	"repro/internal/dependency"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/rewrite"
	"repro/internal/storage"
)

// scanQueries are the analytical queries of answer_scan with their answer
// counts per department (see universityCounts for where the numbers come from:
// 4 of a department's 10 students are graduates with a named advisor).
var scanQueries = []struct {
	src     string
	perDept int
}{
	{personQuery, 13},
	{"q(S, P) :- taughtBy(S, P) .", 10},
	{"q(S, P, D) :- advisor(S, P), worksFor(P, D) .", 4},
	{"q(X, C) :- faculty(X), teacherOf(X, C) .", 3},
	{"q(C, D) :- teacherOf(P, C), worksFor(P, D) .", 3},
	{"q(X) :- employee(X) .", 3},
}

// answerScan is the answer_scan workload: full answers to the analytical
// queries over a warm ontology, by rewriting and by the chase, cache bypassed.
type answerScan struct {
	depts  int
	rules  *dependency.Set
	ont    *repro.Ontology
	chased *storage.Instance // traced runs only: what chase-mode evaluation reads
}

func setupAnswerScan(cfg config) (state, error) {
	s := &answerScan{depts: cfg.size(2000, 4), rules: datagen.University()}
	s.ont = repro.New(s.rules, datagen.UniversityData(s.depts, cfg.seed))
	// The first batch builds the materialization and fills the plan cache; it
	// is also where the two answering paths are compared answer by answer.
	for _, q := range scanQueries {
		auto, err := s.ont.AnswerCtx(ctx, q.src, s.options(repro.ModeAuto))
		if err != nil {
			return nil, err
		}
		chased, err := s.ont.AnswerCtx(ctx, q.src, s.options(repro.ModeChase))
		if err != nil {
			return nil, err
		}
		if !auto.Equal(chased) {
			return nil, fmt.Errorf("answer_scan: %s: rewriting gives %d answers, chase %d, and the sets differ", q.src, auto.Len(), chased.Len())
		}
	}
	if bad := checkMaterialization(s.ont, universityExpect(s.depts)); len(bad) > 0 {
		return nil, fmt.Errorf("answer_scan: %v", bad)
	}
	if cfg.trace {
		s.chased = chase.Run(s.rules, s.ont.Data(), chase.Options{MaxSteps: maxSteps}).Instance
	}
	return s, nil
}

func (s *answerScan) options(mode repro.AnswerMode) repro.Options {
	return repro.Options{Mode: mode, MaxSteps: maxSteps, NoCache: true}
}

func (s *answerScan) clients() []client { return []client{s} }
func (s *answerScan) kinds() []string   { return []string{"batch"} }
func (s *answerScan) close()            {}
func (s *answerScan) sampling() int     { return 2 }

func (s *answerScan) rootSpan() (string, string) { return "ontology", "ontology.answer_batch" }

func (s *answerScan) do(int) (int, time.Duration, error) {
	t0 := time.Now()
	var firstErr error
	for _, q := range scanQueries {
		for _, mode := range answerModes {
			ans, err := s.ont.AnswerCtx(ctx, q.src, s.options(mode))
			if err == nil && ans.Len() != q.perDept*s.depts {
				err = fmt.Errorf("%s (mode %d): got %d answers, want %d", q.src, mode, ans.Len(), q.perDept*s.depts)
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return 0, time.Since(t0), firstErr
}

// explain replays every answer of the batch, first as the one call the
// ontology offers and then as the stages behind it: parse, rewrite (on the
// rewriting path), compile, execute.
func (s *answerScan) explain(rec *recorder, root int) {
	for _, q := range scanQueries {
		for _, mode := range answerModes {
			ans := rec.stage(root, "ontology", "ontology.answer_nocache", func() {
				_, _ = s.ont.AnswerCtx(ctx, q.src, s.options(mode))
			})
			cq := replayParseQuery(rec, ans, q.src)
			u, ins := query.MustNewUCQ(cq), s.chased
			if mode == repro.ModeAuto {
				u, ins = replayRewrite(rec, ans, cq, s.rules), s.ont.Data()
			}
			replayEval(rec, ans, u, ins)
		}
	}
}

// replayParseQuery records parsing of a query text under parent.
func replayParseQuery(rec *recorder, parent int, src string) *query.CQ {
	var pq *parser.Query
	rec.stage(parent, "parser", "parser.parse", func() { pq, _ = parser.ParseQuery(src) })
	return query.MustNew(pq.Head, pq.Body)
}

// replayRewrite records the rewriting of q under parent, with its counts.
func replayRewrite(rec *recorder, parent int, q *query.CQ, rules *dependency.Set) *query.UCQ {
	var res *rewrite.Result
	rec.stage(parent, "rewrite", "rewrite.rewrite", func() {
		res = rewrite.Rewrite(q, rules, rewrite.DefaultOptions())
	})
	rec.count("rewrite.cqs_out", float64(res.Kept))
	complete := 0.0
	if res.Complete {
		complete = 1
	}
	rec.count("rewrite.complete_share", complete)
	return res.UCQ
}

func (s *answerScan) probe(rec *recorder) { probeStorage(rec, s.ont.Data(), freshStudent) }

func (s *answerScan) verify() []string { return nil }
