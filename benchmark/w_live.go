package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"time"

	"repro"
	"repro/internal/chase"
	"repro/internal/datagen"
	"repro/internal/dependency"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/server"
	"repro/internal/storage"
)

// Operation kinds of serve_live_update.
const (
	kindInsert = iota
	kindDelete
	kindRead
)

// deleteEvery makes every fifth mutation a deletion.
const deleteEvery = 5

// serveLive is the serve_live_update workload: one connection inserts and
// deletes students while another reads.
type serveLive struct {
	depts  int
	seed   int64
	rules  *dependency.Set
	srv    *httptest.Server
	ont    *repro.Ontology
	pool   []poolQuery
	writer *writer
	reader *reader
	before repro.MaterializationStats
}

// student is one inserted graduate student: the facts as text and as atoms.
type student struct {
	text  string
	atoms []logic.Atom
}

// writer issues the mutations: a new graduate student with a course and an
// advisor, or the deletion of the student inserted longest ago.
type writer struct {
	http  *httpClient
	rng   *rand.Rand
	depts int
	seq   int
	live  []student // inserted and not yet deleted, oldest first
	twins *twins    // traced runs only
	last  mirrored
}

func (w *writer) sampling() int {
	if w.twins != nil {
		return 1
	}
	return 0
}

func (w *writer) rootSpan() (string, string) { return "server", "server.request" }

func (w *writer) newStudent() student {
	w.seq++
	d := w.rng.Intn(w.depts)
	text := fmt.Sprintf("graduateStudent(new%d) . takesCourse(new%d, course%d_%d) . advisor(new%d, prof%d_%d) .",
		w.seq, w.seq, d, w.rng.Intn(3), w.seq, d, w.rng.Intn(3))
	atoms, err := parser.ParseFacts(text)
	if err != nil {
		panic(err)
	}
	return student{text, atoms}
}

func (w *writer) do(n int) (int, time.Duration, error) {
	kind, method, field := kindInsert, "POST", "added"
	var st student
	if n%deleteEvery == deleteEvery-1 && len(w.live) > 0 {
		kind, method, field = kindDelete, "DELETE", "removed"
		st, w.live = w.live[0], w.live[1:]
	} else {
		st = w.newStudent()
		w.live = append(w.live, st)
	}
	body, _ := json.Marshal(map[string]string{"facts": st.text})
	var reply map[string]int
	t0 := time.Now()
	err := w.http.call(method, factsPath, body, &reply)
	d := time.Since(t0)
	if err == nil && reply[field] != len(st.atoms) {
		err = fmt.Errorf("%s %s: %s = %d, want %d", method, st.text, field, reply[field], len(st.atoms))
	}
	if w.twins != nil {
		w.last = w.twins.apply(kind, st)
	}
	return kind, d, err
}

// explain lays out what the twins measured for the mutation do last sent.
func (w *writer) explain(rec *recorder, root int) {
	var ok map[string]any
	rec.stage(root, "server", "server.roundtrip", func() { _ = w.http.call("GET", "/healthz", nil, &ok) })
	m := w.last
	rec.child(root, "parser", "parser.parse", m.parse)
	if m.kind == kindInsert {
		views := rec.child(root, "rescache", "rescache.addfact_with_views", m.withViews)
		ont := rec.child(views, "ontology", "ontology.addfact", m.ontology)
		ext := rec.child(ont, "chase", "chase.extend", m.chase)
		rec.child(ext, "storage", "storage.cow_insert", m.cow)
	} else {
		ont := rec.child(root, "ontology", "ontology.deletefact", m.ontology)
		rec.child(ont, "chase", "chase.delete", m.chase)
	}
}

// twins are copies of the served ontology that the traced run applies every
// mutation to as well, each through a different layer's public functions, so
// that the mutation's time can be split: an ontology holding the same answer
// views (the reader's queries are mirrored to it), an ontology holding none,
// and a bare chase state over a bare instance.
type twins struct {
	rules     *dependency.Set
	withViews *repro.Ontology
	plain     *repro.Ontology
	state     *chase.State
	ins, base *storage.Instance
}

// mirrored is how long one mutation took on each twin.
type mirrored struct {
	kind                                   int
	parse, withViews, ontology, chase, cow time.Duration
}

func newTwins(rules *dependency.Set, depts int, seed int64, budget int64) (*twins, error) {
	t := &twins{rules: rules, base: datagen.UniversityData(depts, seed)}
	var err error
	if t.withViews, err = primed(rules, depts, seed); err != nil {
		return nil, err
	}
	t.withViews.SetAnswerCacheBudget(budget)
	if t.plain, err = primed(rules, depts, seed); err != nil {
		return nil, err
	}
	t.state = chase.NewState(chase.Options{TrackProvenance: true})
	t.ins = t.base.Clone()
	if res := t.state.Resume(rules, t.ins, t.ins); !res.Terminated {
		return nil, fmt.Errorf("twin chase did not terminate")
	}
	return t, nil
}

func (t *twins) apply(kind int, st student) mirrored {
	m := mirrored{kind: kind}
	timed := func(d *time.Duration, f func() error) {
		t0 := time.Now()
		if err := f(); err != nil {
			panic(fmt.Sprintf("twin of %s: %v", st.text, err))
		}
		*d = time.Since(t0)
	}
	timed(&m.parse, func() error { _, err := parser.ParseFacts(st.text); return err })
	next := t.ins.ExtendClone()
	if kind == kindInsert {
		timed(&m.withViews, func() error { _, err := t.withViews.AddFactAtoms(ctx, st.atoms); return err })
		timed(&m.ontology, func() error { _, err := t.plain.AddFactAtoms(ctx, st.atoms); return err })
		timed(&m.cow, func() error { _, err := t.ins.ExtendClone().Insert(freshStudent); return err })
		for _, a := range st.atoms {
			if err := t.base.InsertAtom(a); err != nil {
				panic(err)
			}
		}
		timed(&m.chase, func() error { _, err := t.state.Extend(t.rules, next, st.atoms); return err })
	} else {
		if _, err := t.withViews.DeleteFactCtx(ctx, st.text); err != nil {
			panic(err)
		}
		timed(&m.ontology, func() error { _, err := t.plain.DeleteFactCtx(ctx, st.text); return err })
		for _, a := range st.atoms {
			t.base.Remove(a)
		}
		timed(&m.chase, func() error { _, err := t.state.Delete(t.rules, next, st.atoms, t.base); return err })
	}
	t.ins = next
	return m
}

// primed builds University with its materialization published and derivation
// provenance recorded, which is the state a server that has seen a deletion
// is in: the first deletion switches provenance on and drops the
// materialization, and the chase-mode answer after it rebuilds it.
func primed(rules *dependency.Set, depts int, seed int64) (*repro.Ontology, error) {
	o := repro.New(rules, datagen.UniversityData(depts, seed))
	if err := o.AddFact("graduateStudent(primer) ."); err != nil {
		return nil, err
	}
	if _, err := o.DeleteFact("graduateStudent(primer) ."); err != nil {
		return nil, err
	}
	if _, err := o.AnswerCtx(ctx, personQuery, repro.Options{Mode: repro.ModeChase}); err != nil {
		return nil, err
	}
	if bad := checkMaterialization(o, universityExpect(depts)); len(bad) > 0 {
		return nil, fmt.Errorf("%v", bad)
	}
	return o, nil
}

func setupServeLive(cfg config) (state, error) {
	s := &serveLive{depts: cfg.size(500, 4), seed: cfg.seed, rules: datagen.University()}
	var err error
	if s.ont, err = primed(s.rules, s.depts, cfg.seed); err != nil {
		return nil, err
	}
	s.pool = buildPool(s.depts, s.ont.Data(), rand.New(rand.NewSource(cfg.seed)))
	budget, err := cacheBudget(s.ont, s.pool)
	if err != nil {
		return nil, err
	}
	api := server.New(server.Config{AnswerCacheBytes: budget})
	api.Add(tenant, s.ont)
	s.srv = httptest.NewServer(api.Handler())
	s.reader = newReader(s.srv.URL, s.pool, cfg.seed)
	s.reader.modes, s.reader.kind = 2, kindRead
	s.writer = &writer{http: newHTTPClient(s.srv.URL), rng: rand.New(rand.NewSource(cfg.seed + 1)), depts: s.depts}
	if cfg.trace {
		if s.writer.twins, err = newTwins(s.rules, s.depts, cfg.seed, budget); err != nil {
			s.close()
			return nil, err
		}
		s.reader.mirror = s.writer.twins.withViews
	}
	// Reads fill the cache, then a few mutations beside more reads bring the
	// write path to its working state.
	for n := 0; n < cfg.size(4000, 40); n++ {
		if n%100 == 99 {
			if _, _, err := s.writer.do(n / 100); err != nil {
				s.close()
				return nil, err
			}
		}
		if _, _, err := s.reader.do(n); err != nil {
			s.close()
			return nil, err
		}
	}
	s.before = s.ont.MaterializationStats()
	return s, nil
}

func (s *serveLive) clients() []client { return []client{s.writer, s.reader} }
func (s *serveLive) kinds() []string   { return []string{"insert", "delete", "read"} }

func (s *serveLive) close() {
	s.srv.Close()
	s.reader.http.c.CloseIdleConnections()
	s.writer.http.c.CloseIdleConnections()
}

func (s *serveLive) probe(rec *recorder) {
	probeStorage(rec, s.ont.Data(), freshStudent)
	after := s.ont.MaterializationStats()
	recordCacheCounts(rec, s.before.AnswerCache, after.AnswerCache)
	rec.count("ontology.full_rebuilds", float64(after.FullRebuilds-s.before.FullRebuilds))
}

// verify builds an ontology from scratch over the facts the server should now
// hold and compares its answers with the served ones, both modes.
func (s *serveLive) verify() []string {
	data := datagen.UniversityData(s.depts, s.seed)
	for _, st := range s.writer.live {
		for _, a := range st.atoms {
			if err := data.InsertAtom(a); err != nil {
				panic(err)
			}
		}
	}
	if got, want := s.ont.Data().Size(), data.Size(); got != want {
		return []string{fmt.Sprintf("server holds %d base facts, the mutations sent leave %d", got, want)}
	}
	return compareServed(s.reader.http, repro.New(s.rules, data), s.pool, 5)
}
