package main

import (
	"context"
	"fmt"
	"time"

	"repro"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/query"
	"repro/internal/storage"
)

var ctx = context.Background()

// maxSteps lifts the chase's default budget of 100 000 trigger firings, which
// University at 2 000 departments (61 per department) exceeds.
const maxSteps = 1 << 24

// answerModes are the two answering paths the workloads compare, in the order
// of the "auto" and "chase" request bodies of the serving workloads.
var answerModes = []repro.AnswerMode{repro.ModeAuto, repro.ModeChase}

// universityCounts are the closed-form sizes of datagen.University over
// datagen.UniversityData(depts, seed), for every seed: a department has 3
// professors, each teaching one course, and 10 students, each taking one
// course; the chase fires 61 triggers per department and invents one null
// (its university).
type universityCounts struct {
	persons, taughtBy, steps, factsOut, nulls int
}

func universityExpect(depts int) universityCounts {
	return universityCounts{persons: 13 * depts, taughtBy: 10 * depts, steps: 61 * depts, factsOut: 81 * depts, nulls: depts}
}

// checkMaterialization compares an ontology's published chase with the closed
// forms and returns what differs.
func checkMaterialization(o *repro.Ontology, want universityCounts) []string {
	var bad []string
	st := o.MaterializationStats()
	if !st.Cached || !st.Terminated {
		bad = append(bad, fmt.Sprintf("materialization cached=%v terminated=%v", st.Cached, st.Terminated))
	}
	for _, c := range []struct {
		what      string
		got, want int
	}{
		{"chase steps", st.Steps, want.steps},
		{"chased facts", st.Facts, want.factsOut},
		{"nulls", st.NullsCreated, want.nulls},
	} {
		if c.got != c.want {
			bad = append(bad, fmt.Sprintf("%s: got %d, want %d", c.what, c.got, c.want))
		}
	}
	return bad
}

// mustQuery parses a query the benchmark itself wrote.
func mustQuery(src string) *query.CQ {
	pq, err := parser.ParseQuery(src)
	if err != nil {
		panic(err)
	}
	return query.MustNew(pq.Head, pq.Body)
}

// probeStorage times the storage layer alone on the workload's data: loading
// it from atoms with its indexes, copying it, and the first insert into a
// copy-on-write clone, which copies the relation it touches. fresh must be an
// atom of an existing relation that data does not hold.
func probeStorage(rec *recorder, data *storage.Instance, fresh logic.Atom) {
	const reps = 5
	atoms := data.Atoms()
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		ins, err := storage.FromAtoms(atoms)
		if err != nil {
			panic(err)
		}
		ins.EnsureIndexes()
		rec.root(0, "storage", "storage.load", t0, time.Since(t0))

		t0 = time.Now()
		_ = data.Clone()
		rec.root(0, "storage", "storage.clone", t0, time.Since(t0))

		t0 = time.Now()
		cow := data.ExtendClone()
		if added, err := cow.Insert(fresh); err != nil || !added {
			panic(fmt.Sprintf("probeStorage: insert of %v: added=%v err=%v", fresh, added, err))
		}
		rec.root(0, "storage", "storage.cow_insert", t0, time.Since(t0))
	}
}

// freshStudent is an atom no generated instance holds.
var freshStudent = logic.NewAtom("graduateStudent", logic.NewConst("probe_student"))
