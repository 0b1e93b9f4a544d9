package storage

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/logic"
)

// model is the reference a generation is compared against: per predicate,
// the set of tuples keyed by Tuple.Key.
type model map[string]map[string]Tuple

func (m model) clone() model {
	out := make(model, len(m))
	for pred, ts := range m {
		c := make(map[string]Tuple, len(ts))
		for k, t := range ts {
			c[k] = t
		}
		out[pred] = c
	}
	return out
}

func (m model) has(a logic.Atom) bool {
	_, ok := m[a.Pred][Tuple(a.Args).Key()]
	return ok
}

func (m model) add(a logic.Atom) {
	if m[a.Pred] == nil {
		m[a.Pred] = make(map[string]Tuple)
	}
	m[a.Pred][Tuple(a.Args).Key()] = Tuple(a.Args).Clone()
}

// modelArity is the fixed arity of every predicate the script uses; a fact
// of any other width is an arity conflict.
var modelArity = map[string]int{"r": 2, "s": 1, "t": 3}

// domain is every term randAtom draws.
var domain = []logic.Term{
	logic.NewConst("c0"), logic.NewConst("c1"), logic.NewConst("c2"), logic.NewConst("c3"),
	logic.NewNull("n0"), logic.NewNull("n1"),
}

// check compares an instance against the model through every read the
// evaluator and the chase use: Relation, Tuples and Lookup. Every posting
// list of the domain is read, so a stale posting of a removed tuple shows.
func check(ins *Instance, m model) error {
	for _, pred := range ins.Predicates() {
		if len(m[pred]) == 0 && ins.Relation(pred).Len() != 0 {
			return fmt.Errorf("%s holds %d tuples, model none", pred, ins.Relation(pred).Len())
		}
	}
	for pred, want := range m {
		rel := ins.Relation(pred)
		if len(want) == 0 {
			continue
		}
		if rel == nil {
			return fmt.Errorf("%s missing, want %d tuples", pred, len(want))
		}
		if rel.Len() != len(want) {
			return fmt.Errorf("%s holds %d tuples, want %d", pred, rel.Len(), len(want))
		}
		for _, t := range rel.Tuples() {
			if _, ok := want[t.Key()]; !ok {
				return fmt.Errorf("%s holds %v, absent from the model", pred, t)
			}
		}
		for col := 0; col < rel.Arity(); col++ {
			count := make(map[logic.Term]int)
			for _, t := range want {
				count[t[col]]++
			}
			for _, term := range domain {
				n := count[term]
				offs := rel.Lookup(col, term)
				if len(offs) != n {
					return fmt.Errorf("%s Lookup(%d, %v) = %d offsets, want %d", pred, col, term, len(offs), n)
				}
				for _, o := range offs {
					if rel.Tuples()[o][col] != term {
						return fmt.Errorf("%s Lookup(%d, %v) points at %v", pred, col, term, rel.Tuples()[o])
					}
				}
			}
		}
	}
	return nil
}

// randAtom draws a fact over a small domain, so duplicates are frequent;
// with probability 1/8 its width disagrees with its predicate's arity.
func randAtom(rng *rand.Rand) logic.Atom {
	preds := []string{"r", "s", "t"}
	pred := preds[rng.Intn(len(preds))]
	arity := modelArity[pred]
	if rng.Intn(8) == 0 {
		arity = arity%3 + 1
	}
	args := make([]logic.Term, arity)
	for i := range args {
		if rng.Intn(6) == 0 {
			args[i] = logic.NewNull(fmt.Sprintf("n%d", rng.Intn(2)))
		} else {
			args[i] = logic.NewConst(fmt.Sprintf("c%d", rng.Intn(4)))
		}
	}
	return logic.NewAtom(pred, args...)
}

func conflicts(a logic.Atom) bool { return a.Arity() != modelArity[a.Pred] }

// TestStoreContract runs random Insert/Remove/AddNew+Append scripts over a
// chain of ExtendClone generations and compares every generation against a
// plain set model. Every older generation keeps being read concurrently
// while its descendants are written, so -race sees any write through to a
// parent snapshot, and every re-check demands that it never changed. Every
// older generation is an ExtendClone parent, hence frozen: each exported
// writer must panic on it and leave it reading the same.
//
// The collide leg runs the same scripts with every tuple hashed to one of
// four values whose low bits are all ones: each probe chain starts at the
// last slots of its table and wraps, so backward-shift deletion, the slot
// rename of Remove's swap-with-last and the copy-on-write Clone all run on
// long colliding runs.
func TestStoreContract(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { storeContract(t, seed) })
	}
	t.Run("collide", func(t *testing.T) {
		collideHashes(t, func(tu Tuple) uint32 { return ^uint32(0) - hashTuple(tu)%4 })
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { storeContract(t, seed) })
		}
	})
}

// storeContract is one TestStoreContract script: 8 generations of 24 random
// steps each, drawn from seed.
func storeContract(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	stop := make(chan struct{})
	var readers sync.WaitGroup
	defer func() {
		close(stop)
		readers.Wait()
	}()
	read := func(gen int, ins *Instance, m model) {
		defer readers.Done()
		//repro:allow ctxpoll test reader, bounded by the stop channel
		for {
			if err := check(ins, m); err != nil {
				t.Errorf("generation %d changed under its descendants: %v", gen, err)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}

	// Every predicate exists from the start, so a fact of another
	// width always conflicts.
	ins, m := NewInstance(), model{}
	var gens []generation
	for pred, arity := range modelArity {
		if _, err := ins.ensureRelation(pred, arity); err != nil {
			t.Fatal(err)
		}
	}
	for gen := 0; gen < 8; gen++ {
		for op := 0; op < 24; op++ {
			step(t, rng, ins, m)
		}
		if err := check(ins, m); err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
		readers.Add(1)
		go read(gen, ins, m)
		gens = append(gens, generation{ins, m})
		ins, m = ins.ExtendClone(), m.clone()
		for old, g := range gens {
			refuseWrites(t, old, g.ins, g.m)
		}
	}
}

// step applies one random mutation to ins and to the model, checking the
// reported outcome against the model.
func step(t *testing.T, rng *rand.Rand, ins *Instance, m model) {
	t.Helper()
	switch rng.Intn(3) {
	case 0:
		a := randAtom(rng)
		added, err := ins.Insert(a)
		switch {
		case conflicts(a):
			if err == nil {
				t.Fatalf("Insert(%v): arity conflict not reported", a)
			}
		case err != nil || added == m.has(a):
			t.Fatalf("Insert(%v) = %v, %v; model has it: %v", a, added, err, m.has(a))
		default:
			m.add(a)
		}
	case 1:
		a := randAtom(rng)
		if got, want := ins.Remove(a), !conflicts(a) && m.has(a); got != want {
			t.Fatalf("Remove(%v) = %v, want %v", a, got, want)
		}
		if !conflicts(a) {
			delete(m[a.Pred], Tuple(a.Args).Key())
		}
	default:
		// One round write: AddNew against the unchanged instance, then
		// Append at the barrier, after which next is the delta.
		next, fresh := NewInstance(), model{}
		for i := rng.Intn(3); i >= 0; i-- {
			for j := rng.Intn(5); j >= 0; j-- {
				a := randAtom(rng)
				err := next.AddNew(ins, a)
				if conflicts(a) != (err != nil) {
					t.Fatalf("AddNew(%v) = %v; conflicts: %v", a, err, conflicts(a))
				}
				if err == nil && !m.has(a) {
					fresh.add(a)
				}
			}
		}
		if err := check(ins, m); err != nil {
			t.Fatalf("AddNew changed the instance it read: %v", err)
		}
		ins.Append(next)
		if err := check(next, fresh); err != nil {
			t.Fatalf("Append delta: %v", err)
		}
		for pred, ts := range fresh {
			for _, tu := range ts {
				m.add(logic.NewAtom(pred, tu...))
			}
		}
	}
}

// generation is one frozen ancestor and the model it must keep matching.
type generation struct {
	ins *Instance
	m   model
}

// refuseWrites calls every exported writer of Instance and Relation on a
// frozen generation with a change it would make: each must panic, and the
// generation must read the same afterwards.
func refuseWrites(t *testing.T, gen int, ins *Instance, m model) {
	t.Helper()
	fresh := logic.NewAtom("s", logic.NewConst("fresh")) // outside randAtom's domain
	type writer struct {
		name  string
		write func()
	}
	writers := []writer{
		{"Insert", func() { ins.Insert(fresh) }},
		{"InsertAtom", func() { ins.InsertAtom(fresh) }},
		{"Remove", func() { ins.Remove(fresh) }},
		{"AddNew", func() { ins.AddNew(NewInstance(), fresh) }},
		{"Append", func() {
			next := NewInstance()
			next.AddNew(ins, fresh)
			ins.Append(next)
		}},
		{"LoadCSV", func() { ins.LoadCSV("s", strings.NewReader("fresh\n")) }},
		{"Relation.Insert", func() { ins.Relation(fresh.Pred).Insert(Tuple(fresh.Args)) }},
	}
	for _, pred := range ins.Predicates() {
		if rel := ins.Relation(pred); rel.Len() > 0 {
			held := rel.Tuples()[0]
			writers = append(writers,
				writer{"Remove of a held fact", func() { ins.Remove(logic.NewAtom(pred, held...)) }},
				writer{"Relation.Remove", func() { rel.Remove(held) }})
			break
		}
	}
	for _, w := range writers {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("generation %d: %s on a frozen instance did not panic", gen, w.name)
				}
			}()
			w.write()
		}()
		if err := check(ins, m); err != nil {
			t.Fatalf("generation %d changed under a refused %s: %v", gen, w.name, err)
		}
	}
}
