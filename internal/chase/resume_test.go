package chase

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/logic"
	"repro/internal/storage"
)

// chunkAtoms splits the atoms of an instance into n contiguous chunks
// (deterministic order: Instance.Atoms is sorted by predicate).
func chunkAtoms(ins *storage.Instance, n int) [][]logic.Atom {
	atoms := ins.Atoms()
	out := make([][]logic.Atom, n)
	for i, a := range atoms {
		out[i%n] = append(out[i%n], a)
	}
	return out
}

// TestResumeIncrementalEqualsScratch is the incremental-maintenance
// correctness property at the engine level: chasing a prefix of the data and
// then resuming with the remaining facts as deltas — in several increments —
// must yield the same null-free fact set (= the certain facts) as a single
// from-scratch chase of the full data. The increments exercise the
// head-satisfaction re-check against the cached instance.
func TestResumeIncrementalEqualsScratch(t *testing.T) {
	families := []datagen.Family{
		datagen.FamilyLinear, datagen.FamilyMultilinear,
		datagen.FamilySticky, datagen.FamilyChain,
	}
	for _, fam := range families {
		for seed := int64(1); seed <= 4; seed++ {
			for _, par := range parLegs {
				name := fmt.Sprintf("%v/seed=%d/restricted/par=%d", fam, seed, par)
				t.Run(name, func(t *testing.T) {
					rules := datagen.Rules(datagen.Config{Family: fam, Rules: 6, Seed: seed})
					data := datagen.Instance(rules, 25, 8, seed)
					opts := Options{MaxRounds: 60, MaxSteps: 40000, Parallelism: par}

					scratch := Run(rules, data, opts)
					if !scratch.Terminated {
						t.Skip("from-scratch chase truncated; nothing exact to compare")
					}

					chunks := chunkAtoms(data, 3)
					st := NewState(opts)
					ins, err := storage.FromAtoms(chunks[0])
					if err != nil {
						t.Fatal(err)
					}
					incSteps := 0
					res := st.Resume(rules, ins, ins)
					incSteps += res.Steps
					for _, chunk := range chunks[1:] {
						if !res.Terminated {
							t.Fatal("increment truncated under the same budget")
						}
						delta := storage.NewInstance()
						for _, a := range chunk {
							added, err := ins.Insert(a)
							if err != nil {
								t.Fatal(err)
							}
							if added {
								if _, err := delta.Insert(a); err != nil {
									t.Fatal(err)
								}
							}
						}
						res = st.Resume(rules, ins, delta)
						incSteps += res.Steps
					}
					if !res.Terminated {
						t.Fatal("final increment truncated under the same budget")
					}
					if sf, inf := constFacts(scratch.Instance), constFacts(ins); sf != inf {
						t.Errorf("null-free facts differ:\nscratch:\n%s\nincremental:\n%s", sf, inf)
					}
					if st.TotalSteps() != incSteps {
						t.Errorf("State.TotalSteps = %d, want sum of increments %d", st.TotalSteps(), incSteps)
					}
				})
			}
		}
	}
}

// TestResumeEmptyDeltaIsNoop: resuming with an empty delta terminates
// immediately without firing anything.
func TestResumeEmptyDeltaIsNoop(t *testing.T) {
	rules := datagen.University()
	data := datagen.UniversityData(2, 1)
	st := NewState(Options{})
	ins := data.Clone()
	first := st.Resume(rules, ins, ins)
	if !first.Terminated || first.Steps == 0 {
		t.Fatalf("initial chase: terminated=%v steps=%d", first.Terminated, first.Steps)
	}
	size := ins.Size()
	res := st.Resume(rules, ins, storage.NewInstance())
	if !res.Terminated || res.Steps != 0 || ins.Size() != size {
		t.Errorf("empty-delta resume: terminated=%v steps=%d size %d->%d",
			res.Terminated, res.Steps, size, ins.Size())
	}
}

// TestResumeStepsProportionalToDelta: after a completed chase of 16
// departments, resuming with one new student fact must fire a handful of
// triggers, not re-run the fixpoint.
func TestResumeStepsProportionalToDelta(t *testing.T) {
	rules := datagen.University()
	data := datagen.UniversityData(16, 1)
	st := NewState(Options{})
	ins := data.Clone()
	first := st.Resume(rules, ins, ins)
	if !first.Terminated {
		t.Fatal("initial chase must terminate")
	}
	fact := logic.NewAtom("undergraduateStudent", logic.NewConst("newcomer"))
	if _, err := ins.Insert(fact); err != nil {
		t.Fatal(err)
	}
	delta := storage.MustFromAtoms([]logic.Atom{fact})
	res := st.Resume(rules, ins, delta)
	if !res.Terminated {
		t.Fatal("incremental resume must terminate")
	}
	// newcomer derives student and person: 2 firings. Allow headroom for
	// idempotent re-derivations, but stay far under the initial run.
	if res.Steps == 0 || res.Steps > 10 {
		t.Errorf("incremental steps = %d, want small (initial run took %d)", res.Steps, first.Steps)
	}
	if first.Steps < 50 {
		t.Errorf("initial steps = %d; workload too small for the proportionality claim", first.Steps)
	}
	if !ins.ContainsAtom(logic.NewAtom("person", logic.NewConst("newcomer"))) {
		t.Error("person(newcomer) must be derived by the increment")
	}
}
