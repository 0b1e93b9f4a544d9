package chase

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/storage"
)

// TestNullTableNoOrphanNoRedundantNull: a trigger whose head the
// over-deletion broke, though its body survived, re-fires with the nulls it
// invented before. Under p(X) -> q(X,Y), r(X) . s(X) -> r(X) . deleting s(a)
// takes r(a) away, and p(a)'s trigger restores it: a fresh null would leave
// q(a, n1) and q(a, n2) side by side. Deleting p(a) next must leave no q
// tuple and no table entry behind.
func TestNullTableNoOrphanNoRedundantNull(t *testing.T) {
	rules := parser.MustParseRules(`p(X) -> q(X,Y), r(X) . s(X) -> r(X) .`)
	a := c("a")
	for _, par := range parLegs {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			baseIns := data(at("p", a), at("s", a))
			st := NewState(Options{Parallelism: par})
			ins := baseIns.Clone()
			if res := st.Resume(rules, ins, ins); !res.Terminated || res.NullsCreated != 1 {
				t.Fatalf("initial chase: terminated=%v nulls=%d, want one null", res.Terminated, res.NullsCreated)
			}
			if n := len(st.invented); n != 1 {
				t.Fatalf("table after the build holds %d entries, want 1", n)
			}

			baseIns.Remove(at("s", a))
			dres, err := st.Delete(rules, ins, []logic.Atom{at("s", a)}, baseIns)
			if err != nil {
				t.Fatal(err)
			}
			if !dres.Result.Terminated || dres.Result.NullsCreated != 0 {
				t.Errorf("repair = %+v, want a terminated repair inventing no null", dres.Result)
			}
			if q := ins.Relation("q"); q == nil || q.Len() != 1 {
				t.Fatalf("q after deleting s(a) = %v, want exactly one tuple:\n%s", q.Tuples(), ins)
			}
			if !ins.ContainsAtom(at("r", a)) {
				t.Errorf("r(a) must be restored through p(a):\n%s", ins)
			}
			if n := len(st.invented); n != 1 {
				t.Errorf("table after deleting s(a) holds %d entries, want 1", n)
			}

			baseIns.Remove(at("p", a))
			if _, err := st.Delete(rules, ins, []logic.Atom{at("p", a)}, baseIns); err != nil {
				t.Fatal(err)
			}
			if q := ins.Relation("q"); q != nil && q.Len() != 0 {
				t.Errorf("q after deleting p(a) = %v, want empty", q.Tuples())
			}
			if ins.Size() != 0 || len(st.invented) != 0 || len(st.aside) != 0 {
				t.Errorf("after deleting every base fact: instance %q, table %d, aside %d, want all empty", ins, len(st.invented), len(st.aside))
			}
		})
	}
}

// TestNullTableNoChurn: a repair that restores what it removed restores it
// exactly. Under t(X) -> p(X) . p(X) -> q(X,Y) . over t(a), p(a), deleting
// the base p(a) over-deletes q(a, n1); t(a) rederives p(a), whose trigger
// re-fires with its set-aside null. The instance must print byte for byte as
// before, null names included, and no null may be invented.
func TestNullTableNoChurn(t *testing.T) {
	rules := parser.MustParseRules(`t(X) -> p(X) . p(X) -> q(X,Y) .`)
	a := c("a")
	for _, par := range parLegs {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			baseIns := data(at("t", a), at("p", a))
			st := NewState(Options{Parallelism: par})
			ins := baseIns.Clone()
			if res := st.Resume(rules, ins, ins); !res.Terminated || res.NullsCreated != 1 {
				t.Fatalf("initial chase: terminated=%v nulls=%d, want one null", res.Terminated, res.NullsCreated)
			}
			before, nulls := ins.String(), st.TotalNulls()

			baseIns.Remove(at("p", a))
			dres, err := st.Delete(rules, ins, []logic.Atom{at("p", a)}, baseIns)
			if err != nil {
				t.Fatal(err)
			}
			if !dres.Result.Terminated || dres.Result.NullsCreated != 0 || st.TotalNulls() != nulls {
				t.Errorf("repair = %+v, total nulls %d -> %d, want no null invented", dres.Result, nulls, st.TotalNulls())
			}
			if after := ins.String(); after != before {
				t.Errorf("instance changed across the repair:\nbefore:\n%s\nafter:\n%s", before, after)
			}
			if n := len(st.invented); n != 1 || len(st.aside) != 0 {
				t.Errorf("table %d, aside %d after the repair, want 1 and 0", n, len(st.aside))
			}
		})
	}
}

// TestNullTableHygiene: the table holds one entry per fired existential
// trigger and nothing more. On University(4) the chase invents one null per
// department, so the build leaves 4 entries; deleting every base fact, in
// shuffled chunks, must leave both the instance and the table empty.
func TestNullTableHygiene(t *testing.T) {
	rules := datagen.University()
	for _, par := range parLegs {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			baseIns := datagen.UniversityData(4, 1)
			st := NewState(Options{Parallelism: par})
			ins := baseIns.Clone()
			res := st.Resume(rules, ins, ins)
			if !res.Terminated || res.NullsCreated != 4 {
				t.Fatalf("initial chase: terminated=%v nulls=%d, want 4 nulls", res.Terminated, res.NullsCreated)
			}
			if n := len(st.invented); n != 4 {
				t.Fatalf("table after the build holds %d entries, want 4", n)
			}

			doomed := baseIns.Atoms()
			rng := rand.New(rand.NewSource(int64(par)))
			rng.Shuffle(len(doomed), func(i, j int) { doomed[i], doomed[j] = doomed[j], doomed[i] })
			mirror := storage.MustFromAtoms(doomed)
			for len(doomed) > 0 {
				n := min(1+rng.Intn(40), len(doomed))
				for _, f := range doomed[:n] {
					mirror.Remove(f)
				}
				dres, err := st.Delete(rules, ins, doomed[:n], mirror)
				if err != nil {
					t.Fatal(err)
				}
				if !dres.Result.Terminated {
					t.Fatal("repair truncated")
				}
				doomed = doomed[n:]
			}
			if ins.Size() != 0 || len(st.invented) != 0 || len(st.aside) != 0 {
				t.Errorf("after deleting every base fact: %d facts, table %d, aside %d, want all empty:\n%s",
					ins.Size(), len(st.invented), len(st.aside), ins)
			}
		})
	}
}
