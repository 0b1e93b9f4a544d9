package repro

import (
	"bytes"
	"testing"
)

// FuzzLoadCSV feeds arbitrary bytes to LoadCSVCtx, for an arbitrary predicate,
// on an ontology whose materialization is published. Whatever arrives, the
// load must not panic and must be atomic: rejected, it leaves the base data
// and the answers as they were; accepted, the base grows by exactly the count
// it reports and the maintained answers are those of an ontology built from
// scratch over the grown base.
func FuzzLoadCSV(f *testing.F) {
	for _, seed := range []struct{ pred, csv string }{
		{"student", "bob\ncarol\n"},
		{"student", "alice\nalice\n"},
		{"advisor", "alice, prof1\nbob, prof2\n"},
		{"student", "bob, extra\n"}, // arity conflict with the stored relation
		{"person", "\"quoted, comma\"\n"},
		{"fresh", "a,b,c\nd,e\n"}, // ragged
		{"fresh", "\"unterminated\n"},
		{"", "x\n"},
		{"student", ""},
	} {
		f.Add(seed.pred, []byte(seed.csv))
	}
	const program = `
student(X) -> person(X) .
advisor(X, Y) -> person(Y) .
student(alice) .
`
	const q = `q(X) :- person(X) .`
	f.Fuzz(func(t *testing.T, pred string, csv []byte) {
		ont := MustParse(program)
		before, err := ont.AnswerCtx(bg, q, Options{Mode: ModeChase})
		if err != nil {
			t.Fatal(err)
		}
		size := ont.Data().Size()
		added, err := ont.LoadCSVCtx(bg, pred, bytes.NewReader(csv))
		after, aerr := ont.AnswerCtx(bg, q, Options{Mode: ModeChase})
		if aerr != nil {
			t.Fatal(aerr)
		}
		if err != nil {
			if added != 0 || ont.Data().Size() != size || !after.Equal(before) {
				t.Fatalf("rejected load of %q into %q (%v) left %d new facts and %d answers, had %d",
					csv, pred, err, ont.Data().Size()-size, after.Len(), before.Len())
			}
			return
		}
		if got := ont.Data().Size() - size; got != added {
			t.Fatalf("load of %q into %q reported %d new facts, the base grew by %d", csv, pred, added, got)
		}
		scratch, err := New(ont.Rules(), ont.Data().Clone()).AnswerCtx(bg, q, Options{Mode: ModeChase})
		if err != nil {
			t.Fatal(err)
		}
		if !after.Equal(scratch) {
			t.Fatalf("after loading %q into %q:\nmaintained:\n%s\nfrom scratch:\n%s", csv, pred, after, scratch)
		}
	})
}
