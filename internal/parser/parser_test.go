package parser

import (
	"strings"
	"testing"

	"repro/internal/logic"
)

func TestParseTGD(t *testing.T) {
	prog, err := Parse(`parent(X,Y), parent(Y,Z) -> grandparent(X,Z) .`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 1 {
		t.Fatalf("got %d rules", len(prog.Rules))
	}
	r := prog.Rules[0]
	if r.Label != "R1" {
		t.Errorf("auto label = %q, want R1", r.Label)
	}
	if len(r.Body) != 2 || len(r.Head) != 1 {
		t.Fatalf("rule shape wrong: %v", r)
	}
	if r.Body[0].Pred != "parent" || r.Head[0].Pred != "grandparent" {
		t.Errorf("predicates wrong: %v", r)
	}
	if r.Body[0].Args[0] != logic.NewVar("X") {
		t.Errorf("X must parse as a variable")
	}
}

func TestParseExistentialHead(t *testing.T) {
	prog, err := Parse(`person(X) -> hasParent(X,Y), person(Y) .`)
	if err != nil {
		t.Fatal(err)
	}
	r := prog.Rules[0]
	eh := r.ExistentialHead()
	if len(eh) != 1 || eh[0] != logic.NewVar("Y") {
		t.Errorf("ExistentialHead = %v, want [Y]", eh)
	}
	if len(r.Head) != 2 {
		t.Errorf("multi-atom head must parse, got %d atoms", len(r.Head))
	}
}

func TestParseQuery(t *testing.T) {
	q, err := ParseQuery(`q(X) :- grandparent(X, "bob") .`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Head.Pred != "q" || len(q.Head.Args) != 1 {
		t.Errorf("head = %v", q.Head)
	}
	if q.Body[0].Args[1] != logic.NewConst("bob") {
		t.Errorf("quoted constant = %v", q.Body[0].Args[1])
	}
}

func TestParseBooleanQuery(t *testing.T) {
	q, err := ParseQuery(`q() :- r(a, X) .`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Head.Arity() != 0 {
		t.Errorf("boolean query must have arity 0")
	}
	if q.Body[0].Args[0] != logic.NewConst("a") {
		t.Errorf("lowercase identifier must be a constant, got %v", q.Body[0].Args[0])
	}
}

func TestParseFacts(t *testing.T) {
	facts, err := ParseFacts(`person(alice) . parent(alice, "Bob Jr") . age(alice, 42) .`)
	if err != nil {
		t.Fatal(err)
	}
	if len(facts) != 3 {
		t.Fatalf("got %d facts", len(facts))
	}
	if facts[1].Args[1] != logic.NewConst("Bob Jr") {
		t.Errorf("string constant = %v", facts[1].Args[1])
	}
	if facts[2].Args[1] != logic.NewConst("42") {
		t.Errorf("number constant = %v", facts[2].Args[1])
	}
}

func TestParseMixedProgramWithComments(t *testing.T) {
	src := `
% ontology
person(X) -> mortal(X) .
# data
person(socrates) .
% query
q(X) :- mortal(X) .
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 1 || len(prog.Facts) != 1 || len(prog.Queries) != 1 {
		t.Errorf("program shape: %d rules %d facts %d queries",
			len(prog.Rules), len(prog.Facts), len(prog.Queries))
	}
}

func TestParsePaperExample1(t *testing.T) {
	src := `
s(Y1,Y2,Y3), t(Y4) -> r(Y1,Y3) .
v(Y1,Y2), q(Y2) -> s(Y1,Y3,Y2) .
r(Y1,Y2) -> v(Y1,Y2) .
`
	set := MustParseRules(src)
	if set.Len() != 3 {
		t.Fatalf("got %d rules", set.Len())
	}
	if !set.IsSimple() {
		t.Error("Example 1 rules are simple TGDs")
	}
	if set.MaxArity() != 3 {
		t.Errorf("MaxArity = %d", set.MaxArity())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`p(X) -> q(X)`, "end of input"},        // missing period
		{`p(X) q(X) .`, "expected"},             // missing connective
		{`p(X, .`, "term"},                      // bad term
		{`p(X) : q(X) .`, "':-'"},               // bad colon
		{`p(X) - q(X) .`, "'->'"},               // bad dash
		{`p(X) .`, "variables"},                 // non-ground fact
		{`q(X) :- r(Y) .`, "unsafe"},            // unsafe query head
		{`p("abc) .`, "unterminated"},           // unterminated string
		{`p(X), q(X) .`, "single atom"},         // fact with two atoms
		{`p(X), q(X) :- r(X) .`, "single atom"}, // query head with 2 atoms
		{`&`, "unexpected character"},           // bad char
		{`-> q(X) .`, "identifier"},             // empty body
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", tc.src, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) error = %q, want containing %q", tc.src, err, tc.want)
		}
	}
}

func TestParseErrorPosition(t *testing.T) {
	_, err := Parse("p(X) -> q(X) .\np(Y) -> &\n")
	if err == nil {
		t.Fatal("expected error")
	}
	perr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T, want *Error", err)
	}
	if perr.Line != 2 {
		t.Errorf("error line = %d, want 2", perr.Line)
	}
}

func TestParseStringEscapes(t *testing.T) {
	facts, err := ParseFacts(`p("a\"b", "c\\d", "e\nf") .`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`a"b`, `c\d`, "e\nf"}
	for i, w := range want {
		if facts[0].Args[i].Name != w {
			t.Errorf("arg %d = %q, want %q", i, facts[0].Args[i].Name, w)
		}
	}
}

func TestParseZeroArityAtom(t *testing.T) {
	q, err := ParseQuery(`q() :- alarm() .`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Body[0].Pred != "alarm" || q.Body[0].Arity() != 0 {
		t.Errorf("zero-arity atom = %v", q.Body[0])
	}
}

func TestParseUnderscoreVariable(t *testing.T) {
	prog, err := Parse(`p(_x, Y) -> q(Y) .`)
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Rules[0].Body[0].Args[0].IsVar() {
		t.Error("_x must be a variable")
	}
}

func TestRoundTrip(t *testing.T) {
	src := `s(Y1,Y2,Y3), t(Y4) -> r(Y1,Y3) .`
	set := MustParseRules(src)
	again := MustParseRules(set.String())
	if again.String() != set.String() {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", set, again)
	}
}

// TestPrintedConstantsReparse: every constant prints as text the lexer reads
// back as that one constant — bare when it lexes as a single identifier or
// number, quoted otherwise.
func TestPrintedConstantsReparse(t *testing.T) {
	for _, tc := range []struct{ name, printed string }{
		{"0A", `"0A"`},
		{"Hello", `"Hello"`},
		{"x y", `"x y"`},
		{"_x", `"_x"`},
		{"alice", `alice`},
		{"aB_9", `aB_9`},
		{"007", `007`},
		{"1.5", `"1.5"`},
		{"a\"b\\c\nd\te", `"a\"b\\c\nd\te"`},
	} {
		c := logic.NewConst(tc.name)
		if got := c.String(); got != tc.printed {
			t.Errorf("constant %q prints as %s, want %s", tc.name, got, tc.printed)
		}
		facts, err := ParseFacts("p(" + c.String() + ") .")
		if err != nil {
			t.Errorf("constant %q printed as %s does not re-parse: %v", tc.name, c.String(), err)
			continue
		}
		if got := facts[0].Args; len(got) != 1 || got[0] != c {
			t.Errorf("constant %q printed as %s re-parses as %v", tc.name, c.String(), got)
		}
	}
}

func TestParseRulesRejectsNonRules(t *testing.T) {
	if _, err := ParseRules(`p(a) .`); err == nil {
		t.Error("facts must be rejected by ParseRules")
	}
	if _, err := ParseQuery(`p(X) -> q(X) .`); err == nil {
		t.Error("rules must be rejected by ParseQuery")
	}
	if _, err := ParseFacts(`q(X) :- p(X) .`); err == nil {
		t.Error("queries must be rejected by ParseFacts")
	}
}

func TestParseRule(t *testing.T) {
	r, err := ParseRule(`student(X), enrolled(X, Y) -> person(X) .`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Body) != 2 || len(r.Head) != 1 || r.Head[0].Pred != "person" {
		t.Errorf("parsed rule = %v", r)
	}
	if r.Label != "" {
		t.Errorf("auto-label must be cleared, got %q", r.Label)
	}
	for _, bad := range []string{
		`student(X) -> person(X) . person(Y) -> entity(Y) .`, // two rules
		`student(alice) .`,                 // a fact
		`q(X) :- person(X) .`,              // a query
		`student(X) -> person(X) . f(a) .`, // rule plus fact
		``,
	} {
		if _, err := ParseRule(bad); err == nil {
			t.Errorf("ParseRule(%q) must error", bad)
		}
	}
}
