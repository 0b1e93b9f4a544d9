package core

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dependency"
	"repro/internal/parser"
)

// goldenInput is one rule set of the golden classification table.
type goldenInput struct {
	name string
	set  *dependency.Set
}

// goldenInputs are the paper's Examples 1–3, the ancestor loop, a set with
// several SWR witnesses in one component, every datagen family at 8 rules
// for seeds 0–9, the four generated sets of the onboard_rewrite benchmark at
// 40 rules, and the fixed ontologies.
func goldenInputs() []goldenInput {
	ins := []goldenInput{
		{"example1", parser.MustParseRules(`
s(Y1,Y2,Y3), t(Y4) -> r(Y1,Y3) .
v(Y1,Y2), q(Y2) -> s(Y1,Y3,Y2) .
r(Y1,Y2) -> v(Y1,Y2) .
`)},
		{"example2", parser.MustParseRules(`
t(Y1,Y2), r(Y3,Y4) -> s(Y1,Y3,Y2) .
s(Y1,Y1,Y2) -> r(Y2,Y3) .
`)},
		{"example3", parser.MustParseRules(`
r(Y1,Y2) -> t(Y3,Y1,Y1) .
s(Y1,Y2,Y3) -> r(Y1,Y2) .
u(Y1), t(Y1,Y1,Y2) -> s(Y1,Y1,Y2) .
`)},
		{"ancestor", parser.MustParseRules(`
p(X) -> q(X,Y) .
q(X,Y) -> p(Y) .
q(X,Y), q(Y,Z) -> q(X,Z) .
`)},
		{"swr-witness", parser.MustParseRules(`
r(X,Y), s(Y,W) -> r(X,Z) .
r(X,Y) -> s(Y,Z) .
t(X,Y), r(Y,W) -> t(X,Z) .
`)},
	}
	families := []datagen.Family{datagen.FamilyLinear, datagen.FamilyMultilinear, datagen.FamilySticky, datagen.FamilyChain}
	for _, fam := range families {
		for seed := int64(0); seed < 10; seed++ {
			ins = append(ins, goldenInput{fmt.Sprintf("%s/%d", fam, seed),
				datagen.Rules(datagen.Config{Family: fam, Rules: 8, Seed: seed})})
		}
	}
	for _, c := range []datagen.Config{
		{Family: datagen.FamilyLinear, Seed: 2},
		{Family: datagen.FamilyMultilinear, Seed: 13},
		{Family: datagen.FamilySticky, Seed: 12},
		{Family: datagen.FamilyChain, Seed: 7},
	} {
		c.Rules = 40
		ins = append(ins, goldenInput{fmt.Sprintf("onboard-%s/%d", c.Family, c.Seed), datagen.Rules(c)})
	}
	return append(ins,
		goldenInput{"chain32", datagen.ChainOntology(32)},
		goldenInput{"star8", datagen.StarOntology(8)},
		goldenInput{"university", datagen.University()})
}

// surveyOrder is the class order of classes.Survey; a golden row's members
// mask has one character per class in this order, Y for member.
var surveyOrder = []string{"simple", "linear", "multilinear", "sticky", "sticky-join",
	"guarded", "domain-restricted", "weakly-acyclic", "acyclic-grd", "swr", "wr"}

// TestGoldenClassification pins, for every golden input, each verdict's
// membership, the certificates in order, chase termination and the strategy,
// and the full rendered report (testdata/reports.golden, one "== name"
// section per input). A change that moves any of them is a change in what
// the classifier decides and must update both tables on purpose.
func TestGoldenClassification(t *testing.T) {
	type row struct {
		name, members, certifiedBy string
		chase                      bool
		strategy                   string
	}
	golden := []row{
		{"example1", "Y--YY--Y-YY", "sticky,sticky-join,swr,wr", true, "rewrite"},
		{"example2", "-------Y---", "", true, "chase"},
		{"example3", "-----Y--Y-Y", "acyclic-grd,wr", false, "rewrite"},
		{"ancestor", "Y----------", "", false, "bounded"},
		{"swr-witness", "Y------Y---", "", true, "chase"},
		{"linear/0", "YYYYYY-Y-YY", "linear,multilinear,sticky,sticky-join,swr,wr", true, "rewrite"},
		{"linear/1", "YYYYYY---YY", "linear,multilinear,sticky,sticky-join,swr,wr", false, "rewrite"},
		{"linear/2", "YYYYYY-Y-YY", "linear,multilinear,sticky,sticky-join,swr,wr", true, "rewrite"},
		{"linear/3", "YYYYYY-Y-YY", "linear,multilinear,sticky,sticky-join,swr,wr", true, "rewrite"},
		{"linear/4", "YYYYYY-Y-YY", "linear,multilinear,sticky,sticky-join,swr,wr", true, "rewrite"},
		{"linear/5", "YYYYYY-Y-YY", "linear,multilinear,sticky,sticky-join,swr,wr", true, "rewrite"},
		{"linear/6", "YYYYYY---YY", "linear,multilinear,sticky,sticky-join,swr,wr", false, "rewrite"},
		{"linear/7", "YYYYYY-Y-YY", "linear,multilinear,sticky,sticky-join,swr,wr", true, "rewrite"},
		{"linear/8", "YYYYYY-YYYY", "linear,multilinear,sticky,sticky-join,acyclic-grd,swr,wr", true, "rewrite"},
		{"linear/9", "YYYYYY-Y-YY", "linear,multilinear,sticky,sticky-join,swr,wr", true, "rewrite"},
		{"multilinear/0", "Y-Y----Y-YY", "multilinear,swr,wr", true, "rewrite"},
		{"multilinear/1", "Y-Y------YY", "multilinear,swr,wr", false, "rewrite"},
		{"multilinear/2", "Y-Y----Y-YY", "multilinear,swr,wr", true, "rewrite"},
		{"multilinear/3", "Y-Y--Y---YY", "multilinear,swr,wr", false, "rewrite"},
		{"multilinear/4", "Y-Y----Y-YY", "multilinear,swr,wr", true, "rewrite"},
		{"multilinear/5", "Y-Y----Y-YY", "multilinear,swr,wr", true, "rewrite"},
		{"multilinear/6", "Y-Y----YYYY", "multilinear,acyclic-grd,swr,wr", true, "rewrite"},
		{"multilinear/7", "Y-Y----Y-YY", "multilinear,swr,wr", true, "rewrite"},
		{"multilinear/8", "Y-Y------YY", "multilinear,swr,wr", false, "rewrite"},
		{"multilinear/9", "Y-Y----Y-YY", "multilinear,swr,wr", true, "rewrite"},
		{"sticky/0", "Y-YYY--Y-YY", "multilinear,sticky,sticky-join,swr,wr", true, "rewrite"},
		{"sticky/1", "Y-YYY--Y-YY", "multilinear,sticky,sticky-join,swr,wr", true, "rewrite"},
		{"sticky/2", "Y-YYY--Y-YY", "multilinear,sticky,sticky-join,swr,wr", true, "rewrite"},
		{"sticky/3", "Y-YYYY-Y-YY", "multilinear,sticky,sticky-join,swr,wr", true, "rewrite"},
		{"sticky/4", "Y-YYY--Y-YY", "multilinear,sticky,sticky-join,swr,wr", true, "rewrite"},
		{"sticky/5", "Y-YYYY-Y-YY", "multilinear,sticky,sticky-join,swr,wr", true, "rewrite"},
		{"sticky/6", "Y-YYY--Y-YY", "multilinear,sticky,sticky-join,swr,wr", true, "rewrite"},
		{"sticky/7", "Y-YYY--Y-YY", "multilinear,sticky,sticky-join,swr,wr", true, "rewrite"},
		{"sticky/8", "Y-YYY--Y-YY", "multilinear,sticky,sticky-join,swr,wr", true, "rewrite"},
		{"sticky/9", "Y-YYY--Y-YY", "multilinear,sticky,sticky-join,swr,wr", true, "rewrite"},
		{"chain/0", "YYYYYY-Y-YY", "linear,multilinear,sticky,sticky-join,swr,wr", true, "rewrite"},
		{"chain/1", "YYYYYY---YY", "linear,multilinear,sticky,sticky-join,swr,wr", false, "rewrite"},
		{"chain/2", "YYYYYY-Y-YY", "linear,multilinear,sticky,sticky-join,swr,wr", true, "rewrite"},
		{"chain/3", "YYYYYY-Y-YY", "linear,multilinear,sticky,sticky-join,swr,wr", true, "rewrite"},
		{"chain/4", "YYYYYY-Y-YY", "linear,multilinear,sticky,sticky-join,swr,wr", true, "rewrite"},
		{"chain/5", "YYYYYY-Y-YY", "linear,multilinear,sticky,sticky-join,swr,wr", true, "rewrite"},
		{"chain/6", "YYYYYY---YY", "linear,multilinear,sticky,sticky-join,swr,wr", false, "rewrite"},
		{"chain/7", "YYYYYY-Y-YY", "linear,multilinear,sticky,sticky-join,swr,wr", true, "rewrite"},
		{"chain/8", "YYYYYY-YYYY", "linear,multilinear,sticky,sticky-join,acyclic-grd,swr,wr", true, "rewrite"},
		{"chain/9", "YYYYYY-Y-YY", "linear,multilinear,sticky,sticky-join,swr,wr", true, "rewrite"},
		{"onboard-linear/2", "YYYYYY---YY", "linear,multilinear,sticky,sticky-join,swr,wr", false, "rewrite"},
		{"onboard-multilinear/13", "Y-Y------YY", "multilinear,swr,wr", false, "rewrite"},
		{"onboard-sticky/12", "Y-YYY--Y-YY", "multilinear,sticky,sticky-join,swr,wr", true, "rewrite"},
		{"onboard-chain/7", "YYYYYY---YY", "linear,multilinear,sticky,sticky-join,swr,wr", false, "rewrite"},
		{"chain32", "YYYYYYYYYYY", "linear,multilinear,sticky,sticky-join,domain-restricted,acyclic-grd,swr,wr", true, "rewrite"},
		{"star8", "YYYYYYYYYYY", "linear,multilinear,sticky,sticky-join,domain-restricted,acyclic-grd,swr,wr", true, "rewrite"},
		{"university", "-------YY-Y", "acyclic-grd,wr", true, "rewrite"},
	}
	raw, err := os.ReadFile("testdata/reports.golden")
	if err != nil {
		t.Fatal(err)
	}
	reports := make(map[string]string)
	for _, sec := range strings.Split(string(raw), "== ")[1:] {
		name, body, _ := strings.Cut(sec, "\n")
		reports[name] = body
	}

	ins := goldenInputs()
	if len(ins) != len(golden) {
		t.Fatalf("%d golden inputs, %d golden rows", len(ins), len(golden))
	}
	for i, in := range ins {
		g := golden[i]
		if in.name != g.name {
			t.Fatalf("input %d is %s, golden row %s", i, in.name, g.name)
		}
		rep := Classify(in.set)
		if len(rep.Verdicts) != len(surveyOrder) {
			t.Fatalf("%s: %d verdicts, want %d", in.name, len(rep.Verdicts), len(surveyOrder))
		}
		var mask strings.Builder
		for j, v := range rep.Verdicts {
			if v.Class != surveyOrder[j] {
				t.Fatalf("%s: verdict %d is %s, want %s", in.name, j, v.Class, surveyOrder[j])
			}
			if v.Member {
				mask.WriteByte('Y')
			} else {
				mask.WriteByte('-')
			}
		}
		got := row{in.name, mask.String(), strings.Join(rep.CertifiedBy, ","), rep.ChaseTerminates, rep.Strategy()}
		if got != g {
			t.Errorf("%s: got %+v, golden %+v", in.name, got, g)
		}
		if s := rep.String(); s != reports[in.name] {
			t.Errorf("%s: report\n%s\ngolden\n%s", in.name, s, reports[in.name])
		}
	}
}
