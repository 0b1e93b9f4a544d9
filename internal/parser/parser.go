package parser

import (
	"fmt"
	"os"

	"repro/internal/dependency"
	"repro/internal/logic"
)

// Clause is one parsed statement: exactly one of Rule, Query or Fact is set.
type Clause struct {
	Rule  *dependency.TGD
	Query *Query
	Fact  *logic.Atom
}

// Query is a parsed conjunctive query q(x̄) :- body.
type Query struct {
	Head logic.Atom
	Body []logic.Atom
}

// Program is the result of parsing a source text: rules, queries and facts
// in order of appearance.
type Program struct {
	Rules   []*dependency.TGD
	Queries []*Query
	Facts   []logic.Atom
}

// RuleSet wraps the program's rules into a validated dependency.Set.
func (p *Program) RuleSet() (*dependency.Set, error) {
	return dependency.NewSet(p.Rules...)
}

// Parse parses a full source text into a Program.
func Parse(src string) (*Program, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.prime(); err != nil {
		return nil, err
	}
	prog := &Program{}
	ruleCount := 0
	for p.cur.kind != tokEOF {
		clause, err := p.parseClause()
		if err != nil {
			return nil, err
		}
		switch {
		case clause.Rule != nil:
			ruleCount++
			if clause.Rule.Label == "" {
				clause.Rule.Label = fmt.Sprintf("R%d", ruleCount)
			}
			prog.Rules = append(prog.Rules, clause.Rule)
		case clause.Query != nil:
			prog.Queries = append(prog.Queries, clause.Query)
		case clause.Fact != nil:
			prog.Facts = append(prog.Facts, *clause.Fact)
		}
	}
	return prog, nil
}

// ParseFile reads and parses the file at path.
func ParseFile(path string) (*Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	prog, err := Parse(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return prog, nil
}

// ParseRules parses a source expected to contain only TGDs and returns them
// as a set; any query or fact clause is an error.
func ParseRules(src string) (*dependency.Set, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Queries) != 0 || len(prog.Facts) != 0 {
		return nil, fmt.Errorf("expected only rules, found %d queries and %d facts",
			len(prog.Queries), len(prog.Facts))
	}
	return prog.RuleSet()
}

// MustParseRules is ParseRules panicking on error; for tests and fixtures.
func MustParseRules(src string) *dependency.Set {
	s, err := ParseRules(src)
	if err != nil {
		panic(err)
	}
	return s
}

// ParseRule parses a single TGD clause such as `p(X) -> q(X) .` — the
// input format of live rule mutation (Ontology.AddRuleCtx). The positional
// auto-label is cleared so the receiving rule set can assign a unique one.
func ParseRule(src string) (*dependency.TGD, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Rules) != 1 || len(prog.Queries) != 0 || len(prog.Facts) != 0 {
		return nil, fmt.Errorf("expected exactly one rule clause, found %d rules, %d queries and %d facts",
			len(prog.Rules), len(prog.Queries), len(prog.Facts))
	}
	r := prog.Rules[0]
	r.Label = ""
	return r, nil
}

// ParseQuery parses a single conjunctive query clause.
func ParseQuery(src string) (*Query, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Queries) != 1 || len(prog.Rules) != 0 || len(prog.Facts) != 0 {
		return nil, fmt.Errorf("expected exactly one query clause")
	}
	return prog.Queries[0], nil
}

// MustParseQuery is ParseQuery panicking on error.
func MustParseQuery(src string) *Query {
	q, err := ParseQuery(src)
	if err != nil {
		panic(err)
	}
	return q
}

// ParseFacts parses a source expected to contain only ground facts.
func ParseFacts(src string) ([]logic.Atom, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(prog.Queries) != 0 || len(prog.Rules) != 0 {
		return nil, fmt.Errorf("expected only facts")
	}
	return prog.Facts, nil
}

type parser struct {
	lex *lexer
	cur token
}

func (p *parser) prime() *Error {
	tok, err := p.lex.next()
	if err != nil {
		return err
	}
	p.cur = tok
	return nil
}

func (p *parser) advance() *Error { return p.prime() }

func (p *parser) expect(kind tokenKind) (token, *Error) {
	if p.cur.kind != kind {
		return token{}, &Error{p.cur.line, p.cur.col,
			fmt.Sprintf("expected %v, found %v %q", kind, p.cur.kind, p.cur.text)}
	}
	tok := p.cur
	if err := p.advance(); err != nil {
		return token{}, err
	}
	return tok, nil
}

// parseClause parses one statement terminated by '.'.
func (p *parser) parseClause() (Clause, error) {
	first, err := p.parseAtomList()
	if err != nil {
		return Clause{}, err
	}
	switch p.cur.kind {
	case tokArrow:
		if err := p.advance(); err != nil {
			return Clause{}, err
		}
		head, err := p.parseAtomList()
		if err != nil {
			return Clause{}, err
		}
		if _, err := p.expect(tokPeriod); err != nil {
			return Clause{}, err
		}
		rule, nerr := dependency.New("", first, head)
		if nerr != nil {
			return Clause{}, nerr
		}
		return Clause{Rule: rule}, nil
	case tokImpliedBy:
		if len(first) != 1 {
			return Clause{}, &Error{p.cur.line, p.cur.col, "query head must be a single atom"}
		}
		if err := p.advance(); err != nil {
			return Clause{}, err
		}
		body, err := p.parseAtomList()
		if err != nil {
			return Clause{}, err
		}
		if _, err := p.expect(tokPeriod); err != nil {
			return Clause{}, err
		}
		q := &Query{Head: first[0], Body: body}
		if err := validateQuery(q); err != nil {
			return Clause{}, err
		}
		return Clause{Query: q}, nil
	case tokPeriod:
		if len(first) != 1 {
			return Clause{}, &Error{p.cur.line, p.cur.col, "a fact must be a single atom"}
		}
		if !first[0].IsGround() {
			return Clause{}, &Error{p.cur.line, p.cur.col,
				fmt.Sprintf("fact %v contains variables", first[0])}
		}
		if err := p.advance(); err != nil {
			return Clause{}, err
		}
		f := first[0]
		return Clause{Fact: &f}, nil
	default:
		return Clause{}, &Error{p.cur.line, p.cur.col,
			fmt.Sprintf("expected '->', ':-' or '.', found %v %q", p.cur.kind, p.cur.text)}
	}
}

// validateQuery checks the CQ safety condition: every head variable occurs
// in the body, and head arguments are variables or constants.
func validateQuery(q *Query) error {
	bodyVars := make(map[logic.Term]bool)
	for _, v := range logic.VarsOf(q.Body) {
		bodyVars[v] = true
	}
	for _, t := range q.Head.Args {
		if t.IsVar() && !bodyVars[t] {
			return fmt.Errorf("unsafe query: head variable %v does not occur in the body", t)
		}
	}
	return nil
}

func (p *parser) parseAtomList() ([]logic.Atom, *Error) {
	var atoms []logic.Atom
	for {
		a, err := p.parseAtom()
		if err != nil {
			return nil, err
		}
		atoms = append(atoms, a)
		if p.cur.kind != tokComma {
			return atoms, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
}

func (p *parser) parseAtom() (logic.Atom, *Error) {
	name, err := p.expect(tokIdent)
	if err != nil {
		return logic.Atom{}, err
	}
	if _, err := p.expect(tokLParen); err != nil {
		return logic.Atom{}, err
	}
	var args []logic.Term
	if p.cur.kind != tokRParen {
		for {
			t, err := p.parseTerm()
			if err != nil {
				return logic.Atom{}, err
			}
			args = append(args, t)
			if p.cur.kind != tokComma {
				break
			}
			if err := p.advance(); err != nil {
				return logic.Atom{}, err
			}
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return logic.Atom{}, err
	}
	return logic.NewAtom(name.text, args...), nil
}

func (p *parser) parseTerm() (logic.Term, *Error) {
	switch p.cur.kind {
	case tokVariable:
		name := p.cur.text
		if err := p.advance(); err != nil {
			return logic.Term{}, err
		}
		return logic.NewVar(name), nil
	case tokIdent, tokNumber, tokString:
		name := p.cur.text
		if err := p.advance(); err != nil {
			return logic.Term{}, err
		}
		return logic.NewConst(name), nil
	default:
		return logic.Term{}, &Error{p.cur.line, p.cur.col,
			fmt.Sprintf("expected a term, found %v %q", p.cur.kind, p.cur.text)}
	}
}
