package repro

import (
	"fmt"

	"repro/internal/dlite"
	"repro/internal/fol"
	"repro/internal/logic"
	"repro/internal/mapping"
	"repro/internal/parser"
	"repro/internal/storage"
)

// FromDLLite builds an ontology from a DL-Lite_R TBox (one axiom per line,
// e.g. "Student <= Person", "Professor <= exists teaches") and an optional
// fact program. The TBox is translated into linear TGDs, so the resulting
// ontology is always FO-rewritable.
func FromDLLite(tboxSrc, factsSrc string) (*Ontology, error) {
	tbox, err := dlite.ParseTBox(tboxSrc)
	if err != nil {
		return nil, err
	}
	rules, err := tbox.Translate()
	if err != nil {
		return nil, err
	}
	data := storage.NewInstance()
	if factsSrc != "" {
		facts, err := parser.ParseFacts(factsSrc)
		if err != nil {
			return nil, err
		}
		for _, f := range facts {
			if err := data.InsertAtom(f); err != nil {
				return nil, err
			}
		}
	}
	return build(rules, data)
}

// FromMappings builds an ontology whose data is the virtual ABox obtained
// by applying GAV mapping assertions (query-shaped clauses targeting
// ontology predicates) to a source database — the full three-layer OBDA
// architecture of the paper's §1.
func FromMappings(rulesSrc, mappingSrc string, source *storage.Instance) (*Ontology, error) {
	rules, err := parser.ParseRules(rulesSrc)
	if err != nil {
		return nil, err
	}
	maps, err := mapping.Parse(mappingSrc)
	if err != nil {
		return nil, err
	}
	abox, err := maps.Apply(source)
	if err != nil {
		return nil, err
	}
	return build(rules, abox)
}

// FO returns the rewriting as a first-order formula with its answer-variable
// tuple — the q′ of the paper's Definition 1 — whose direct model checking
// over any database D computes ans(q′, D) = cert(q, P, D).
func (r *Rewriting) FO() (fol.Formula, []logic.Term, error) {
	if !r.Complete {
		return nil, nil, fmt.Errorf("repro: rewriting incomplete; its FO reading would under-approximate")
	}
	return fol.FromUCQ(r.UCQ)
}
