// Package core ties the paper's contribution together: given a set of TGDs
// it runs one classes.Survey — the SWR and WR tests (each building its graph
// once) alongside every competitor classifier — and reads off whether, and
// by which sufficient condition, query answering over the set is first-order
// rewritable, and whether the chase terminates. This is the decision layer
// an OBDA system consults before choosing between query rewriting and
// chase-based materialization.
package core

import (
	"fmt"
	"strings"

	"repro/internal/classes"
	"repro/internal/dependency"
)

// Report is the full classification of a rule set.
type Report struct {
	// Verdicts holds every classifier's outcome in presentation order.
	Verdicts []classes.Verdict
	// FORewritable reports whether any implemented sufficient condition
	// certifies FO-rewritability.
	FORewritable bool
	// CertifiedBy lists the certifying classes (empty when !FORewritable).
	CertifiedBy []string
	// ChaseTerminates reports whether the chase is guaranteed to terminate
	// (weak acyclicity), independent of FO-rewritability.
	ChaseTerminates bool
}

// Classify runs every analysis on the rule set once and derives the
// certificates and chase termination from those verdicts.
func Classify(set *dependency.Set) *Report {
	verdicts := classes.Survey(set)
	by := classes.Certificates(verdicts)
	rep := &Report{Verdicts: verdicts, FORewritable: len(by) > 0, CertifiedBy: by}
	rep.ChaseTerminates = rep.Is("weakly-acyclic")
	return rep
}

// Is reports the verdict for the named class, and false when unknown.
func (r *Report) Is(class string) bool {
	for _, v := range r.Verdicts {
		if v.Class == class {
			return v.Member
		}
	}
	return false
}

// Strategy recommends how to answer queries over the set: "rewrite" when
// FO-rewritable, "chase" when only the chase is guaranteed to terminate,
// and "bounded" when neither is certified (budgeted best-effort).
func (r *Report) Strategy() string {
	switch {
	case r.FORewritable:
		return "rewrite"
	case r.ChaseTerminates:
		return "chase"
	default:
		return "bounded"
	}
}

// String renders a human-readable classification table.
func (r *Report) String() string {
	var b strings.Builder
	for _, v := range r.Verdicts {
		mark := "no "
		if v.Member {
			mark = "YES"
		}
		fmt.Fprintf(&b, "  %-18s %s", v.Class, mark)
		if !v.Member && v.Reason != "" {
			fmt.Fprintf(&b, "  (%s)", v.Reason)
		}
		b.WriteByte('\n')
	}
	if r.FORewritable {
		fmt.Fprintf(&b, "FO-rewritable: yes (via %s)\n", strings.Join(r.CertifiedBy, ", "))
	} else {
		b.WriteString("FO-rewritable: not certified by any implemented condition\n")
	}
	fmt.Fprintf(&b, "recommended strategy: %s\n", r.Strategy())
	return b.String()
}
