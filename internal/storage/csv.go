package storage

import (
	"encoding/csv"
	"fmt"
	"io"

	"repro/internal/logic"
)

// LoadCSV reads tuples for one relation from CSV data: every record becomes
// one tuple of constants. The relation's arity is fixed by the first
// record; ragged records are an error. Values are taken verbatim (always
// constants — labelled nulls cannot appear in source data). It panics on a
// frozen instance.
func (ins *Instance) LoadCSV(pred string, r io.Reader) (added int, err error) {
	ins.mustBeWritable()
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	first := true
	arity := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return added, nil
		}
		if err != nil {
			return added, fmt.Errorf("storage: csv for %s: %w", pred, err)
		}
		if first {
			arity = len(rec)
			first = false
		}
		if len(rec) != arity {
			return added, fmt.Errorf("storage: csv for %s: record has %d fields, want %d",
				pred, len(rec), arity)
		}
		args := make([]logic.Term, len(rec))
		for i, v := range rec {
			args[i] = logic.NewConst(v)
		}
		isNew, err := ins.Insert(logic.NewAtom(pred, args...))
		if err != nil {
			return added, err
		}
		if isNew {
			added++
		}
	}
}
