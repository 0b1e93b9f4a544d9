package storage

import (
	"strings"
	"testing"

	"repro/internal/logic"
)

func TestLoadCSV(t *testing.T) {
	ins := NewInstance()
	n, err := ins.LoadCSV("person", strings.NewReader("alice,30\nbob,41\nalice,30\n"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("added = %d, want 2 (one duplicate)", n)
	}
	if !ins.ContainsAtom(logic.NewAtom("person", logic.NewConst("alice"), logic.NewConst("30"))) {
		t.Error("missing loaded tuple")
	}
}

func TestLoadCSVQuotedFields(t *testing.T) {
	ins := NewInstance()
	if _, err := ins.LoadCSV("note", strings.NewReader("\"hello, world\",x\n")); err != nil {
		t.Fatal(err)
	}
	if !ins.ContainsAtom(logic.NewAtom("note", logic.NewConst("hello, world"), logic.NewConst("x"))) {
		t.Error("quoted comma field mishandled")
	}
}

func TestLoadCSVRaggedRejected(t *testing.T) {
	ins := NewInstance()
	if _, err := ins.LoadCSV("p", strings.NewReader("a,b\nc\n")); err == nil {
		t.Error("ragged records must be rejected")
	}
}

func TestLoadCSVArityConflictWithExisting(t *testing.T) {
	ins := NewInstance()
	ins.InsertAtom(logic.NewAtom("p", logic.NewConst("x")))
	if _, err := ins.LoadCSV("p", strings.NewReader("a,b\n")); err == nil {
		t.Error("arity conflict with existing relation must be rejected")
	}
}

func TestLoadCSVEmpty(t *testing.T) {
	ins := NewInstance()
	n, err := ins.LoadCSV("p", strings.NewReader(""))
	if err != nil || n != 0 {
		t.Errorf("empty csv: n=%d err=%v", n, err)
	}
}
