package core

import (
	"strings"
	"testing"

	"sbr6/internal/wire"
)

// TestTxNameMatchesTypeString pins the static transmit-counter table to
// the "tx." + Type.String() names it replaced, for every defined Type and
// for values past the last one.
func TestTxNameMatchesTypeString(t *testing.T) {
	for v := 0; v <= wire.NumTypes+2; v++ {
		typ := wire.Type(v)
		if got, want := txName(typ), "tx."+typ.String(); got != want {
			t.Errorf("txName(%d) = %q, want %q", v, got, want)
		}
	}
	if s := wire.Type(wire.NumTypes - 1).String(); s != "AOBJ" {
		t.Fatalf("NumTypes-1 is %q, not the last defined type", s)
	}
	if s := wire.Type(wire.NumTypes).String(); !strings.HasPrefix(s, "type(") {
		t.Fatalf("NumTypes names a defined type (%q): the table would miss it", s)
	}
}
