package trace

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestCounters(t *testing.T) {
	m := NewMetrics()
	m.Inc("bytes", 10)
	m.Inc("bytes", 5)
	m.Add1("packets")
	if m.Get("bytes") != 15 || m.Get("packets") != 1 {
		t.Fatalf("counters wrong: %v %v", m.Get("bytes"), m.Get("packets"))
	}
	if m.Get("never") != 0 {
		t.Fatal("unknown counter should read zero")
	}
	names := m.CounterNames()
	if len(names) != 2 || names[0] != "bytes" || names[1] != "packets" {
		t.Fatalf("CounterNames = %v", names)
	}
}

// TestResolvedCounters holds a resolved counter to the by-name one it
// replaces: invisible until its first increment, then the same value
// through Get, CounterNames and Merge, and a result built from resolved
// counters deep-equal to one built by name.
func TestResolvedCounters(t *testing.T) {
	m := NewMetrics()
	var zero Counter
	if zero.Resolved() {
		t.Fatal("zero Counter reports resolved")
	}
	rx, tx := m.Counter("rx"), m.Counter("tx")
	if !rx.Resolved() || m.Counter("rx") != rx {
		t.Fatal("resolving a name twice must give the same counter")
	}
	if names := m.CounterNames(); len(names) != 0 {
		t.Fatalf("unincremented resolved counters listed: %v", names)
	}
	merged := NewMetrics()
	merged.Merge(m)
	if names := merged.CounterNames(); len(names) != 0 {
		t.Fatalf("Merge materialized unincremented counters: %v", names)
	}

	rx.Add1()
	rx.Add1()
	m.Add1("rx") // by name and by reference share one counter
	tx.Inc(0)    // a zero increment still materializes, as Inc does
	if m.Get("rx") != 3 || m.Get("tx") != 0 {
		t.Fatalf("Get = %v, %v; want 3, 0", m.Get("rx"), m.Get("tx"))
	}
	if names := m.CounterNames(); !reflect.DeepEqual(names, []string{"rx", "tx"}) {
		t.Fatalf("CounterNames = %v", names)
	}

	byName := NewMetrics()
	byName.Add1("rx")
	byName.Add1("rx")
	byName.Add1("rx")
	byName.Inc("tx", 0)
	a, b := NewMetrics(), NewMetrics()
	a.Merge(m)
	b.Merge(byName)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("merged result of resolved counters differs from the by-name one")
	}
}

func TestSamples(t *testing.T) {
	m := NewMetrics()
	for _, v := range []float64{5, 1, 3, 2, 4} {
		m.Observe("lat", v)
	}
	if m.Count("lat") != 5 {
		t.Fatalf("Count = %d", m.Count("lat"))
	}
	if m.Mean("lat") != 3 {
		t.Fatalf("Mean = %v", m.Mean("lat"))
	}
	if q := m.Quantile("lat", 0.5); q != 3 {
		t.Fatalf("median = %v", q)
	}
	if q := m.Quantile("lat", 1.0); q != 5 {
		t.Fatalf("p100 = %v", q)
	}
	if q := m.Quantile("lat", 0.0); q != 1 {
		t.Fatalf("p0 = %v", q)
	}
	if !math.IsNaN(m.Mean("none")) || !math.IsNaN(m.Quantile("none", 0.5)) {
		t.Fatal("empty distribution should be NaN")
	}
	if got := m.SampleNames(); len(got) != 1 || got[0] != "lat" {
		t.Fatalf("SampleNames = %v", got)
	}
}

func TestMerge(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	a.Inc("x", 1)
	b.Inc("x", 2)
	b.Inc("y", 3)
	a.Observe("s", 1)
	b.Observe("s", 3)
	a.Merge(b)
	if a.Get("x") != 3 || a.Get("y") != 3 {
		t.Fatalf("merged counters wrong")
	}
	if a.Count("s") != 2 || a.Mean("s") != 2 {
		t.Fatalf("merged samples wrong")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.Add("alpha", "1")
	tb.Addf("beta", 2.5)
	tb.Addf("gamma", 3.0)
	out := tb.String()
	for _, want := range []string{"== demo ==", "name", "alpha", "beta", "2.500", "gamma", "3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Columns align: each line has the same prefix width for column 2.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, header, separator, 3 rows
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("", "a", "b", "c")
	tb.Add("only")
	if len(tb.Rows[0]) != 3 {
		t.Fatal("short row not padded")
	}
	if !strings.Contains(tb.String(), "only") {
		t.Fatal("row lost")
	}
}

func TestCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.Add("1", "2")
	tb.Add("3", "4")
	want := "a,b\n1,2\n3,4\n"
	if got := tb.CSV(); got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:      "3",
		3.5:    "3.500",
		0:      "0",
		-2:     "-2",
		0.1234: "0.123",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
	if FormatFloat(math.NaN()) != "-" {
		t.Error("NaN should render as dash")
	}
}
