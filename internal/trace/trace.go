// Package trace collects simulation metrics — counters and sample
// distributions — and formats the result tables the benchmark harness
// prints. Counter names are free-form strings so experiments can define
// their own taxonomy without touching this package.
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Metrics accumulates named counters and sample sets. The zero value is not
// usable; call NewMetrics.
type Metrics struct {
	counters map[string]*cell
	samples  map[string][]float64
}

// cell is one counter's storage. A cell created by Counter stays out of
// every reading surface until its first increment sets live.
type cell struct {
	v    float64
	live bool
}

// Counter is a stable reference to one named counter of a Metrics,
// resolved once with Metrics.Counter. Incrementing through it is a pointer
// update instead of a string hash, which is what the per-frame receive
// and transmit paths want. The zero Counter is unresolved and must not be
// incremented.
//
// A resolved counter materializes on its first increment, exactly as if
// Inc had created it then: until that moment Get reads 0, CounterNames
// omits it and Merge skips it, so resolving counters up front changes no
// result.
type Counter struct{ c *cell }

// Resolved reports whether c refers to a counter.
func (c Counter) Resolved() bool { return c.c != nil }

// Inc adds v to the counter.
func (c Counter) Inc(v float64) {
	c.c.v += v
	c.c.live = true
}

// Add1 increments the counter by one.
func (c Counter) Add1() { c.Inc(1) }

// NewMetrics returns an empty metrics sink.
func NewMetrics() *Metrics {
	return &Metrics{counters: make(map[string]*cell), samples: make(map[string][]float64)}
}

// cell returns the named counter's storage, creating it unmaterialized.
func (m *Metrics) cell(name string) *cell {
	c := m.counters[name]
	if c == nil {
		c = &cell{}
		m.counters[name] = c
	}
	return c
}

// Counter resolves the named counter to a stable reference (see Counter).
// Resolving the same name again returns the same counter.
func (m *Metrics) Counter(name string) Counter { return Counter{m.cell(name)} }

// Inc adds v to the named counter.
func (m *Metrics) Inc(name string, v float64) { Counter{m.cell(name)}.Inc(v) }

// Add1 increments the named counter by one.
func (m *Metrics) Add1(name string) { Counter{m.cell(name)}.Inc(1) }

// Get returns the counter's value (zero when never incremented).
func (m *Metrics) Get(name string) float64 {
	if c := m.counters[name]; c != nil {
		return c.v
	}
	return 0
}

// Observe appends a sample to the named distribution.
func (m *Metrics) Observe(name string, v float64) {
	m.samples[name] = append(m.samples[name], v)
}

// Count returns the number of samples observed under name.
func (m *Metrics) Count(name string) int { return len(m.samples[name]) }

// Mean returns the mean of the named samples, or NaN when empty.
func (m *Metrics) Mean(name string) float64 {
	s := m.samples[name]
	if len(s) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// Quantile returns the q-quantile (0..1) of the named samples by the
// nearest-rank method, or NaN when empty.
func (m *Metrics) Quantile(name string, q float64) float64 {
	s := m.samples[name]
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), s...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// DrainSamples removes and returns every sample series, leaving the
// counters untouched. Long-lived sessions call it at window barriers so
// sample slices (per-delivery latencies, DAD durations) never accumulate
// across an open-ended run; callers fold the drained slices into bounded
// cumulative aggregates. Each name's slice keeps its observation order,
// and the per-name folds are independent, so consuming the returned map
// in any order is deterministic.
func (m *Metrics) DrainSamples() map[string][]float64 {
	out := m.samples
	m.samples = make(map[string][]float64)
	return out
}

// Merge adds other's counters and samples into m.
func (m *Metrics) Merge(other *Metrics) {
	for k, c := range other.counters {
		if c.live {
			m.Inc(k, c.v)
		}
	}
	for k, s := range other.samples {
		m.samples[k] = append(m.samples[k], s...)
	}
}

// CounterNames returns all counter names, sorted.
func (m *Metrics) CounterNames() []string {
	names := make([]string, 0, len(m.counters))
	for k, c := range m.counters {
		if c.live {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	return names
}

// SampleNames returns all sample names, sorted.
func (m *Metrics) SampleNames() []string {
	names := make([]string, 0, len(m.samples))
	for k := range m.samples {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Table is a simple fixed-width text table used by the experiment harness.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row; short rows are padded with empty cells.
func (t *Table) Add(cells ...string) {
	row := make([]string, len(t.Headers))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Addf appends a row of formatted values: each argument is rendered with %v
// except float64, which is rendered compactly.
func (t *Table) Addf(values ...any) {
	cells := make([]string, 0, len(values))
	for _, v := range values {
		switch x := v.(type) {
		case float64:
			cells = append(cells, FormatFloat(x))
		default:
			cells = append(cells, fmt.Sprintf("%v", v))
		}
	}
	t.Add(cells...)
}

// Fprint renders the table to w.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "== %s ==\n", t.Title)
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// CSV renders the table as comma-separated values (no quoting; cells are
// numeric or simple identifiers).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// FormatFloat renders a float compactly: integers without decimals,
// otherwise three significant decimals.
func FormatFloat(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3f", v)
}
