// Package dataset provides the column-oriented tabular substrate that
// NetDPSyn operates on. Network traces (packet or flow headers) are
// represented as a Table: a Schema of typed fields plus int64 columns.
// All header fields used by the paper are integral in nature (IPv4
// addresses are uint32, ports and protocol numbers are small integers,
// timestamps and durations are in milliseconds, packet/byte counts are
// counters), so a single int64 column type keeps the hot loops simple
// and allocation-free. Categorical fields carry a string dictionary.
//
// The package also defines the Encoded form produced by binning: every
// attribute reduced to a dense code in [0, domain), stored as int32
// columns. Encoded tables are what the marginal machinery and all
// synthesizers consume.
package dataset

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
)

// Kind classifies a field so that binning, decoding, and the
// domain-specific consistency rules know how to treat it.
type Kind int

// Field kinds, mirroring §3.2 of the paper (type-dependent binning
// distinguishes IPs, ports, categorical, numeric, and timestamps).
const (
	KindIP          Kind = iota // IPv4 address stored as uint32
	KindPort                    // transport port, 0..MaxPort
	KindCategorical             // small-domain categorical (proto, flags, label)
	KindNumeric                 // counter or duration (pkt, byt, td, pkt_len)
	KindTimestamp               // capture timestamp in milliseconds
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindIP:
		return "ip"
	case KindPort:
		return "port"
	case KindCategorical:
		return "categorical"
	case KindNumeric:
		return "numeric"
	case KindTimestamp:
		return "timestamp"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// MaxPort is the largest transport port number.
const MaxPort = 65535

// Field describes one column of a trace table.
type Field struct {
	Name  string
	Kind  Kind
	Label bool // true for the classification label column
}

// Schema is an ordered list of fields.
type Schema struct {
	Fields []Field
	index  map[string]int
}

// NewSchema builds a schema and its name index. Duplicate field names
// are rejected.
func NewSchema(fields ...Field) (*Schema, error) {
	s := &Schema{Fields: fields, index: make(map[string]int, len(fields))}
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("dataset: field %d has empty name", i)
		}
		if _, dup := s.index[f.Name]; dup {
			return nil, fmt.Errorf("dataset: duplicate field %q", f.Name)
		}
		s.index[f.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for statically known
// schemas (the five dataset emulators).
func MustSchema(fields ...Field) *Schema {
	s, err := NewSchema(fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// Index returns the position of the named field, or -1.
func (s *Schema) Index(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Has reports whether the schema contains the named field.
func (s *Schema) Has(name string) bool { return s.Index(name) >= 0 }

// NumFields returns the number of fields.
func (s *Schema) NumFields() int { return len(s.Fields) }

// Names returns the field names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		out[i] = f.Name
	}
	return out
}

// LabelIndex returns the index of the label field, or -1 if none.
func (s *Schema) LabelIndex() int {
	for i, f := range s.Fields {
		if f.Label {
			return i
		}
	}
	return -1
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	fields := append([]Field(nil), s.Fields...)
	c, _ := NewSchema(fields...)
	return c
}

// WithField returns a copy of the schema with an extra field appended.
func (s *Schema) WithField(f Field) (*Schema, error) {
	fields := append(append([]Field(nil), s.Fields...), f)
	return NewSchema(fields...)
}

// Dict is a string dictionary for a categorical column: codes are
// positions in Values.
type Dict struct {
	Values []string
	index  map[string]int
}

// NewDict creates a dictionary with the given initial values.
func NewDict(values ...string) *Dict {
	d := &Dict{index: make(map[string]int, len(values))}
	for _, v := range values {
		d.Code(v)
	}
	return d
}

// Code returns the code for v, interning it if new.
func (d *Dict) Code(v string) int {
	if d.index == nil {
		d.index = make(map[string]int)
	}
	if c, ok := d.index[v]; ok {
		return c
	}
	c := len(d.Values)
	d.Values = append(d.Values, v)
	d.index[v] = c
	return c
}

// Lookup returns the code for v without interning.
func (d *Dict) Lookup(v string) (int, bool) {
	c, ok := d.index[v]
	return c, ok
}

// Value returns the string for a code, or "" if out of range.
func (d *Dict) Value(code int) string {
	if code < 0 || code >= len(d.Values) {
		return ""
	}
	return d.Values[code]
}

// Len returns the number of interned values.
func (d *Dict) Len() int { return len(d.Values) }

// truncate drops every code >= n, un-interning values appended by a
// row that was subsequently rolled back (see fastDecoder.decodeRecord).
func (d *Dict) truncate(n int) {
	for _, v := range d.Values[n:] {
		delete(d.index, v)
	}
	d.Values = d.Values[:n]
}

// Clone returns a deep copy of the dictionary.
func (d *Dict) Clone() *Dict {
	if d == nil {
		return nil
	}
	return NewDict(append([]string(nil), d.Values...)...)
}

// Table is a column-oriented trace table.
type Table struct {
	schema *Schema
	cols   [][]int64
	dicts  []*Dict // per-field; nil for non-categorical fields
}

// ErrSchemaMismatch is returned when row width or field types disagree
// with the schema.
var ErrSchemaMismatch = errors.New("dataset: schema mismatch")

// NewTable creates an empty table with capacity hint n.
func NewTable(schema *Schema, n int) *Table {
	t := &Table{
		schema: schema,
		cols:   make([][]int64, schema.NumFields()),
		dicts:  make([]*Dict, schema.NumFields()),
	}
	for i := range t.cols {
		t.cols[i] = make([]int64, 0, n)
		if schema.Fields[i].Kind == KindCategorical {
			t.dicts[i] = NewDict()
		}
	}
	return t
}

// NewTableFromColumns creates a table that takes ownership of cols,
// one equal-length column per schema field. Categorical fields start
// with an empty dictionary, as in NewTable.
func NewTableFromColumns(schema *Schema, cols [][]int64) (*Table, error) {
	if len(cols) != schema.NumFields() {
		return nil, fmt.Errorf("%w: %d columns, schema width %d", ErrSchemaMismatch, len(cols), schema.NumFields())
	}
	for i, col := range cols {
		if len(col) != len(cols[0]) {
			return nil, fmt.Errorf("%w: column %q has %d rows, column %q has %d",
				ErrSchemaMismatch, schema.Fields[i].Name, len(col), schema.Fields[0].Name, len(cols[0]))
		}
	}
	t := &Table{schema: schema, cols: cols, dicts: make([]*Dict, len(cols))}
	for i, f := range schema.Fields {
		if f.Kind == KindCategorical {
			t.dicts[i] = NewDict()
		}
	}
	return t, nil
}

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// NumRows returns the number of rows.
func (t *Table) NumRows() int {
	if len(t.cols) == 0 {
		return 0
	}
	return len(t.cols[0])
}

// Reset truncates the table to zero rows in place, keeping column
// capacity and dictionaries. It is the recycling hook for batch
// loops (CSVStream.NextInto): a reset table appends without
// allocating, and previously interned codes stay valid.
func (t *Table) Reset() {
	for i := range t.cols {
		t.cols[i] = t.cols[i][:0]
	}
}

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// AppendRow appends a full row of raw values.
func (t *Table) AppendRow(row []int64) error {
	if len(row) != len(t.cols) {
		return fmt.Errorf("%w: row width %d, schema width %d", ErrSchemaMismatch, len(row), len(t.cols))
	}
	for i, v := range row {
		t.cols[i] = append(t.cols[i], v)
	}
	return nil
}

// AppendRowRange appends rows [lo, hi) of src to t. The schemas must
// match field-for-field by name and kind; categorical values are
// re-interned through t's dictionaries, so the two tables may use
// different code assignments. This is the append primitive behind
// window concatenation in the streaming path: non-categorical columns
// copy as one slice append, and categorical columns translate src
// codes to t codes through a lazily filled per-column map (first
// appearance order is preserved — the translation of a code is only
// established when a row carrying it is appended).
func (t *Table) AppendRowRange(src *Table, lo, hi int) error {
	if err := t.checkAppendSchema(src); err != nil {
		return err
	}
	for c := range t.cols {
		sc := src.cols[c][lo:hi]
		if t.schema.Fields[c].Kind != KindCategorical {
			t.cols[c] = append(t.cols[c], sc...)
			continue
		}
		dst := t.cols[c]
		var trans []int64
		if d := src.dicts[c]; d != nil {
			trans = make([]int64, d.Len())
			for i := range trans {
				trans[i] = -1
			}
		}
		for _, v := range sc {
			if v >= 0 && int(v) < len(trans) {
				if trans[v] < 0 {
					trans[v] = t.CatCode(c, src.CatValue(c, v))
				}
				dst = append(dst, trans[v])
			} else {
				// Out-of-dictionary code: CatValue yields "", which
				// interns like any other value.
				dst = append(dst, t.CatCode(c, src.CatValue(c, v)))
			}
		}
		t.cols[c] = dst
	}
	return nil
}

// checkAppendSchema verifies src's schema matches t's field-for-field
// by name and kind.
func (t *Table) checkAppendSchema(src *Table) error {
	ds, ss := t.schema, src.schema
	if ds.NumFields() != ss.NumFields() {
		return fmt.Errorf("%w: %d fields vs %d", ErrSchemaMismatch, ds.NumFields(), ss.NumFields())
	}
	for c := range ds.Fields {
		if ds.Fields[c].Name != ss.Fields[c].Name || ds.Fields[c].Kind != ss.Fields[c].Kind {
			return fmt.Errorf("%w: field %d is %s %q vs %s %q", ErrSchemaMismatch, c,
				ds.Fields[c].Kind, ds.Fields[c].Name, ss.Fields[c].Kind, ss.Fields[c].Name)
		}
	}
	return nil
}

// AppendRows appends the given rows of src (in order, duplicates
// allowed) to t, re-interning categorical values as AppendRowRange
// does.
func (t *Table) AppendRows(src *Table, rows []int) error {
	if err := t.checkAppendSchema(src); err != nil {
		return err
	}
	ds := t.schema
	for c := range t.cols {
		dst, sc := t.cols[c], src.cols[c]
		if ds.Fields[c].Kind == KindCategorical {
			for _, r := range rows {
				dst = append(dst, t.CatCode(c, src.CatValue(c, sc[r])))
			}
		} else {
			for _, r := range rows {
				dst = append(dst, sc[r])
			}
		}
		t.cols[c] = dst
	}
	return nil
}

// BadPort finds the first value of a port field outside 0–MaxPort,
// scanning fields in schema order. It returns the value's row and
// column, and ok false when every port is valid.
func (t *Table) BadPort() (row, col int, ok bool) {
	for c, f := range t.schema.Fields {
		if f.Kind != KindPort {
			continue
		}
		for r, v := range t.cols[c] {
			if v < 0 || v > MaxPort {
				return r, c, true
			}
		}
	}
	return 0, 0, false
}

// Column returns the raw column at index i. The slice is shared; do
// not modify unless you own the table.
func (t *Table) Column(i int) []int64 { return t.cols[i] }

// ColumnByName returns the named column, or nil.
func (t *Table) ColumnByName(name string) []int64 {
	i := t.schema.Index(name)
	if i < 0 {
		return nil
	}
	return t.cols[i]
}

// Value returns the value at (row, col).
func (t *Table) Value(row, col int) int64 { return t.cols[col][row] }

// SetValue sets the value at (row, col).
func (t *Table) SetValue(row, col int, v int64) { t.cols[col][row] = v }

// Dict returns the dictionary of a categorical column (nil otherwise).
func (t *Table) Dict(col int) *Dict { return t.dicts[col] }

// SetDict replaces the dictionary of a column (used by emulators that
// pre-intern label values).
func (t *Table) SetDict(col int, d *Dict) { t.dicts[col] = d }

// CatCode interns a categorical string value for column col and
// returns its code.
func (t *Table) CatCode(col int, v string) int64 {
	if t.dicts[col] == nil {
		t.dicts[col] = NewDict()
	}
	return int64(t.dicts[col].Code(v))
}

// CatValue returns the string behind a categorical code.
func (t *Table) CatValue(col int, code int64) string {
	if t.dicts[col] == nil {
		return ""
	}
	return t.dicts[col].Value(int(code))
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	c := &Table{
		schema: t.schema.Clone(),
		cols:   make([][]int64, len(t.cols)),
		dicts:  make([]*Dict, len(t.dicts)),
	}
	for i := range t.cols {
		c.cols[i] = append([]int64(nil), t.cols[i]...)
		c.dicts[i] = t.dicts[i].Clone()
	}
	return c
}

// WithColumn returns a new table extended with an extra column of raw
// values (len must equal NumRows). The receiver is not modified.
func (t *Table) WithColumn(f Field, values []int64) (*Table, error) {
	if len(values) != t.NumRows() {
		return nil, fmt.Errorf("%w: column length %d, rows %d", ErrSchemaMismatch, len(values), t.NumRows())
	}
	schema, err := t.schema.WithField(f)
	if err != nil {
		return nil, err
	}
	c := &Table{schema: schema,
		cols:  make([][]int64, 0, len(t.cols)+1),
		dicts: make([]*Dict, 0, len(t.dicts)+1)}
	c.cols = append(c.cols, t.cols...)
	c.cols = append(c.cols, values)
	c.dicts = append(c.dicts, t.dicts...)
	var d *Dict
	if f.Kind == KindCategorical {
		d = NewDict()
	}
	c.dicts = append(c.dicts, d)
	return c, nil
}

// SelectRows returns a new table containing the given row indices (in
// order, duplicates allowed). Dictionaries are shared.
func (t *Table) SelectRows(rows []int) *Table {
	c := &Table{schema: t.schema, dicts: t.dicts,
		cols: make([][]int64, len(t.cols))}
	for i := range t.cols {
		col := make([]int64, len(rows))
		src := t.cols[i]
		for j, r := range rows {
			col[j] = src[r]
		}
		c.cols[i] = col
	}
	return c
}

// Head returns the first n rows (or all rows if fewer).
func (t *Table) Head(n int) *Table {
	if n > t.NumRows() {
		n = t.NumRows()
	}
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return t.SelectRows(rows)
}

// Sample returns n rows sampled without replacement (or a full
// permuted copy if n >= NumRows).
func (t *Table) Sample(rng *rand.Rand, n int) *Table {
	perm := rng.Perm(t.NumRows())
	if n < len(perm) {
		perm = perm[:n]
	}
	return t.SelectRows(perm)
}

// Split shuffles rows and partitions them into (train, test) with the
// given train fraction, as the paper's 80/20 evaluation split does.
func (t *Table) Split(rng *rand.Rand, trainFrac float64) (train, test *Table) {
	perm := rng.Perm(t.NumRows())
	cut := int(float64(len(perm)) * trainFrac)
	if cut < 0 {
		cut = 0
	}
	if cut > len(perm) {
		cut = len(perm)
	}
	return t.SelectRows(perm[:cut]), t.SelectRows(perm[cut:])
}

// SortBy stably sorts rows by the given column ascending and returns a
// new table (used for time-ordered views).
func (t *Table) SortBy(col int) *Table {
	rows := make([]int, t.NumRows())
	for i := range rows {
		rows[i] = i
	}
	key := t.cols[col]
	sort.SliceStable(rows, func(a, b int) bool { return key[rows[a]] < key[rows[b]] })
	return t.SelectRows(rows)
}

// Encoded is a binned view of a table: every attribute reduced to a
// dense code in [0, Domains[i]), column-major int32 storage. This is
// the representation all synthesizers operate on.
type Encoded struct {
	Names   []string
	Domains []int
	Cols    [][]int32
}

// NewEncoded allocates an encoded table with n rows.
func NewEncoded(names []string, domains []int, n int) *Encoded {
	e := &Encoded{Names: names, Domains: domains, Cols: make([][]int32, len(names))}
	for i := range e.Cols {
		e.Cols[i] = make([]int32, n)
	}
	return e
}

// NumRows returns the number of rows.
func (e *Encoded) NumRows() int {
	if len(e.Cols) == 0 {
		return 0
	}
	return len(e.Cols[0])
}

// NumAttrs returns the number of attributes.
func (e *Encoded) NumAttrs() int { return len(e.Cols) }

// Index returns the position of the named attribute, or -1.
func (e *Encoded) Index(name string) int {
	for i, n := range e.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// Clone deep-copies the encoded table.
func (e *Encoded) Clone() *Encoded {
	c := &Encoded{
		Names:   append([]string(nil), e.Names...),
		Domains: append([]int(nil), e.Domains...),
		Cols:    make([][]int32, len(e.Cols)),
	}
	for i := range e.Cols {
		c.Cols[i] = append([]int32(nil), e.Cols[i]...)
	}
	return c
}

// Validate checks that every code lies within its attribute domain.
func (e *Encoded) Validate() error {
	if len(e.Cols) != len(e.Domains) || len(e.Cols) != len(e.Names) {
		return fmt.Errorf("dataset: encoded arity mismatch: %d cols, %d domains, %d names",
			len(e.Cols), len(e.Domains), len(e.Names))
	}
	n := e.NumRows()
	for i, col := range e.Cols {
		if len(col) != n {
			return fmt.Errorf("dataset: encoded column %q has %d rows, want %d", e.Names[i], len(col), n)
		}
		dom := int32(e.Domains[i])
		for r, v := range col {
			if v < 0 || v >= dom {
				return fmt.Errorf("dataset: encoded %q row %d: code %d outside domain %d", e.Names[i], r, v, dom)
			}
		}
	}
	return nil
}

// SelectRows returns a new encoded table with the given rows.
func (e *Encoded) SelectRows(rows []int) *Encoded {
	c := &Encoded{Names: e.Names, Domains: e.Domains, Cols: make([][]int32, len(e.Cols))}
	for i := range e.Cols {
		col := make([]int32, len(rows))
		src := e.Cols[i]
		for j, r := range rows {
			col[j] = src[r]
		}
		c.Cols[i] = col
	}
	return c
}
