package dataset

import (
	"bytes"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Field{Name: "srcip", Kind: KindIP},
		Field{Name: "dstport", Kind: KindPort},
		Field{Name: "proto", Kind: KindCategorical},
		Field{Name: "byt", Kind: KindNumeric},
		Field{Name: "label", Kind: KindCategorical, Label: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaBasics(t *testing.T) {
	s := testSchema(t)
	if s.NumFields() != 5 {
		t.Fatalf("NumFields = %d", s.NumFields())
	}
	if s.Index("proto") != 2 {
		t.Errorf("Index(proto) = %d", s.Index("proto"))
	}
	if s.Index("nope") != -1 {
		t.Errorf("missing field index should be -1")
	}
	if !s.Has("byt") || s.Has("nothere") {
		t.Error("Has misbehaves")
	}
	if s.LabelIndex() != 4 {
		t.Errorf("LabelIndex = %d", s.LabelIndex())
	}
	names := s.Names()
	if names[0] != "srcip" || names[4] != "label" {
		t.Errorf("Names = %v", names)
	}
}

func TestSchemaDuplicate(t *testing.T) {
	_, err := NewSchema(Field{Name: "a"}, Field{Name: "a"})
	if err == nil {
		t.Fatal("duplicate field names must error")
	}
	_, err = NewSchema(Field{Name: ""})
	if err == nil {
		t.Fatal("empty field name must error")
	}
}

func TestDict(t *testing.T) {
	d := NewDict("TCP", "UDP")
	if d.Len() != 2 {
		t.Fatalf("Len = %d", d.Len())
	}
	if c := d.Code("TCP"); c != 0 {
		t.Errorf("Code(TCP) = %d", c)
	}
	if c := d.Code("ICMP"); c != 2 {
		t.Errorf("Code(ICMP) = %d (should intern)", c)
	}
	if v := d.Value(1); v != "UDP" {
		t.Errorf("Value(1) = %q", v)
	}
	if v := d.Value(99); v != "" {
		t.Errorf("out-of-range Value = %q", v)
	}
	if _, ok := d.Lookup("nope"); ok {
		t.Error("Lookup(nope) should miss")
	}
	c := d.Clone()
	c.Code("NEW")
	if d.Len() != 3 || c.Len() != 4 {
		t.Error("Clone must be independent")
	}
}

func TestTableAppendAndAccess(t *testing.T) {
	s := testSchema(t)
	tab := NewTable(s, 4)
	tcp := tab.CatCode(2, "TCP")
	benign := tab.CatCode(4, "benign")
	if err := tab.AppendRow([]int64{100, 80, tcp, 1000, benign}); err != nil {
		t.Fatal(err)
	}
	if err := tab.AppendRow([]int64{200, 443, tcp, 2000, benign}); err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 || tab.NumCols() != 5 {
		t.Fatalf("shape = %dx%d", tab.NumRows(), tab.NumCols())
	}
	if tab.Value(1, 1) != 443 {
		t.Errorf("Value(1,1) = %d", tab.Value(1, 1))
	}
	if got := tab.CatValue(2, tcp); got != "TCP" {
		t.Errorf("CatValue = %q", got)
	}
	if col := tab.ColumnByName("byt"); col[0] != 1000 {
		t.Errorf("ColumnByName(byt) = %v", col)
	}
	if tab.ColumnByName("ghost") != nil {
		t.Error("missing column should be nil")
	}
	if err := tab.AppendRow([]int64{1}); err == nil {
		t.Error("short row must error")
	}
}

func TestTableCloneIndependence(t *testing.T) {
	s := testSchema(t)
	tab := NewTable(s, 1)
	tab.AppendRow([]int64{1, 2, tab.CatCode(2, "TCP"), 4, tab.CatCode(4, "x")})
	c := tab.Clone()
	c.SetValue(0, 0, 99)
	if tab.Value(0, 0) == 99 {
		t.Error("Clone shares storage")
	}
}

func TestSelectRowsHeadSample(t *testing.T) {
	s := testSchema(t)
	tab := NewTable(s, 10)
	for i := 0; i < 10; i++ {
		tab.AppendRow([]int64{int64(i), 80, 0, int64(i * 10), 0})
	}
	sel := tab.SelectRows([]int{3, 3, 7})
	if sel.NumRows() != 3 || sel.Value(0, 0) != 3 || sel.Value(1, 0) != 3 || sel.Value(2, 0) != 7 {
		t.Errorf("SelectRows wrong: %v", sel.Column(0))
	}
	if h := tab.Head(3); h.NumRows() != 3 || h.Value(2, 0) != 2 {
		t.Error("Head wrong")
	}
	rng := rand.New(rand.NewPCG(1, 2))
	if smp := tab.Sample(rng, 4); smp.NumRows() != 4 {
		t.Error("Sample size wrong")
	}
}

func TestSplitPartition(t *testing.T) {
	s := testSchema(t)
	tab := NewTable(s, 100)
	for i := 0; i < 100; i++ {
		tab.AppendRow([]int64{int64(i), 80, 0, 0, 0})
	}
	rng := rand.New(rand.NewPCG(7, 8))
	train, test := tab.Split(rng, 0.8)
	if train.NumRows() != 80 || test.NumRows() != 20 {
		t.Fatalf("split sizes = %d/%d", train.NumRows(), test.NumRows())
	}
	// Partition: every original row appears exactly once.
	seen := make(map[int64]int)
	for _, v := range train.Column(0) {
		seen[v]++
	}
	for _, v := range test.Column(0) {
		seen[v]++
	}
	if len(seen) != 100 {
		t.Fatalf("rows lost: %d distinct", len(seen))
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("row %d appears %d times", v, c)
		}
	}
}

func TestSortBy(t *testing.T) {
	s := testSchema(t)
	tab := NewTable(s, 3)
	tab.AppendRow([]int64{3, 0, 0, 0, 0})
	tab.AppendRow([]int64{1, 0, 0, 0, 0})
	tab.AppendRow([]int64{2, 0, 0, 0, 0})
	sorted := tab.SortBy(0)
	want := []int64{1, 2, 3}
	for i, w := range want {
		if sorted.Value(i, 0) != w {
			t.Errorf("sorted[%d] = %d, want %d", i, sorted.Value(i, 0), w)
		}
	}
}

func TestWithColumn(t *testing.T) {
	s := testSchema(t)
	tab := NewTable(s, 2)
	tab.AppendRow([]int64{1, 2, 0, 4, 0})
	tab.AppendRow([]int64{5, 6, 0, 8, 0})
	ext, err := tab.WithColumn(Field{Name: "tsdiff", Kind: KindNumeric}, []int64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if ext.NumCols() != 6 || ext.ColumnByName("tsdiff")[1] != 20 {
		t.Error("WithColumn wrong")
	}
	if _, err := tab.WithColumn(Field{Name: "bad", Kind: KindNumeric}, []int64{1}); err == nil {
		t.Error("length mismatch must error")
	}
}

func TestNewTableFromColumns(t *testing.T) {
	s := testSchema(t)
	cols := [][]int64{{1, 5}, {2, 6}, {0, 0}, {4, 8}, {0, 0}}
	tab, err := NewTableFromColumns(s, cols)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 || tab.Value(1, 3) != 8 {
		t.Fatalf("table = %dx%d, Value(1,3) = %d", tab.NumRows(), tab.NumCols(), tab.Value(1, 3))
	}
	if &tab.Column(1)[0] != &cols[1][0] {
		t.Error("columns must be taken over, not copied")
	}
	if tab.Dict(2) == nil || tab.Dict(0) != nil {
		t.Error("categorical fields need an empty dictionary, others none")
	}
	if _, err := NewTableFromColumns(s, cols[:4]); err == nil {
		t.Error("missing column must error")
	}
	cols[3] = cols[3][:1]
	if _, err := NewTableFromColumns(s, cols); err == nil {
		t.Error("ragged columns must error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := testSchema(t)
	tab := NewTable(s, 2)
	tcp := tab.CatCode(2, "TCP")
	udp := tab.CatCode(2, "UDP")
	mal := tab.CatCode(4, "malicious")
	ben := tab.CatCode(4, "benign")
	ip1, _ := ParseIP("192.168.1.5")
	ip2, _ := ParseIP("10.0.0.1")
	tab.AppendRow([]int64{ip1, 80, tcp, 1234, ben})
	tab.AppendRow([]int64{ip2, 53, udp, 99, mal})

	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "192.168.1.5") || !strings.Contains(out, "malicious") {
		t.Fatalf("CSV missing rendered values:\n%s", out)
	}
	back, err := ReadCSV(strings.NewReader(out), s)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 2 {
		t.Fatalf("rows = %d", back.NumRows())
	}
	for r := 0; r < 2; r++ {
		for c := 0; c < 5; c++ {
			// Categorical codes may differ; compare via strings.
			if s.Fields[c].Kind == KindCategorical {
				if tab.CatValue(c, tab.Value(r, c)) != back.CatValue(c, back.Value(r, c)) {
					t.Errorf("cat mismatch at %d,%d", r, c)
				}
			} else if tab.Value(r, c) != back.Value(r, c) {
				t.Errorf("value mismatch at %d,%d: %d vs %d", r, c, tab.Value(r, c), back.Value(r, c))
			}
		}
	}
}

func TestCSVMissingField(t *testing.T) {
	s := testSchema(t)
	_, err := ReadCSV(strings.NewReader("a,b\n1,2\n"), s)
	if err == nil {
		t.Fatal("missing schema fields must error")
	}
	// One schema column absent from an otherwise-valid header: the
	// error must name the missing field.
	_, err = ReadCSV(strings.NewReader("srcip,dstport,proto,label\n1.2.3.4,80,TCP,benign\n"), s)
	if err == nil || !strings.Contains(err.Error(), `"byt"`) {
		t.Fatalf("missing column error should name the field, got %v", err)
	}
}

func TestCSVEmptyFile(t *testing.T) {
	s := testSchema(t)
	if _, err := ReadCSV(strings.NewReader(""), s); err == nil {
		t.Fatal("empty file must error (no header)")
	}
	// A header-only file is not an error: it loads as zero rows.
	tab, err := ReadCSV(strings.NewReader("srcip,dstport,proto,byt,label\n"), s)
	if err != nil {
		t.Fatalf("header-only file: %v", err)
	}
	if tab.NumRows() != 0 {
		t.Fatalf("header-only rows = %d", tab.NumRows())
	}
}

func TestCSVMalformedRow(t *testing.T) {
	s := testSchema(t)
	header := "srcip,dstport,proto,byt,label\n"
	cases := []struct {
		name, row, wantIn string
	}{
		{"short row", "1.2.3.4,80,TCP,100\n", "line 2"},
		{"bad ip", "not-an-ip,80,TCP,100,benign\n", `"srcip"`},
		{"bad numeric", "1.2.3.4,80,TCP,many,benign\n", `"byt"`},
	}
	for _, tc := range cases {
		_, err := ReadCSV(strings.NewReader(header+tc.row), s)
		if err == nil {
			t.Errorf("%s: want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantIn) {
			t.Errorf("%s: error %q should mention %s", tc.name, err, tc.wantIn)
		}
	}
	// The error names the first malformed line, not just "parse error".
	_, err := ReadCSV(strings.NewReader(header+"1.2.3.4,80,TCP,100,benign\nbogus,80,TCP,100,benign\n"), s)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error should name line 3, got %v", err)
	}
	// Float-formatted numerics are tolerated, not an error.
	tab, err := ReadCSV(strings.NewReader(header+"1.2.3.4,80,TCP,12.0,benign\n"), s)
	if err != nil {
		t.Fatalf("float-formatted numeric: %v", err)
	}
	if got := tab.Value(0, 3); got != 12 {
		t.Fatalf("float-formatted numeric = %d, want 12", got)
	}
}

func TestParseIPRoundTripProperty(t *testing.T) {
	f := func(v uint32) bool {
		s := FormatIP(int64(v))
		back, err := ParseIP(s)
		return err == nil && uint32(back) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseIPInvalid(t *testing.T) {
	for _, s := range []string{"", "not-an-ip", "::1", "1.2.3.4.5"} {
		if _, err := ParseIP(s); err == nil {
			t.Errorf("ParseIP(%q) should fail", s)
		}
	}
}

func TestEncodedValidate(t *testing.T) {
	e := NewEncoded([]string{"a", "b"}, []int{3, 2}, 4)
	if err := e.Validate(); err != nil {
		t.Fatalf("fresh encoded invalid: %v", err)
	}
	e.Cols[1][2] = 5 // out of domain
	if err := e.Validate(); err == nil {
		t.Fatal("out-of-domain code must fail validation")
	}
	e.Cols[1][2] = -1
	if err := e.Validate(); err == nil {
		t.Fatal("negative code must fail validation")
	}
}

func TestEncodedCloneAndSelect(t *testing.T) {
	e := NewEncoded([]string{"a", "b"}, []int{4, 4}, 3)
	e.Cols[0][0], e.Cols[0][1], e.Cols[0][2] = 1, 2, 3
	c := e.Clone()
	c.Cols[0][0] = 0
	if e.Cols[0][0] != 1 {
		t.Error("Clone shares storage")
	}
	sel := e.SelectRows([]int{2, 0})
	if sel.Cols[0][0] != 3 || sel.Cols[0][1] != 1 {
		t.Errorf("SelectRows = %v", sel.Cols[0])
	}
	if e.Index("b") != 1 || e.Index("zz") != -1 {
		t.Error("Index wrong")
	}
}
