package dataset

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// The codec contract: the fast decoder and the encoding/csv reference
// must be observationally identical through CSVStream — same decoded
// batches (values, dictionaries, row counts) AND same error strings,
// including the line and field an error names. This file is the
// corpus-driven arm of that contract; FuzzCSVStream is the
// adversarial arm.

func codecSchema() *Schema {
	return MustSchema(
		Field{Name: "srcip", Kind: KindIP},
		Field{Name: "ts", Kind: KindTimestamp},
		Field{Name: "byt", Kind: KindNumeric},
		Field{Name: "proto", Kind: KindCategorical},
	)
}

// decodeResult is everything CSVStream can tell a consumer, flattened
// for comparison.
type decodeResult struct {
	newErr   string // NewCSVStream error ("" if none)
	batches  []*Table
	rows     int
	finalErr string // terminal Next error ("EOF" or the error string)
}

func decodeAll(t *testing.T, mk func(io.Reader, *Schema, int) (*CSVStream, error), input string, schema *Schema, batchRows int) decodeResult {
	t.Helper()
	var res decodeResult
	s, err := mk(strings.NewReader(input), schema, batchRows)
	if err != nil {
		res.newErr = err.Error()
		return res
	}
	for {
		b, err := s.Next()
		if err == io.EOF {
			res.finalErr = "EOF"
			break
		}
		if err != nil {
			res.finalErr = err.Error()
			break
		}
		res.batches = append(res.batches, b)
	}
	res.rows = s.Rows()
	// Poisoning: after any terminal condition, Next stays io.EOF.
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("stream not poisoned after terminal error: %v", err)
	}
	return res
}

func sameTables(a, b *Table) string {
	if a.NumRows() != b.NumRows() {
		return fmt.Sprintf("rows %d vs %d", a.NumRows(), b.NumRows())
	}
	for c := 0; c < a.NumCols(); c++ {
		av, bv := a.Column(c), b.Column(c)
		for r := range av {
			if av[r] != bv[r] {
				return fmt.Sprintf("col %d row %d: %d vs %d", c, r, av[r], bv[r])
			}
		}
		ad, bd := a.Dict(c), b.Dict(c)
		if (ad == nil) != (bd == nil) {
			return fmt.Sprintf("col %d dict presence differs", c)
		}
		if ad != nil {
			if len(ad.Values) != len(bd.Values) {
				return fmt.Sprintf("col %d dict %v vs %v", c, ad.Values, bd.Values)
			}
			for i := range ad.Values {
				if ad.Values[i] != bd.Values[i] {
					return fmt.Sprintf("col %d dict[%d] %q vs %q", c, i, ad.Values[i], bd.Values[i])
				}
			}
		}
	}
	return ""
}

func diffResults(fast, ref decodeResult) string {
	if fast.newErr != ref.newErr {
		return fmt.Sprintf("NewCSVStream error %q vs %q", fast.newErr, ref.newErr)
	}
	if fast.finalErr != ref.finalErr {
		return fmt.Sprintf("terminal error %q vs %q", fast.finalErr, ref.finalErr)
	}
	if fast.rows != ref.rows {
		return fmt.Sprintf("Rows() %d vs %d", fast.rows, ref.rows)
	}
	if len(fast.batches) != len(ref.batches) {
		return fmt.Sprintf("%d batches vs %d", len(fast.batches), len(ref.batches))
	}
	for i := range fast.batches {
		if d := sameTables(fast.batches[i], ref.batches[i]); d != "" {
			return fmt.Sprintf("batch %d: %s", i, d)
		}
	}
	return ""
}

// codecCorpus is shared by the equivalence test and the fuzz seeds:
// every shape the decoders must agree on.
func codecCorpus() map[string]string {
	header := "srcip,ts,byt,proto\n"
	return map[string]string{
		"empty":            "",
		"header only":      header,
		"plain rows":       header + "10.0.0.1,1000,40,TCP\n10.0.0.2,1001,41,UDP\n10.0.0.1,1002,42,TCP\n",
		"no final newline": header + "10.0.0.1,1000,40,TCP",
		"crlf lines":       "srcip,ts,byt,proto\r\n10.0.0.1,1000,40,TCP\r\n10.0.0.2,1001,41,UDP\r\n",
		"trailing cr eof":  header + "10.0.0.1,1000,40,TCP\r",
		"blank lines":      "\n" + header + "10.0.0.1,1000,40,TCP\n\n\n10.0.0.2,1001,41,UDP\n\n",
		"interior cr":      header + "10.0.0.1,1000,40,T\rCP\n",
		"missing field":    "srcip,ts,byt\n10.0.0.1,1000,40\n",
		"extra column":     "srcip,ts,byt,proto,extra\n10.0.0.1,1000,40,TCP,ignored\n",
		"reordered header": "proto,byt,ts,srcip\nTCP,40,1000,10.0.0.1\n",
		"torn row":         header + "10.0.0.1,1000,40,TCP\n10.0.0.2,1001\n",
		"wide row":         header + "10.0.0.1,1000,40,TCP,excess\n",
		"quoted field":     header + "10.0.0.1,1000,40,\"T,CP\"\n10.0.0.2,1001,41,UDP\n",
		"quoted newline":   header + "10.0.0.1,1000,40,\"a\nb\"\n10.0.0.2,1001,41,UDP\n",
		"quoted escape":    header + "10.0.0.1,1000,40,\"say \"\"hi\"\"\"\n",
		"bare quote":       header + "10.0.0.1,1000,40,T\"CP\n",
		"unclosed quote":   header + "10.0.0.1,1000,40,\"unclosed\n",
		"quote then torn":  header + "10.0.0.1,1000,40,\"T,CP\"\n10.0.0.2,1001,41,UDP\n10.0.0.3,1002\n",
		"quoted header":    "\"srcip\",ts,byt,proto\n10.0.0.1,1000,40,TCP\n",
		"late error":       header + strings.Repeat("10.0.0.1,1000,40,TCP\n", 9) + "10.0.0.9,bad,40,TCP\n",
		"bad ip":           header + "10.0.0.999,1000,40,TCP\n",
		"ipv6":             header + "::1,1000,40,TCP\n",
		"leading zero ip":  header + "010.0.0.1,1000,40,TCP\n",
		"float numeric":    header + "10.0.0.1,1000,40.5,TCP\n10.0.0.2,1001,1e2,UDP\n",
		"overflow int":     header + "10.0.0.1,99999999999999999999,40,TCP\n",
		"signed ints":      header + "10.0.0.1,+1000,-40,TCP\n",
		"empty numeric":    header + "10.0.0.1,,40,TCP\n",
		"empty cat":        header + "10.0.0.1,1000,40,\n10.0.0.2,1001,41,TCP\n",
		"spaced values":    header + "10.0.0.1, 1000,40,TCP\n",
		"dup values":       header + strings.Repeat("10.0.0.1,1000,40,TCP\n10.0.0.2,1001,41,UDP\n", 50),
	}
}

func TestCodecEquivalence(t *testing.T) {
	schema := codecSchema()
	for name, input := range codecCorpus() {
		for _, batch := range []int{0, 1, 3} {
			fast := decodeAll(t, NewFastCSVStream, input, schema, batch)
			ref := decodeAll(t, NewReferenceCSVStream, input, schema, batch)
			if d := diffResults(fast, ref); d != "" {
				t.Errorf("%s (batch %d): fast vs reference: %s", name, batch, d)
			}
		}
	}
}

// TestCodecEquivalenceRandom drives both decoders over generated
// traces with randomized value shapes and line endings — broader than
// the hand-picked corpus, cheaper than fuzzing.
func TestCodecEquivalenceRandom(t *testing.T) {
	schema := codecSchema()
	rng := rand.New(rand.NewPCG(7, 9))
	protos := []string{"TCP", "UDP", "ICMP", "", "T,CP", `say "hi"`, " GRE", "\\."}
	for trial := 0; trial < 50; trial++ {
		var b strings.Builder
		b.WriteString("srcip,ts,byt,proto\n")
		rows := rng.IntN(40)
		for i := 0; i < rows; i++ {
			ip := fmt.Sprintf("10.%d.%d.%d", rng.IntN(256), rng.IntN(256), rng.IntN(256))
			if rng.IntN(20) == 0 {
				ip = "not-an-ip"
			}
			byt := strconv.Itoa(rng.IntN(100000))
			if rng.IntN(10) == 0 {
				byt += ".25"
			}
			proto := protos[rng.IntN(len(protos))]
			if strings.ContainsAny(proto, ",\" ") || proto == "\\." {
				proto = `"` + strings.ReplaceAll(proto, `"`, `""`) + `"`
			}
			fmt.Fprintf(&b, "%s,%d,%s,%s", ip, 1000+i, byt, proto)
			if rng.IntN(4) == 0 {
				b.WriteString("\r\n")
			} else {
				b.WriteString("\n")
			}
		}
		input := b.String()
		fast := decodeAll(t, NewFastCSVStream, input, schema, 7)
		ref := decodeAll(t, NewReferenceCSVStream, input, schema, 7)
		if d := diffResults(fast, ref); d != "" {
			t.Fatalf("trial %d: fast vs reference: %s\ninput:\n%s", trial, d, input)
		}
	}
}

// TestEncodeEquivalence holds the append encoder to csv.Writer's
// bytes: a writer-side reference built from encoding/csv renders the
// same tables, and the outputs must match byte for byte — including
// the quoting edge cases (commas, quotes, newlines, leading spaces,
// the `\.` terminator, empty fields).
func TestEncodeEquivalence(t *testing.T) {
	schema := codecSchema()
	tab := NewTable(schema, 16)
	values := []string{"TCP", "", "T,CP", `say "hi"`, " lead", "\ttab", "a\nb", "c\rd", `\.`, "café", " nbsp"}
	for i, v := range values {
		row := []int64{int64(i) << 24, int64(1000 + i), int64(-40 + i), tab.CatCode(3, v)}
		if err := tab.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	// An out-of-dictionary categorical code renders as the raw code.
	if err := tab.AppendRow([]int64{1, 2000, 3, 99}); err != nil {
		t.Fatal(err)
	}

	reference := func(tab *Table, header bool) string {
		var buf bytes.Buffer
		cw := csv.NewWriter(&buf)
		if header {
			if err := cw.Write(tab.Schema().Names()); err != nil {
				t.Fatal(err)
			}
		}
		row := make([]string, tab.NumCols())
		for r := 0; r < tab.NumRows(); r++ {
			for c := 0; c < tab.NumCols(); c++ {
				v := tab.Value(r, c)
				switch tab.Schema().Fields[c].Kind {
				case KindIP:
					row[c] = FormatIP(v)
				case KindCategorical:
					if s := tab.CatValue(c, v); s != "" {
						row[c] = s
					} else {
						row[c] = strconv.FormatInt(v, 10)
					}
				default:
					row[c] = strconv.FormatInt(v, 10)
				}
			}
			if err := cw.Write(row); err != nil {
				t.Fatal(err)
			}
		}
		cw.Flush()
		return buf.String()
	}

	for _, header := range []bool{true, false} {
		var got bytes.Buffer
		var err error
		if header {
			err = tab.WriteCSV(&got)
		} else {
			err = tab.WriteCSVBody(&got)
		}
		if err != nil {
			t.Fatal(err)
		}
		if want := reference(tab, header); got.String() != want {
			t.Errorf("header=%v: encoder diverges from csv.Writer\ngot:\n%q\nwant:\n%q", header, got.String(), want)
		}
	}
}

func TestAppendIPMatchesFormatIP(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 1000; i++ {
		v := int64(rng.Uint32())
		if got, want := string(AppendIP(nil, v)), FormatIP(v); got != want {
			t.Fatalf("AppendIP(%d) = %q, FormatIP = %q", v, got, want)
		}
	}
}

func TestParseIntFast(t *testing.T) {
	for _, s := range []string{"0", "7", "-7", "+42", "65535", "999999999999999999", "-999999999999999999"} {
		v, ok := parseIntFast([]byte(s))
		if !ok {
			t.Fatalf("parseIntFast(%q) punted", s)
		}
		want, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v != want {
			t.Fatalf("parseIntFast(%q) = %d, strconv = %d (%v)", s, v, want, err)
		}
	}
	// Punt shapes: the reference parser decides these.
	for _, s := range []string{"", "+", "-", "1.5", "1e3", "12a", " 12", "1234567890123456789", "0x10"} {
		if _, ok := parseIntFast([]byte(s)); ok {
			t.Fatalf("parseIntFast(%q) should punt to the reference", s)
		}
	}
	// Differential sweep across every digit-count regime of the SWAR
	// ladder (1..8, 9..16, 17..18), including a non-digit byte planted
	// at each position — those must punt, never mis-parse.
	rng := rand.New(rand.NewPCG(7, 9))
	for width := 1; width <= 18; width++ {
		for trial := 0; trial < 50; trial++ {
			digits := make([]byte, width)
			for j := range digits {
				digits[j] = '0' + byte(rng.IntN(10))
			}
			s := string(digits)
			want, werr := strconv.ParseInt(s, 10, 64)
			got, ok := parseIntFast([]byte(s))
			if werr != nil {
				continue // can't happen at <= 18 digits
			}
			if !ok || got != want {
				t.Fatalf("parseIntFast(%q) = %d, %v; strconv = %d", s, got, ok, want)
			}
			corrupt := []byte(s)
			pos := rng.IntN(width)
			corrupt[pos] = ".x/:"[rng.IntN(4)]
			if v, ok := parseIntFast(corrupt); ok {
				if want2, err := strconv.ParseInt(string(corrupt), 10, 64); err != nil || v != want2 {
					t.Fatalf("parseIntFast(%q) = %d but strconv says %v/%v", corrupt, v, want2, err)
				}
			}
		}
	}
}

func TestParseIPFast(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 1000; i++ {
		v := int64(rng.Uint32())
		s := FormatIP(v)
		got, ok := parseIPFast([]byte(s))
		if !ok || got != v {
			t.Fatalf("parseIPFast(%q) = %d, %v; want %d", s, got, ok, v)
		}
	}
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "01.2.3.4", "1.2.3.04", "1..2.3", "a.b.c.d", "1.2.3.4 ", "::1", "1.2.3.1000"} {
		if _, ok := parseIPFast([]byte(s)); ok {
			t.Fatalf("parseIPFast(%q) should punt to the reference", s)
		}
	}
}

// TestInternTable exercises the byte-keyed probe directly: repeated
// lookups return stable codes, growth rehashes correctly, and
// external dictionary mutation between lookups is absorbed.
func TestInternTable(t *testing.T) {
	d := NewDict()
	var it internTable
	// Enough distinct values to force several growth rounds.
	for round := 0; round < 3; round++ {
		for i := 0; i < 200; i++ {
			v := fmt.Sprintf("value-%03d", i)
			got := it.code(d, []byte(v))
			want := d.Code(v)
			if got != want {
				t.Fatalf("round %d: code(%q) = %d, dict says %d", round, v, got, want)
			}
		}
	}
	// External interning drifts the dict; the probe must resync.
	d.Code("outsider")
	if got := it.code(d, []byte("outsider")); got != d.Code("outsider") {
		t.Fatalf("after drift: code = %d, want %d", got, d.Code("outsider"))
	}
	if got := it.code(d, []byte("")); got != d.Code("") {
		t.Fatalf("empty value: code = %d, want %d", got, d.Code(""))
	}
	if d.Len() != 202 {
		t.Fatalf("dict len = %d, want 202", d.Len())
	}
}

// repeatReader yields a header once, then the body over and over —
// an endless CSV trace for steady-state measurement.
type repeatReader struct {
	header []byte
	body   []byte
	off    int
	sent   bool
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if !r.sent {
		n := copy(p, r.header[r.off:])
		r.off += n
		if r.off == len(r.header) {
			r.sent, r.off = true, 0
		}
		return n, nil
	}
	n := copy(p, r.body[r.off:])
	r.off += n
	if r.off == len(r.body) {
		r.off = 0
	}
	return n, nil
}

// BenchmarkDecodeSteadyState gates the fast decoder's zero-allocation
// contract the way BenchmarkGUMSteadyState gates the plan loop: once
// the dictionaries and intern probes are warm and the batch table is
// recycled with Reset, decoding must not allocate — at all. Any
// allocation in the warm loop is a hard failure, not a metric.
func BenchmarkDecodeSteadyState(b *testing.B) {
	schema := codecSchema()
	var body bytes.Buffer
	for i := 0; i < 512; i++ {
		fmt.Fprintf(&body, "10.0.%d.%d,%d,%d,%s\n", i/256, i%256, 1000+i, 40+i%1000, []string{"TCP", "UDP", "ICMP"}[i%3])
	}
	src := &repeatReader{header: []byte("srcip,ts,byt,proto\n"), body: body.Bytes()}
	s, err := NewCSVStream(src, schema, 512)
	if err != nil {
		b.Fatal(err)
	}
	tab := NewTable(schema, 512)
	// Warm: dictionaries, intern probes, column capacity, read buffer.
	for i := 0; i < 4; i++ {
		tab.Reset()
		if err := s.NextInto(tab); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		tab.Reset()
		if err := s.NextInto(tab); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	b.StopTimer()
	if allocs := after.Mallocs - before.Mallocs; allocs > 0 {
		b.Fatalf("warm decode loop allocated %d times over %d batches; the steady state must be allocation-free", allocs, b.N)
	}
	b.SetBytes(int64(body.Len()))
	b.ReportMetric(float64(512*b.N)/b.Elapsed().Seconds(), "rows/sec")
}
