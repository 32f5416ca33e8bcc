package dataset

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf8"
)

// CSV encode path. WriteCSV used to go through csv.Writer with a
// fmt/strconv string per cell; every result byte the daemon serves
// passes through here (spool writers, windowed result.csv streaming,
// the CLI emit loop), so rows are now rendered with strconv.Append*
// (IP octets from a table) into a pooled buffer and flushed in large
// chunks. The bytes are
// csv.Writer-identical — appendCSVField reproduces its quoting rules
// (UseCRLF=false) exactly, and the encoder equivalence test holds the
// two byte-for-byte — so the determinism contract (output bytes,
// DETHASH) is untouched.

// encFlushBytes is the buffered-bytes threshold past which writeCSV
// flushes to the destination writer.
const encFlushBytes = 64 << 10

// encBufs pools encode buffers across WriteCSV calls; the per-call
// cost is two pool operations, not a buffer allocation.
var encBufs = sync.Pool{
	New: func() any {
		b := make([]byte, 0, encFlushBytes+4096)
		return &b
	},
}

// ipOctets holds each octet's decimal form, for AppendIP.
var ipOctets = func() (t [256]string) {
	for i := range t {
		t[i] = strconv.Itoa(i)
	}
	return t
}()

// AppendCSVHeader appends the schema's header row, newline-terminated,
// to dst.
func (t *Table) AppendCSVHeader(dst []byte) []byte {
	for c, f := range t.schema.Fields {
		if c > 0 {
			dst = append(dst, ',')
		}
		dst = appendCSVField(dst, f.Name)
	}
	return append(dst, '\n')
}

// AppendCSVRow appends row r in CSV form, newline-terminated, to dst.
// Integral kinds render through strconv.AppendInt, IPs octet by octet,
// and categorical values through their dictionary (falling back to the
// raw code when the dictionary has no string for it, as formatValue
// always did).
func (t *Table) AppendCSVRow(dst []byte, r int) []byte {
	for c := range t.cols {
		if c > 0 {
			dst = append(dst, ',')
		}
		v := t.cols[c][r]
		switch t.schema.Fields[c].Kind {
		case KindIP:
			dst = AppendIP(dst, v)
		case KindCategorical:
			if s := t.CatValue(c, v); s != "" {
				dst = appendCSVField(dst, s)
			} else {
				dst = strconv.AppendInt(dst, v, 10)
			}
		default:
			dst = strconv.AppendInt(dst, v, 10)
		}
	}
	return append(dst, '\n')
}

// AppendIP appends the dotted-quad form of a uint32-encoded IPv4
// address — the append form of FormatIP, byte-identical to it.
func AppendIP(dst []byte, v int64) []byte {
	u := uint32(v)
	dst = append(dst, ipOctets[u>>24]...)
	dst = append(dst, '.')
	dst = append(dst, ipOctets[u>>16&0xff]...)
	dst = append(dst, '.')
	dst = append(dst, ipOctets[u>>8&0xff]...)
	dst = append(dst, '.')
	return append(dst, ipOctets[u&0xff]...)
}

// appendCSVField appends one field with encoding/csv's quoting rules:
// quote when the field contains the comma, a quote, \r or \n, starts
// with a space rune, or is Postgres's `\.` terminator; inside quotes
// only `"` is escaped (doubled) — with UseCRLF off, \r and \n pass
// through verbatim.
func appendCSVField(dst []byte, field string) []byte {
	if !csvFieldNeedsQuotes(field) {
		return append(dst, field...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(field); i++ {
		c := field[i]
		if c == '"' {
			dst = append(dst, '"', '"')
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// csvFieldNeedsQuotes mirrors csv.Writer's fieldNeedsQuotes for the
// default comma.
func csvFieldNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` {
		return true
	}
	for i := 0; i < len(field); i++ {
		c := field[i]
		if c == '\n' || c == '\r' || c == '"' || c == ',' {
			return true
		}
	}
	r1, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r1)
}

// writeCSV renders the table through a pooled buffer, flushing to w
// whenever encFlushBytes have accumulated.
func (t *Table) writeCSV(w io.Writer, header bool) error {
	bp := encBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	defer func() {
		*bp = buf[:0]
		encBufs.Put(bp)
	}()
	if header {
		buf = t.AppendCSVHeader(buf)
	}
	for r := 0; r < t.NumRows(); r++ {
		buf = t.AppendCSVRow(buf, r)
		if len(buf) >= encFlushBytes {
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("dataset: write row %d: %w", r, err)
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("dataset: write rows: %w", err)
		}
	}
	return nil
}
