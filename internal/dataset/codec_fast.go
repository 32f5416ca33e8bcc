package dataset

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// fastDecoder is the hand-rolled byte-scanning rowDecoder. Records are
// split in place inside the read buffer: a quote-free record never
// becomes a string — categorical fields intern through a byte-keyed
// hash probe against the table's dictionary, integral fields parse
// through a manual digit loop, and dotted-quad IPs decode octet by
// octet. Once the dictionaries are warm, decoding allocates nothing
// per row.
//
// Equivalence with encoding/csv is by construction, not imitation:
//
//   - The fast path only handles what it can reproduce exactly —
//     quote-free single-line records, with the reference's physical
//     line accounting (blank lines skipped but counted, \r\n
//     normalized, a lone trailing \r dropped at EOF) and its
//     ErrFieldCount shape.
//   - The first '"' anywhere in a line permanently hands the stream to
//     a real csv.Reader positioned at that line; a line-number offset
//     is added to any *csv.ParseError it reports, so quoting edge
//     cases and their error strings are the standard library's own.
//   - Any field the fast value parsers decline (float-formatted
//     numerics, overflow, malformed IPs) re-parses through the same
//     parseValue call the reference decoder uses, for identical values
//     and identical error text.
type fastDecoder struct {
	r      io.Reader
	buf    []byte
	lo, hi int   // unconsumed window of buf
	rdErr  error // sticky error from the underlying reader

	numLine int // physical lines consumed, encoding/csv's accounting

	header  []string
	pos     []int       // schema field -> CSV column
	plans   []fieldPlan // one per schema field
	colPlan []int32     // CSV column -> plan index, -1 when unused

	// The current record, split in place: rec is the line's content
	// (terminator stripped) and ends[i] is the end offset of field i
	// within it — column i spans rec[ends[i-1]+1 : ends[i]], with field
	// 0 starting at 0. Offsets instead of sub-slices keep the
	// per-record bookkeeping free of pointer writes (no GC write
	// barriers on the hot path). Only the header read splits this way;
	// decodeRecord fuses splitting and parsing into one pass.
	rec  []byte
	ends []int

	// scratch backs the rare record that cannot be scanned in place
	// (no trailing terminator byte to reuse, or too close to the
	// buffer's end for whole-word loads).
	scratch []byte

	// catPlans lists the categorical plan indices; dictLens[pi] holds
	// the pre-row dictionary length (-1 for a nil dict) so the cold
	// paths that must undo interning can restore it.
	catPlans []int32
	dictLens []int

	// nfields is the expected record width (the header's). 0 only
	// while the header itself is being read.
	nfields int

	// handoff, once set, owns the rest of the stream: a csv.Reader
	// whose line numbers lag the trace's by lineOff. row is its scratch
	// (the handed-off path decodes row-at-a-time; it is the cold path).
	handoff *csv.Reader
	lineOff int
	row     []int64
}

// fieldPlan is the per-schema-field decode recipe: which CSV column to
// read and how, plus the intern probe for categorical fields.
type fieldPlan struct {
	col    int
	kind   Kind
	intern internTable
}

const fastDecoderBuf = 64 << 10

// errHandoff is an internal sentinel: the current line contains a
// quote, the stream now belongs to the csv.Reader. Never escapes.
var errHandoff = errors.New("dataset: csv handoff")

func newFastRowDecoder(r io.Reader) (rowDecoder, error) {
	d := &fastDecoder{r: r, buf: make([]byte, fastDecoderBuf)}
	switch err := d.nextRecord(); {
	case err == errHandoff:
		rec, err := d.handoff.Read()
		if err != nil {
			return nil, d.adjustErr(err)
		}
		d.header = make([]string, len(rec))
		copy(d.header, rec)
	case err != nil:
		return nil, err
	default:
		d.header = make([]string, len(d.ends))
		for i := range d.header {
			d.header[i] = string(d.field(i))
		}
	}
	d.nfields = len(d.header)
	if d.handoff != nil {
		d.handoff.FieldsPerRecord = d.nfields
	}
	return d, nil
}

func (d *fastDecoder) Header() []string { return d.header }

func (d *fastDecoder) Bind(schema *Schema, pos []int) {
	d.pos = pos
	d.plans = make([]fieldPlan, len(pos))
	d.colPlan = make([]int32, d.nfields)
	for c := range d.colPlan {
		d.colPlan[c] = -1
	}
	for i, p := range pos {
		d.plans[i] = fieldPlan{col: p, kind: schema.Fields[i].Kind}
		d.colPlan[p] = int32(i)
		if schema.Fields[i].Kind == KindCategorical {
			d.catPlans = append(d.catPlans, int32(i))
		}
	}
	d.dictLens = make([]int, len(pos))
}

// DecodeInto is the hot loop: up to max records scanned and parsed
// with values appended straight into t's columns — no intermediate row
// buffer, no per-record interface call, no AppendRow copy. On a field
// error the half-appended row is rolled back, so t only ever holds
// complete records.
func (d *fastDecoder) DecodeInto(t *Table, max int) (int, error) {
	if len(t.cols) != len(d.plans) {
		return 0, fmt.Errorf("%w: row width %d, schema width %d", ErrSchemaMismatch, len(d.plans), len(t.cols))
	}
	n := 0
	var stopErr error
	if d.handoff == nil {
		// Pre-extend every column to the batch's upper bound, so the
		// scan stores each value with one indexed write — no per-field
		// append bookkeeping (slice-header load, capacity check, header
		// write-back). The reslice below trims to the rows actually
		// decoded; a row that erred or handed off mid-scan just leaves
		// its stores beyond the final length, which also makes row
		// rollback free.
		base := t.NumRows()
		need := base + max
		for i, c := range t.cols {
			if cap(c) < need {
				nc := make([]int64, need, need+need/2)
				copy(nc, c)
				t.cols[i] = nc
			} else {
				t.cols[i] = c[:need]
			}
		}
		for n < max {
			if err := d.decodeRecord(t, base+n); err != nil {
				stopErr = err
				break
			}
			n++
		}
		for i := range t.cols {
			t.cols[i] = t.cols[i][:base+n]
		}
		if stopErr != nil && stopErr != errHandoff {
			return n, stopErr
		}
		if stopErr == errHandoff {
			if err := d.nextHandoff(t); err != nil {
				return n, err
			}
			n++
		}
	}
	for n < max {
		if err := d.nextHandoff(t); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// decodeRecord reads, splits, and parses one record in a single fused
// pass: each comma the SWAR scan uncovers immediately dispatches the
// field it closes, so boundaries never round-trip through an offsets
// slice. The scan always ends a field at a comma — the line's own
// terminator byte is temporarily overwritten with one, giving the last
// field the same handling site as the rest (a line with no terminator
// byte to spare copies into scratch instead).
//
// Fusing means cold conditions surface after earlier fields were
// already stored and interned. Stores land at row index r, which the
// caller only commits by extending the columns past it, so an erred
// row's values vanish for free; interning is the state that needs
// explicit undoing, matched to what the reference would have done:
//
//   - quote → the handoff csv.Reader re-parses the whole record, so
//     the interned dictionary entries roll back (the handoff then
//     re-interns in the reference's own order, even when its parse
//     fails);
//   - wrong field count → the reference reports ErrFieldCount before
//     parsing any field, so all of the row's interning rolls back;
//   - field parse error → the reference parses fields in schema order
//     and stops at the first failure, so the error to report is the
//     failure with the smallest schema index (the scan sees fields in
//     CSV column order — not the same order); interning done for
//     categorical fields after that schema position rolls back, while
//     earlier interning stays, exactly the reference's footprint. A
//     wrong field count still takes precedence over any field error.
//
// decodeRecord only runs before the handoff, when every row decodes
// through the fast path — the caller pre-extends the columns, so the
// indexed stores cannot go out of bounds for r < the extension.
func (d *fastDecoder) decodeRecord(t *Table, r int) error {
	var line, content []byte
	for {
		var err error
		if line, err = d.readLine(); err != nil {
			return err
		}
		content = line
		if n := len(content); content[n-1] == '\n' {
			if n >= 2 && content[n-2] == '\r' {
				content = content[:n-2]
			} else {
				content = content[:n-1]
			}
		} else if content[n-1] == '\r' && d.rdErr == io.EOF {
			// encoding/csv drops one lone trailing \r before EOF. The
			// drop happens here, not in readLine, so a handoff still
			// sees the raw bytes (its csv.Reader performs the same
			// normalization itself — doing it twice would eat two \r).
			content = content[:n-1]
		}
		if len(content) != 0 {
			break
		}
		// A line with nothing but its terminator: encoding/csv skips
		// it (but its physical line still counts).
	}
	cn := len(content)
	// One in-place scan needs a terminator byte to turn into the
	// sentinel comma and cn+8 bytes of capacity for whole-word loads
	// (which also guarantees every field view has the spare capacity
	// parseDigits8 wants). Otherwise copy through scratch — only the
	// stream's last line or one ending within a word of the buffer's
	// edge.
	var padded []byte
	termByte := byte(0)
	inPlace := len(line) > cn && cap(line) >= cn+8
	if inPlace {
		termByte = line[cn]
		line[cn] = ','
		padded = line[:cn+8]
	} else {
		if cap(d.scratch) < cn+8 {
			d.scratch = make([]byte, 0, cn+64)
		}
		s := append(d.scratch[:0], content...)
		s = append(s, ',')
		s = s[:cn+8]
		d.scratch = s
		padded = s
	}
	d.snapshotDicts(t)
	colPlan := d.colPlan
	cols := t.cols
	var pendErr error
	pendField := 0 // schema index of pendErr's field
	nf := 0        // fields closed so far
	start := 0     // current field's start offset
	N := cn + 1
	for i := 0; i < N; i += 8 {
		w := binary.LittleEndian.Uint64(padded[i:])
		m := swarMatch(w, swarComma) | swarMatch(w, swarQuote)
		for m != 0 {
			j := i + bits.TrailingZeros64(m)>>3
			if j >= N {
				break // matches in the padding garbage beyond the sentinel
			}
			m &= m - 1
			if padded[j] == '"' {
				d.rollbackDicts(t)
				if inPlace {
					line[cn] = termByte
				}
				d.startHandoff(line)
				return errHandoff
			}
			if nf < len(colPlan) {
				if pi := colPlan[nf]; pi >= 0 {
					f := int(pi)
					b := padded[start:j]
					switch d.plans[f].kind {
					case KindCategorical:
						if dict := t.dicts[f]; dict != nil {
							cols[f][r] = int64(d.plans[f].intern.code(dict, b))
						} else {
							cols[f][r] = t.CatCode(f, string(b))
						}
					case KindIP:
						if v, ok := parseIPFast(b); ok {
							cols[f][r] = v
						} else if v, err := ParseIP(string(b)); err == nil {
							cols[f][r] = v
						} else if pendErr == nil || f < pendField {
							pendErr, pendField = &fieldError{field: f, err: err}, f
						}
					default:
						if v, ok := parseIntFast(b); ok {
							cols[f][r] = v
						} else if v, err := t.parseValue(f, string(b)); err == nil {
							cols[f][r] = v
						} else if pendErr == nil || f < pendField {
							pendErr, pendField = &fieldError{field: f, err: err}, f
						}
					}
				}
			}
			start = j + 1
			nf++
		}
	}
	if inPlace {
		line[cn] = termByte
	}
	if nf != len(colPlan) {
		d.rollbackDicts(t)
		l := d.numLine
		return &csv.ParseError{StartLine: l, Line: l, Column: 1, Err: csv.ErrFieldCount}
	}
	if pendErr != nil {
		// The reference stopped parsing at pendField, so categorical
		// fields after it (in schema order) were never interned there;
		// a categorical field itself never fails, so == cannot occur.
		for _, pi := range d.catPlans {
			if int(pi) > pendField {
				d.rollbackDict(t, pi)
			}
		}
		return pendErr
	}
	return nil
}

// snapshotDicts records each categorical dictionary's length at a row
// boundary, the state the rollback paths restore.
func (d *fastDecoder) snapshotDicts(t *Table) {
	for _, pi := range d.catPlans {
		if dict := t.dicts[pi]; dict != nil {
			d.dictLens[pi] = dict.Len()
		} else {
			d.dictLens[pi] = -1
		}
	}
}

// rollbackDicts undoes all dictionary interning of a rolled-back row,
// restoring every categorical dictionary to its pre-row state. Cold
// path: quote handoffs and field-count errors only.
func (d *fastDecoder) rollbackDicts(t *Table) {
	for _, pi := range d.catPlans {
		d.rollbackDict(t, pi)
	}
}

// rollbackDict restores one categorical dictionary to its pre-row
// snapshot (nil if it did not exist yet).
func (d *fastDecoder) rollbackDict(t *Table, pi int32) {
	ln := d.dictLens[pi]
	if dict := t.dicts[pi]; dict != nil {
		if ln < 0 {
			t.dicts[pi] = nil
		} else if dict.Len() > ln {
			dict.truncate(ln)
		}
	}
}

// nextRecord scans the next record into d.rec/d.ends — only used for
// the header line; data records decode through decodeRecord. It returns io.EOF
// at end of stream, errHandoff when the record contains a quote (the
// handoff reader is then positioned at the record's first line), a
// *csv.ParseError for a wrong field count, or the underlying reader's
// error.
func (d *fastDecoder) nextRecord() error {
	for {
		line, err := d.readLine()
		if err != nil {
			return err
		}
		content := line
		if n := len(content); content[n-1] == '\n' {
			if n >= 2 && content[n-2] == '\r' {
				content = content[:n-2]
			} else {
				content = content[:n-1]
			}
		} else if content[n-1] == '\r' && d.rdErr == io.EOF {
			// encoding/csv drops one lone trailing \r before EOF. The
			// drop happens here, not in readLine, so a handoff still
			// sees the raw bytes (its csv.Reader performs the same
			// normalization itself — doing it twice would eat two \r).
			content = content[:n-1]
		}
		if len(content) == 0 {
			// A line with nothing but its terminator: encoding/csv
			// skips it (but its physical line still counts).
			continue
		}
		// Split on commas and watch for quotes in one word-at-a-time
		// pass. Fields are short (ports, octets, small counters), so a
		// per-field IndexByte pays its call overhead a dozen times per
		// record; one fused scan touches each byte once.
		d.ends = d.ends[:0]
		n := len(content)
		i := 0
		for ; i+8 <= n; i += 8 {
			w := binary.LittleEndian.Uint64(content[i:])
			m := swarMatch(w, swarComma) | swarMatch(w, swarQuote)
			for m != 0 {
				j := i + bits.TrailingZeros64(m)>>3
				if content[j] == '"' {
					d.startHandoff(line)
					return errHandoff
				}
				d.ends = append(d.ends, j)
				m &= m - 1
			}
		}
		for ; i < n; i++ {
			switch content[i] {
			case '"':
				d.startHandoff(line)
				return errHandoff
			case ',':
				d.ends = append(d.ends, i)
			}
		}
		d.ends = append(d.ends, n)
		d.rec = content
		if d.nfields > 0 && len(d.ends) != d.nfields {
			l := d.numLine
			return &csv.ParseError{StartLine: l, Line: l, Column: 1, Err: csv.ErrFieldCount}
		}
		return nil
	}
}

// field returns column i of the current record as a view into the
// read buffer, valid until the next nextRecord call.
func (d *fastDecoder) field(i int) []byte {
	start := 0
	if i > 0 {
		start = d.ends[i-1] + 1
	}
	return d.rec[start:d.ends[i]]
}

// SWAR byte matching: swarMatch sets the high bit of every byte of w
// equal to pat's repeated byte. This is the carry-free formulation —
// the inner addition cannot borrow across byte lanes — so every set
// bit is a genuine match, not just the lowest one, and the splitter
// may peel all matches of a word with successive TrailingZeros.
const (
	swarLo    = 0x0101010101010101
	swarHi    = 0x8080808080808080
	swarComma = swarLo * ','
	swarQuote = swarLo * '"'
	swarZeros = swarLo * '0'
)

func swarMatch(w, pat uint64) uint64 {
	x := w ^ pat
	return ^((x&^swarHi + ^uint64(swarHi)) | x | ^uint64(swarHi))
}

// readLine returns the next raw physical line straight out of the
// read buffer, terminator included; the slice is valid until the next
// call. One physical-line count per line, like encoding/csv; the
// never-empty result is guaranteed by the EOF check.
func (d *fastDecoder) readLine() ([]byte, error) {
	for {
		if i := bytes.IndexByte(d.buf[d.lo:d.hi], '\n'); i >= 0 {
			line := d.buf[d.lo : d.lo+i+1]
			d.lo += i + 1
			d.numLine++
			return line, nil
		}
		if d.rdErr != nil {
			if d.lo == d.hi {
				return nil, d.rdErr
			}
			line := d.buf[d.lo:d.hi]
			d.lo = d.hi
			d.numLine++
			return line, nil
		}
		d.fill()
	}
}

// fill compacts the buffer window and reads more bytes, growing the
// buffer when a single line overflows it.
func (d *fastDecoder) fill() {
	if d.lo > 0 {
		copy(d.buf, d.buf[d.lo:d.hi])
		d.hi -= d.lo
		d.lo = 0
	}
	if d.hi == len(d.buf) {
		bigger := make([]byte, 2*len(d.buf))
		copy(bigger, d.buf[:d.hi])
		d.buf = bigger
	}
	n, err := d.r.Read(d.buf[d.hi:])
	d.hi += n
	if err != nil {
		d.rdErr = err
	}
}

// startHandoff hands the rest of the stream — the current raw line,
// the unread tail of the buffer, then the underlying reader — to a
// csv.Reader. The fast path never touches the buffer again, so the
// handed-off views stay stable.
func (d *fastDecoder) startHandoff(line []byte) {
	d.lineOff = d.numLine - 1
	var src io.Reader = io.MultiReader(bytes.NewReader(line), bytes.NewReader(d.buf[d.lo:d.hi]))
	switch {
	case d.rdErr == nil:
		src = io.MultiReader(src, d.r)
	case d.rdErr != io.EOF:
		// Replay the sticky read error rather than poking the dead
		// reader again.
		src = io.MultiReader(src, errReader{d.rdErr})
	}
	cr := csv.NewReader(src)
	cr.ReuseRecord = true
	if d.nfields > 0 {
		cr.FieldsPerRecord = d.nfields
	}
	d.handoff = cr
}

func (d *fastDecoder) nextHandoff(t *Table) error {
	rec, err := d.handoff.Read()
	if err != nil {
		return d.adjustErr(err)
	}
	if d.row == nil {
		d.row = make([]int64, len(d.pos))
	}
	for i, p := range d.pos {
		v, err := t.parseValue(i, rec[p])
		if err != nil {
			return &fieldError{field: i, err: err}
		}
		d.row[i] = v
	}
	return t.AppendRow(d.row)
}

// adjustErr rebases a handoff csv.ParseError's line numbers into the
// trace's physical line numbering.
func (d *fastDecoder) adjustErr(err error) error {
	var pe *csv.ParseError
	if errors.As(err, &pe) {
		pe.StartLine += d.lineOff
		pe.Line += d.lineOff
	}
	return err
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// internTable is an open-addressed probe from field bytes to
// dictionary codes. It mirrors one *Dict: lookups compare a packed
// one-word key, so a repeated categorical value resolves to its code
// with zero allocations and — for values of at most eight bytes — no
// byte comparison at all; the map-keyed Dict.Code path only runs on a
// value's first appearance.
type internTable struct {
	dict  *Dict
	n     int // dict.Len() the table mirrors; rebuilt on drift
	count int
	slots []internSlot
}

// internSlot packs a value's identity: the internKey word, plus the
// length nibble and code+1 in meta (0 marks an empty slot). For values
// of at most eight bytes, key + length nibble IS the value — equality
// is two integer compares. Longer values share nibble 9 and confirm
// against the dictionary's own string.
type internSlot struct {
	key  uint64
	meta uint32 // len nibble << 28 | code+1
}

const internCodeMask = 1<<28 - 1

// internKey packs a field value into one word: two overlapping 4-byte
// windows (first and last) that cover every byte when len(v) <= 8 —
// injective given the length — and act as a prefix/suffix filter for
// longer values. string and []byte callers share one body so the keys
// agree; the compiler merges each window into a single unaligned load.
func internKey[T string | []byte](v T) uint64 {
	n := len(v)
	if n >= 4 {
		lo := uint64(v[0]) | uint64(v[1])<<8 | uint64(v[2])<<16 | uint64(v[3])<<24
		hi := uint64(v[n-4]) | uint64(v[n-3])<<8 | uint64(v[n-2])<<16 | uint64(v[n-1])<<24
		return lo | hi<<32
	}
	if n == 0 {
		return 0
	}
	return uint64(v[0]) | uint64(v[n>>1])<<8 | uint64(v[n-1])<<16
}

// internLen is the slot length nibble: the exact length through 8,
// 9 for everything longer (those confirm via the dictionary string).
func internLen(n int) uint32 {
	if n > 9 {
		return 9
	}
	return uint32(n)
}

// internProbe mixes key and exact length into a probe start.
func internProbe(key uint64, n int) uint32 {
	h := (key ^ uint64(n)*0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
	return uint32(h >> 32)
}

func (it *internTable) code(d *Dict, b []byte) int {
	if it.dict != d || it.n != d.Len() {
		it.rebuild(d)
	}
	key := internKey(b)
	ln := internLen(len(b))
	mask := uint32(len(it.slots) - 1)
	for s := internProbe(key, len(b)) & mask; ; s = (s + 1) & mask {
		sl := it.slots[s]
		if sl.meta == 0 {
			// First sighting: intern through the dictionary (the one
			// place a new value allocates) and mirror it here.
			c := d.Code(string(b))
			it.n = d.Len()
			if (it.count+1)*4 >= len(it.slots)*3 {
				it.rebuild(d)
			} else {
				it.slots[s] = internSlot{key: key, meta: ln<<28 | uint32(c+1)}
				it.count++
			}
			return c
		}
		if sl.key == key && sl.meta>>28 == ln {
			c := int(sl.meta&internCodeMask) - 1
			if ln != 9 || string(b) == d.Values[c] {
				return c
			}
		}
	}
}

func (it *internTable) rebuild(d *Dict) {
	size := 16
	for size < 2*(d.Len()+1) {
		size <<= 1
	}
	it.dict = d
	it.n = d.Len()
	it.count = d.Len()
	it.slots = make([]internSlot, size)
	for c, v := range d.Values {
		it.place(v, uint32(c+1))
	}
}

func (it *internTable) place(v string, code uint32) {
	key := internKey(v)
	mask := uint32(len(it.slots) - 1)
	for s := internProbe(key, len(v)) & mask; ; s = (s + 1) & mask {
		if it.slots[s].meta == 0 {
			it.slots[s] = internSlot{key: key, meta: internLen(len(v))<<28 | code}
			return
		}
	}
}

// parseIntFast parses an optionally signed decimal integer of at most
// 18 digits — wide enough for every header field, narrow enough that
// overflow is impossible. Anything else (empty, stray bytes, longer
// digit runs, float-formatted numerics) reports !ok and the caller
// falls back to the reference parse for identical values and errors.
// Runs of up to eight digits convert with the SWAR multiply ladder
// (validated by isDigits8, so a stray byte still reports !ok); nine
// and more split into two ladders.
func parseIntFast(b []byte) (int64, bool) {
	i := 0
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		i = 1
	}
	d := b[i:]
	n := len(d)
	var v uint64
	switch {
	case n == 0 || n > 18:
		return 0, false
	case n <= 8:
		var ok bool
		if v, ok = parseDigits8(d, n); !ok {
			return 0, false
		}
	case n <= 16:
		hi, ok := parseDigits8(d[:n-8], n-8)
		if !ok {
			return 0, false
		}
		lo, ok := parseDigits8(d[n-8:], 8)
		if !ok {
			return 0, false
		}
		v = hi*100_000_000 + lo
	default: // 17-18 digits; rare enough for the plain loop
		for _, c := range d {
			c -= '0'
			if c > 9 {
				return 0, false
			}
			v = v*10 + uint64(c)
		}
	}
	iv := int64(v) // n <= 18 keeps v under 2^63
	if neg {
		iv = -iv
	}
	return iv, true
}

// parseDigits8 converts 1–8 ASCII digits to their value, reporting
// !ok when any byte is not a digit. The digits are left-aligned into
// one word (zero-padding with ASCII '0'), validated byte-parallel, and
// converted with three multiplies — no per-digit loop. The 8-byte load
// over a shorter slice is safe whenever spare capacity exists (fields
// are interior views of the read buffer); the scalar assembly covers
// the rest.
func parseDigits8(b []byte, n int) (uint64, bool) {
	var w uint64
	if cap(b) >= 8 {
		w = binary.LittleEndian.Uint64(b[:8])
	} else {
		for j := n - 1; j >= 0; j-- {
			w = w<<8 | uint64(b[j])
		}
	}
	// Left-align the n digit bytes (junk beyond them shifts out) and
	// fill the low bytes with ASCII zeros.
	w = w<<(8*(8-n)) | swarZeros>>(8*n)
	if (w&0xF0F0F0F0F0F0F0F0)|((w+0x0606060606060606)&0xF0F0F0F0F0F0F0F0)>>4 != 0x3333333333333333 {
		return 0, false
	}
	w -= swarZeros
	w = w*10 + w>>8
	w = ((w & 0x000000FF000000FF) * 0x000F424000000064) +
		((w >> 16 & 0x000000FF000000FF) * 0x0000271000000001)
	return w >> 32, true
}

// parseIPFast decodes a strict dotted-quad IPv4 address: exactly four
// octets, 1–3 digits each, no leading zeros, ≤ 255 — the only forms
// netip.ParseAddr accepts for IPv4, so the fallback path (which
// produces the error text) is reached exactly when this returns !ok
// for a reason the reference would also reject or reinterpret.
//
// The whole address (4–15 bytes) loads into two words up front and the
// scan consumes bytes out of the registers — no per-byte memory loads
// or bounds checks. Register bytes beyond len(b) are garbage from the
// over-read; every read of one is gated on rem, the count of real
// bytes left.
func parseIPFast(b []byte) (int64, bool) {
	n := len(b)
	if n < 7 || n > 15 {
		return 0, false // too short/long for dotted-quad; fallback decides
	}
	var lo, hi uint64
	if cap(b) >= 16 {
		bb := b[:16]
		lo = binary.LittleEndian.Uint64(bb)
		hi = binary.LittleEndian.Uint64(bb[8:])
	} else {
		for j := n - 1; j >= 8; j-- {
			hi = hi<<8 | uint64(b[j])
		}
		for j := min(n, 8) - 1; j >= 0; j-- {
			lo = lo<<8 | uint64(b[j])
		}
	}
	rem := n
	var v uint32
	for seg := 0; ; seg++ {
		c := uint32(lo&0xFF) - '0'
		if c > 9 {
			return 0, false
		}
		lo = lo>>8 | hi<<56
		hi >>= 8
		rem--
		o := c
		if c != 0 { // an octet starting '0' is single-digit or rejected
			if c = uint32(lo&0xFF) - '0'; rem > 0 && c <= 9 {
				o = o*10 + c
				lo = lo>>8 | hi<<56
				hi >>= 8
				rem--
				if c = uint32(lo&0xFF) - '0'; rem > 0 && c <= 9 {
					o = o*10 + c
					lo = lo>>8 | hi<<56
					hi >>= 8
					rem--
				}
			}
			if o > 255 {
				return 0, false
			}
		}
		v = v<<8 | o
		if seg == 3 {
			break
		}
		if rem == 0 || lo&0xFF != '.' {
			return 0, false
		}
		lo = lo>>8 | hi<<56
		hi >>= 8
		rem--
	}
	if rem != 0 {
		return 0, false
	}
	return int64(v), true
}
