package dataset

import (
	"encoding/csv"
	"io"
)

// refDecoder is the reference rowDecoder: encoding/csv record reads,
// per-field string materialization, map-keyed interning. It is the
// semantics oracle for the fast decoder (see codec.go), which hands
// quoted records to encoding/csv.
type refDecoder struct {
	cr     *csv.Reader
	header []string
	pos    []int
	row    []int64
}

func newRefRowDecoder(r io.Reader) (rowDecoder, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	rec, err := cr.Read()
	if err != nil {
		return nil, err
	}
	// ReuseRecord recycles the record slice on the next Read; the
	// header outlives it, so copy.
	header := make([]string, len(rec))
	copy(header, rec)
	return &refDecoder{cr: cr, header: header}, nil
}

func (d *refDecoder) Header() []string { return d.header }

func (d *refDecoder) Bind(_ *Schema, pos []int) {
	d.pos = pos
	d.row = make([]int64, len(pos))
}

func (d *refDecoder) DecodeInto(t *Table, max int) (int, error) {
	for n := 0; n < max; n++ {
		if err := d.next(t, d.row); err != nil {
			return n, err
		}
		if err := t.AppendRow(d.row); err != nil {
			return n, err
		}
	}
	return max, nil
}

func (d *refDecoder) next(t *Table, row []int64) error {
	rec, err := d.cr.Read()
	if err != nil {
		return err
	}
	for i, p := range d.pos {
		v, err := t.parseValue(i, rec[p])
		if err != nil {
			return &fieldError{field: i, err: err}
		}
		row[i] = v
	}
	return nil
}
