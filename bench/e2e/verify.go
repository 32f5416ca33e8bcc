package main

import (
	"bytes"
	"fmt"
	"math"

	netdpsyn "github.com/netdpsyn/netdpsyn"
)

// verifyResult checks one result.csv: it must load under the
// dataset's schema, hold exactly the record count the job reported,
// and draw every label from the input's label domain. It returns the
// decoded table for the encode probe.
func verifyResult(body []byte, schema *netdpsyn.Schema, wantRows int, labels map[string]bool) (*netdpsyn.Table, error) {
	t, err := netdpsyn.LoadCSV(bytes.NewReader(body), schema)
	if err != nil {
		return nil, fmt.Errorf("result does not load under the dataset schema: %w", err)
	}
	if t.NumRows() != wantRows {
		return nil, fmt.Errorf("result holds %d rows, the job reported %d", t.NumRows(), wantRows)
	}
	// LoadCSV interns a label value only when a row carries it, so the
	// column's dictionary is exactly the set of labels released.
	for _, v := range t.Dict(schema.LabelIndex()).Values {
		if !labels[v] {
			return nil, fmt.Errorf("result label %q is outside the input's label domain", v)
		}
	}
	return t, nil
}

// verifySpend checks a ρ the daemon reports against the one the
// workload's releases compose to, to a relative 1e-9 (the ledger sums
// in floating point).
func verifySpend(got, want float64) error {
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		return fmt.Errorf("ρ %.12g, want %.12g", got, want)
	}
	return nil
}
