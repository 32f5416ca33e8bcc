package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	netdpsyn "github.com/netdpsyn/netdpsyn"
	"github.com/netdpsyn/netdpsyn/internal/dataset"
	"github.com/netdpsyn/netdpsyn/internal/serve/persist"
)

// Probes time single layers by calling their public functions
// directly, after the measured phase, on the workload's own data.

// probeReps is how many times each probe repeats; probes report the
// median.
const probeReps = 15

// timeMedian runs fn probeReps times and returns the median wall time
// in ms.
func timeMedian(fn func() error) (float64, error) {
	var ms []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return percentile(ms, 0.5), nil
}

// probeDecode times decoding an upload into one table with the fast
// CSV stream, as registration and window PUTs do.
func probeDecode(csv []byte, schema *netdpsyn.Schema) (float64, error) {
	return timeMedian(func() error {
		s, err := dataset.NewFastCSVStream(bytes.NewReader(csv), schema, 0)
		if err != nil {
			return err
		}
		t := dataset.NewTable(schema, 1024)
		for {
			if err := s.NextInto(t); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	})
}

// probeEncode times rendering one result table as CSV, as the result
// spool does.
func probeEncode(t *netdpsyn.Table) (float64, error) {
	return timeMedian(func() error { return t.WriteCSV(io.Discard) })
}

// probeAppend times opening a fresh state store in a directory under
// dir and journaling one charge record (write plus fsync), on the
// filesystem that holds the daemon's state dir.
func probeAppend(dir string) (float64, error) {
	return timeMedian(func() error {
		sd, err := os.MkdirTemp(dir, "probe-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(sd)
		st, _, err := persist.Open(sd)
		if err != nil {
			return err
		}
		err = st.AppendCharge(persist.ChargeRecord{
			JobID: "probe", DatasetID: "probe", Rho: 0.02,
			Config:    netdpsyn.Config{Epsilon: epsilon, Delta: delta, Seed: 1},
			Submitted: time.Now(),
		})
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("persist probe: %w", err)
		}
		return nil
	})
}
