package binning

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"github.com/netdpsyn/netdpsyn/internal/dataset"
)

// fuzzSchema has a field of every kind, two each of IPs and ports.
var fuzzSchema = dataset.MustSchema(
	dataset.Field{Name: "srcip", Kind: dataset.KindIP},
	dataset.Field{Name: "dstip", Kind: dataset.KindIP},
	dataset.Field{Name: "srcport", Kind: dataset.KindPort},
	dataset.Field{Name: "dstport", Kind: dataset.KindPort},
	dataset.Field{Name: "proto", Kind: dataset.KindCategorical},
	dataset.Field{Name: "byt", Kind: dataset.KindNumeric},
	dataset.Field{Name: "ts", Kind: dataset.KindTimestamp},
)

// fuzzTable decodes fuzz bytes into a table of fuzzSchema: data[0]
// holds one bit per field that makes the field a single-value column,
// data[1] how many times (1–8) the rest repeats, and every further
// byte is one row, mapped per field so that values repeat, srcip
// clusters inside a few /26 blocks (heavy addresses stay singleton
// bins inside their group's range), ports sit around 1024 and 65535,
// and numerics go negative. The repeat keeps inputs short, which
// keeps the fuzzer's minimization fast.
func fuzzTable(data []byte) *dataset.Table {
	if len(data) < 3 {
		return nil
	}
	constant, repeat, once := data[0], 1+int(data[1]&7), data[2:]
	if len(once) > 128 {
		once = once[:128]
	}
	rows := bytes.Repeat(once, repeat)
	tab := dataset.NewTable(fuzzSchema, len(rows))
	row := make([]int64, fuzzSchema.NumFields())
	port := func(b byte, shift uint) int64 {
		b = b>>shift | b<<(8-shift)
		k := int64(b >> 2 & 15)
		switch b & 3 {
		case 0:
			return k * 7 // common ports
		case 1:
			return 1016 + k // around the common-port limit
		case 2:
			return 65535 - k // at the top of the range
		default:
			return 1024 + int64(b)*251
		}
	}
	for _, b := range rows {
		// A constant field keeps row 0's byte.
		pick := func(bit uint) byte {
			if constant&(1<<bit) != 0 {
				return rows[0]
			}
			return b
		}
		b0 := pick(0)
		row[0] = 0x0A000000 + int64(b0&0x3F) + int64(b0>>6)<<12
		b1 := pick(1)
		row[1] = int64(b1)<<24 | int64(b1*7)
		row[2] = port(pick(2), 1)
		row[3] = port(pick(3), 0)
		row[4] = tab.CatCode(4, fmt.Sprint("p", pick(4)%5))
		b5 := pick(5)
		row[5] = int64(int8(b5)) * int64(b5) * 37
		if b5 == 255 {
			row[5] = 1 << 40
		}
		b6 := pick(6)
		row[6] = int64(b6)*int64(b6)*13 - 4000
		if err := tab.AppendRow(row); err != nil {
			panic(err)
		}
	}
	return tab
}

// FuzzBuildEncode checks that the codes Build writes while binning are
// the ones Encode assigns, cell for cell, including where Code puts an
// IP address into a bin that does not contain it.
func FuzzBuildEncode(f *testing.F) {
	// Two heavy srcip addresses among light neighbours: at these
	// settings Code puts some light addresses outside their bins.
	heavy := []byte{0, 3}
	for i := 0; len(heavy) < 128; i++ {
		heavy = append(heavy, byte(i*i%97), 3, 3, 67, byte(i))
	}
	f.Add(heavy, uint8(31), 0.5, uint64(1))
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 250, 251, 252, 253, 254, 255}, uint8(2), 1.0, uint64(2))
	f.Add([]byte{0x7F, 3, 9, 9, 9, 9}, uint8(0), 0.01, uint64(3))
	f.Add([]byte{0x15, 5, 200, 1, 200, 2, 200, 3, 128, 129, 130}, uint8(255), 16.0, uint64(4))
	f.Fuzz(func(t *testing.T, data []byte, maxBins uint8, rho float64, seed uint64) {
		tab := fuzzTable(data)
		if tab == nil {
			return
		}
		if !(rho >= 1e-4 && rho <= 100) {
			rho = 0.05
		}
		cfg := DefaultConfig()
		cfg.MaxBinsPerAttr = 1 + int(maxBins)
		enc, encoded, err := Build(tab, cfg, rho, seed)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := enc.Encode(tab)
		if err != nil {
			t.Fatal(err)
		}
		for c := range ref.Cols {
			if encoded.Names[c] != ref.Names[c] || encoded.Domains[c] != ref.Domains[c] {
				t.Fatalf("attr %d: Build %s/%d, Encode %s/%d", c, encoded.Names[c], encoded.Domains[c], ref.Names[c], ref.Domains[c])
			}
			for r, want := range ref.Cols[c] {
				if got := encoded.Cols[c][r]; got != want {
					v := tab.Value(r, c)
					t.Fatalf("%s row %d value %d: Build code %d, Encode code %d (bins %v)",
						ref.Names[c], r, v, got, want, enc.Attrs[c].Bins)
				}
			}
		}
	})
}

// FuzzClusterRows checks the packed clustering against the map route
// it falls back to: data[0] picks 1–10 group columns, the next byte
// per column its domain (1–128, or a power of two up to 2^31, so code
// and row bits can pass 64), data[1] how many times (1–8) the rows
// repeat, and every further column-wide run of bytes one row of codes
// (254 is the domain itself and 255 is −1, both outside it). The
// packed route must run exactly when the rows pack, and then equal
// the map route cluster for cluster.
func FuzzClusterRows(f *testing.F) {
	f.Add([]byte{2, 3, 5, 9, 0, 1, 4, 2, 0, 1})
	f.Add([]byte{7, 0, 0x9f, 0x9f, 0x9f, 0x88, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{9, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{1, 0, 4, 4, 1, 254, 3})
	f.Add([]byte{0, 7, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ncols := 1 + int(data[0])%10
		repeat := 1 + int(data[1]&7)
		data = data[2:]
		if len(data) < ncols {
			return
		}
		domains := make([]int, ncols)
		for j, b := range data[:ncols] {
			if b&0x80 != 0 {
				domains[j] = 1 << (b & 31)
			} else {
				domains[j] = 1 + int(b)
			}
		}
		once := data[ncols:]
		once = once[:len(once)/ncols*ncols]
		if len(once) > 64*ncols {
			once = once[:64*ncols]
		}
		rowBytes := bytes.Repeat(once, repeat)
		n := len(rowBytes) / ncols
		cols := make([][]int32, ncols)
		inRange := true
		for j := range cols {
			cols[j] = make([]int32, n)
			for r := range n {
				switch b := rowBytes[r*ncols+j]; b {
				case 254:
					cols[j][r] = int32(domains[j])
				case 255:
					cols[j][r] = -1
				default:
					cols[j][r] = int32(int(b) % domains[j])
				}
				if c := cols[j][r]; c < 0 || int(c) >= domains[j] {
					inRange = false
				}
			}
		}
		keyBits := bits.Len(uint(n))
		for _, d := range domains {
			keyBits += bits.Len(uint(d - 1))
		}
		want := mapClusters(cols, n)
		got := packedClusters(cols, domains, n)
		if packs := ncols <= 8 && keyBits <= 64 && inRange; (got != nil) != packs {
			t.Fatalf("domains %v, %d rows, codes in range %v: packed route ran %v, want %v", domains, n, inRange, got != nil, packs)
		}
		if got == nil {
			return
		}
		if !slices.Equal(got.start, want.start) || !slices.Equal(got.rows, want.rows) {
			t.Fatalf("domains %v, %d rows: packed clusters %v/%v, map route %v/%v", domains, n, got.start, got.rows, want.start, want.rows)
		}
	})
}
