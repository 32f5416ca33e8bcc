package obstest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzValidateExposition throws arbitrary text at the exposition
// grammar checker. The property is totality: whatever the input, it
// must return (an error or nil) without panicking — the daemon runs it
// against every /metrics scrape in tests, and CI runs this fuzzer as a
// smoke pass, so a crash here is a crash in the observability path.
// Seeded with the obs package's golden exposition plus the grammar's
// edge shapes (histogram contracts, duplicate TYPE lines, torn lines).
func FuzzValidateExposition(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "testdata", "exposition.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(golden))
	for _, seed := range []string{
		"",
		"# HELP a b\n# TYPE a counter\na 1\n",
		"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 0\nh_count 1\n",
		"# TYPE h histogram\nh_bucket{le=\"0.5\"} 2\nh_bucket{le=\"+Inf\"} 1\n",
		"a{l=\"x\"} NaN\n",
		"# TYPE a counter\n# TYPE a counter\n",
		"a 1 2 3\n",
		"{} 1\n",
		"a{l=\"\\\"\"} 1\n",
		"a{l=\"unterminated} 1\n",
		"# TYPE a gauge\nb 1\na{} 1\n",
		strings.Repeat("m", 4096) + " 1\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		_ = ValidateExposition(strings.NewReader(input))
	})
}
