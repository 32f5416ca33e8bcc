package obstest

import (
	"strings"
	"testing"
)

func TestValidateAccepts(t *testing.T) {
	cases := map[string]string{
		"counter": `# HELP a_total things
# TYPE a_total counter
a_total 3
`,
		"labels and timestamp": `# TYPE g gauge
g{ds="1",kind="x"} 2.5 1712345678000
`,
		"free comment + blank line": `# scraped from somewhere

# TYPE g gauge
g 1
`,
		"histogram": `# TYPE h histogram
h_bucket{le="0.1"} 1
h_bucket{le="1"} 2
h_bucket{le="+Inf"} 4
h_sum 55.5
h_count 4
`,
		"histogram with base labels": `# TYPE h histogram
h_bucket{ds="a",le="1"} 0
h_bucket{ds="a",le="+Inf"} 1
h_sum{ds="a"} 2
h_count{ds="a"} 1
h_bucket{ds="b",le="1"} 3
h_bucket{ds="b",le="+Inf"} 3
h_sum{ds="b"} 0.5
h_count{ds="b"} 3
`,
		"escaped label value": `# TYPE g gauge
g{p="a\"b\\c\nd"} 1
`,
		"special values": `# TYPE g gauge
g{k="inf"} +Inf
g{k="nan"} NaN
g{k="neg"} -Inf
`,
	}
	for name, in := range cases {
		if err := ValidateExposition(strings.NewReader(in)); err != nil {
			t.Errorf("%s: unexpected error: %v", name, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]string{
		"bad metric name": `# TYPE 2bad gauge
`,
		"sample without TYPE": `orphan 1
`,
		"duplicate TYPE": `# TYPE g gauge
g 1
# TYPE g gauge
`,
		"non-contiguous family": `# TYPE a gauge
a 1
# TYPE b gauge
b 2
a{x="y"} 3
`,
		"duplicate series": `# TYPE g gauge
g{a="1"} 2
g{a="1"} 3
`,
		"negative counter": `# TYPE c_total counter
c_total -1
`,
		"missing value": `# TYPE g gauge
g{a="1"}
`,
		"bad value": `# TYPE g gauge
g three
`,
		"bad escape": `# TYPE g gauge
g{a="x\q"} 1
`,
		"unterminated label value": `# TYPE g gauge
g{a="x} 1
`,
		"bucket without le": `# TYPE h histogram
h_bucket 1
h_bucket{le="+Inf"} 1
h_sum 1
h_count 1
`,
		"plain histogram sample": `# TYPE h histogram
h 1
`,
		"non-cumulative buckets": `# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="2"} 3
h_bucket{le="+Inf"} 5
h_sum 1
h_count 5
`,
		"le not increasing": `# TYPE h histogram
h_bucket{le="2"} 1
h_bucket{le="1"} 2
h_bucket{le="+Inf"} 2
h_sum 1
h_count 2
`,
		"missing +Inf bucket": `# TYPE h histogram
h_bucket{le="1"} 1
h_sum 1
h_count 1
`,
		"count mismatch": `# TYPE h histogram
h_bucket{le="+Inf"} 4
h_sum 1
h_count 5
`,
		"missing sum": `# TYPE h histogram
h_bucket{le="+Inf"} 1
h_count 1
`,
		"bad timestamp": `# TYPE g gauge
g 1 not-a-ts
`,
	}
	for name, in := range cases {
		if err := ValidateExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error, got nil", name)
		}
	}
}
