package main

import (
	"strings"
	"testing"

	netdpsyn "github.com/netdpsyn/netdpsyn"
)

const resultCSV = `srcip,dstip,srcport,dstport,proto,ts,td,pkt,byt,type
10.0.0.1,10.0.0.2,1234,80,TCP,5,10,2,100,normal
10.0.0.3,10.0.0.4,4444,22,TCP,9,30,4,400,password
`

func TestVerifyResult(t *testing.T) {
	schema := netdpsyn.FlowSchema("type")
	domain := map[string]bool{"normal": true, "password": true, "ddos": true}
	if _, err := verifyResult([]byte(resultCSV), schema, 2, domain); err != nil {
		t.Fatalf("a good result failed verification: %v", err)
	}
	for name, tc := range map[string]struct {
		body   string
		rows   int
		domain map[string]bool
		want   string
	}{
		"wrong row count": {resultCSV, 3, domain, "holds 2 rows"},
		"foreign label":   {resultCSV, 2, map[string]bool{"normal": true}, `"password" is outside`},
		"missing column":  {strings.Replace(resultCSV, ",type", ",kind", 1), 2, domain, "does not load"},
		"torn row":        {resultCSV + "10.0.0.5,10.0.0.6\n", 3, domain, "does not load"},
	} {
		_, err := verifyResult([]byte(tc.body), schema, tc.rows, tc.domain)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, tc.want)
		}
	}
}

func TestVerifySpend(t *testing.T) {
	rho, err := netdpsyn.RhoFromEpsDelta(1, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	// The ledger sums ρ one admission at a time; a product of the same
	// count must agree within the tolerance.
	var sum float64
	for i := 0; i < 187; i++ {
		sum += rho
	}
	if err := verifySpend(sum, 187*rho); err != nil {
		t.Fatalf("floating-point summation order failed verification: %v", err)
	}
	if err := verifySpend(sum, 186*rho); err == nil {
		t.Fatal("a spend one release short passed verification")
	}
	if err := verifySpend(rho, 2*rho); err == nil {
		t.Fatal("parallel composition mistaken for sequential passed verification")
	}
}
