package anonymize

import (
	"testing"
	"testing/quick"
)

func testKey() []byte {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i*7 + 3)
	}
	return key
}

func TestNewValidation(t *testing.T) {
	if _, err := New(make([]byte, 16)); err == nil {
		t.Fatal("short key must error")
	}
	if _, err := New(testKey()); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministic(t *testing.T) {
	c1, _ := New(testKey())
	c2, _ := New(testKey())
	for _, a := range []uint32{0, 1, 0xC0A80101, 0xFFFFFFFF} {
		if c1.Anonymize(a) != c2.Anonymize(a) {
			t.Fatalf("same key, different mapping for %x", a)
		}
	}
}

func TestInjective(t *testing.T) {
	c, _ := New(testKey())
	seen := make(map[uint32]uint32)
	for a := uint32(0); a < 4096; a++ {
		out := c.Anonymize(a)
		if prev, dup := seen[out]; dup {
			t.Fatalf("collision: %x and %x both map to %x", prev, a, out)
		}
		seen[out] = a
	}
}

func TestPrefixPreservation(t *testing.T) {
	c, _ := New(testKey())
	// Same /24 stays same /24; different /8 diverges at the same bit.
	pairs := [][2]uint32{
		{0xC0A80101, 0xC0A80102}, // same /30-ish
		{0xC0A80101, 0xC0A8FF01}, // same /16
		{0x0A000001, 0xC0000001}, // differ at first bits
	}
	for _, p := range pairs {
		if !PrefixPreserved(c, p[0], p[1]) {
			t.Errorf("prefix not preserved for %x, %x", p[0], p[1])
		}
	}
}

func TestPrefixPreservationProperty(t *testing.T) {
	c, _ := New(testKey())
	f := func(a, b uint32) bool {
		return PrefixPreserved(c, a, b)
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCommonPrefixLen(t *testing.T) {
	if commonPrefixLen(0, 0) != 32 {
		t.Error("identical addresses share 32 bits")
	}
	if commonPrefixLen(0, 0x80000000) != 0 {
		t.Error("MSB differs → 0")
	}
	if commonPrefixLen(0xC0A80000, 0xC0A80001) != 31 {
		t.Error("want 31")
	}
}
