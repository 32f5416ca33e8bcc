// Package anonymize implements CryptoPAn-style prefix-preserving IP
// address anonymization (Xu et al., ICNP'02), the conventional
// redaction technique the paper contrasts with DP synthesis (§2.1):
// two addresses sharing a k-bit prefix map to anonymized addresses
// sharing a k-bit prefix, which preserves subnet structure — and is
// exactly why it remains vulnerable to linkage attacks when an
// institution's prefix carries sensitive activity.
package anonymize

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
)

// CryptoPAn is a deterministic prefix-preserving anonymizer keyed by
// a 32-byte secret (16 bytes AES key, 16 bytes padding block).
type CryptoPAn struct {
	block cipher.Block
	pad   [16]byte
}

// New creates a CryptoPAn anonymizer from a 32-byte key.
func New(key []byte) (*CryptoPAn, error) {
	if len(key) != 32 {
		return nil, fmt.Errorf("anonymize: key must be 32 bytes, got %d", len(key))
	}
	block, err := aes.NewCipher(key[:16])
	if err != nil {
		return nil, err
	}
	c := &CryptoPAn{block: block}
	// The padding block is itself encrypted, as in the reference
	// implementation.
	var padIn [16]byte
	copy(padIn[:], key[16:])
	c.block.Encrypt(c.pad[:], padIn[:])
	return c, nil
}

// Anonymize maps an IPv4 address (uint32) to its prefix-preserving
// anonymized form: for every bit position i, the i-bit prefix of the
// input determines a pseudorandom flip bit via one AES invocation.
func (c *CryptoPAn) Anonymize(addr uint32) uint32 {
	var result uint32
	var input [16]byte
	for pos := 0; pos < 32; pos++ {
		copy(input[:], c.pad[:])
		// First pos bits from the original address, the rest from
		// the padding.
		if pos > 0 {
			mask := uint32(0xFFFFFFFF) << (32 - pos)
			prefixed := (addr & mask) | (padAsUint32(c.pad) & ^mask)
			putUint32(input[:4], prefixed)
		}
		var out [16]byte
		c.block.Encrypt(out[:], input[:])
		flip := uint32(out[0]) >> 7 // most significant bit
		result |= flip << (31 - pos)
	}
	return result ^ addr
}

func padAsUint32(pad [16]byte) uint32 {
	return uint32(pad[0])<<24 | uint32(pad[1])<<16 | uint32(pad[2])<<8 | uint32(pad[3])
}

func putUint32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}

// PrefixPreserved verifies the defining property for a pair of
// addresses: the anonymized pair shares exactly as long a common
// prefix as the original pair. Used by tests and as executable
// documentation.
func PrefixPreserved(c *CryptoPAn, a, b uint32) bool {
	return commonPrefixLen(a, b) == commonPrefixLen(c.Anonymize(a), c.Anonymize(b))
}

func commonPrefixLen(a, b uint32) int {
	x := a ^ b
	n := 0
	for n < 32 && x&0x80000000 == 0 {
		x <<= 1
		n++
	}
	return n
}
