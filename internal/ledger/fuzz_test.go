package ledger

import (
	"bytes"
	"testing"
)

// FuzzVerifyChain feeds VerifyChain arbitrary bytes as a chain, against
// buildChain's pinned head, genesis and store: it must never panic. It also
// flips byte off (modulo the length) of buildChain's valid chain by x, and
// with Head pinned any single-byte change must fail verification: every
// line's digest is the next line's prev, and the last line's is the head.
func FuzzVerifyChain(f *testing.F) {
	store := NewMemStore()
	l := buildChain(f, 3, store)
	chain := l.Chain()
	opts := VerifyOptions{Head: l.HeadHex(), GenesisPrev: GenesisHex(3), Store: store}
	if _, err := VerifyChain(chain, opts); err != nil {
		f.Fatalf("the valid chain fails: %v", err)
	}
	f.Add(chain, uint16(0), byte(0x40))
	f.Add(chain, uint16(len(chain)-1), byte(0x2a)) // the last newline becomes a space
	f.Add(chain[:len(chain)/2], uint16(len(chain)/2), byte(1))
	f.Add([]byte("{}\n"), uint16(0), byte(0))

	f.Fuzz(func(t *testing.T, data []byte, off uint16, x byte) {
		_, _ = VerifyChain(data, opts)
		if x == 0 {
			return
		}
		mut := bytes.Clone(chain)
		i := int(off) % len(mut)
		mut[i] ^= x
		if _, err := VerifyChain(mut, opts); err == nil {
			t.Fatalf("byte %d changed from %#x to %#x, and the chain still verifies", i, chain[i], mut[i])
		}
	})
}
