package ledger

import (
	"fmt"
	"testing"
)

// Every leaf of every batch size up to 9 (covering unbalanced RFC 6962
// shapes) must prove into the root, and only at its own index.
func TestMerkleProofsAllSizes(t *testing.T) {
	for n := 1; n <= 9; n++ {
		var mb MerkleBatcher
		data := make([][]byte, n)
		for i := 0; i < n; i++ {
			data[i] = []byte(fmt.Sprintf("item-%d-of-%d", i, n))
			if got := mb.Add(data[i]); got != i {
				t.Fatalf("n=%d: Add returned index %d, want %d", n, got, i)
			}
		}
		root := mb.Root().Hex()
		for i := 0; i < n; i++ {
			p, err := mb.Proof(i)
			if err != nil {
				t.Fatalf("n=%d: Proof(%d): %v", n, i, err)
			}
			if !VerifyProof(data[i], p, root) {
				t.Fatalf("n=%d: proof for leaf %d does not verify", n, i)
			}
			// Same proof, wrong data: must fail.
			if VerifyProof([]byte("forged"), p, root) {
				t.Fatalf("n=%d: forged data verified at leaf %d", n, i)
			}
			// Same data, wrong index: must fail (except the trivial n=1).
			if n > 1 {
				wrong := p
				wrong.Index = (p.Index + 1) % n
				if VerifyProof(data[i], wrong, root) {
					t.Fatalf("n=%d: proof verified at wrong index", n)
				}
			}
		}
	}
}

func TestMerkleRootStability(t *testing.T) {
	build := func() string {
		var mb MerkleBatcher
		mb.Add([]byte("a"))
		mb.Add([]byte("b"))
		mb.Add([]byte("c"))
		return mb.Root().Hex()
	}
	if build() != build() {
		t.Fatal("same items produced different roots")
	}
	var mb MerkleBatcher
	mb.Add([]byte("b"))
	mb.Add([]byte("a"))
	mb.Add([]byte("c"))
	if mb.Root().Hex() == build() {
		t.Fatal("reordered items produced the same root")
	}
}

func TestMerkleEmptyAndReset(t *testing.T) {
	var mb MerkleBatcher
	empty := mb.Root()
	if empty == (Digest{}) {
		t.Fatal("empty root is the zero digest")
	}
	mb.Add([]byte("x"))
	if mb.Root() == empty {
		t.Fatal("one-item root equals empty root")
	}
	mb.Reset()
	if mb.Len() != 0 || mb.Root() != empty {
		t.Fatal("Reset did not restore the empty batch")
	}
	if _, err := mb.Proof(0); err == nil {
		t.Fatal("Proof on empty batch succeeded")
	}
}

// A single-leaf tree must not accept a padded path, and a multi-leaf
// proof must not verify with its path truncated — both are shapes a
// forger could try.
func TestMerkleProofShapeStrictness(t *testing.T) {
	var mb MerkleBatcher
	data := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}
	for _, d := range data {
		mb.Add(d)
	}
	root := mb.Root().Hex()
	p, err := mb.Proof(2)
	if err != nil {
		t.Fatal(err)
	}
	trunc := p
	trunc.Path = p.Path[:len(p.Path)-1]
	if VerifyProof(data[2], trunc, root) {
		t.Fatal("truncated path verified")
	}
	single := Proof{Index: 0, Leaves: 1, Path: p.Path}
	if VerifyProof(data[2], single, root) {
		t.Fatal("padded single-leaf proof verified")
	}
	if VerifyProof(data[2], p, "zz") {
		t.Fatal("malformed root hex verified")
	}
}

// Len returns the number of batched items.
func (m *MerkleBatcher) Len() int { return len(m.leaves) }

// Reset empties the batch, retaining capacity.
func (m *MerkleBatcher) Reset() { m.leaves = m.leaves[:0] }
