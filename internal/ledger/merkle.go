package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Digest is a SHA-256 digest.
type Digest [32]byte

// Hex renders the digest as 64 lowercase hex characters.
func (d Digest) Hex() string { return hex.EncodeToString(d[:]) }

// Sum hashes raw bytes.
func Sum(b []byte) Digest { return Digest(sha256.Sum256(b)) }

// ParseDigest parses a 64-character hex digest.
func ParseDigest(s string) (Digest, error) {
	var d Digest
	if len(s) != 64 {
		return d, fmt.Errorf("ledger: digest %q: want 64 hex chars, got %d", s, len(s))
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return d, fmt.Errorf("ledger: digest %q: %w", s, err)
	}
	copy(d[:], b)
	return d, nil
}

// Domain-separation prefixes (RFC 6962 style): a leaf hash can never
// collide with an interior node hash, so a forged "leaf" that is really
// a subtree root does not verify.
const (
	leafPrefix = 0x00
	nodePrefix = 0x01
)

func leafHash(data []byte) Digest {
	h := sha256.New()
	h.Write([]byte{leafPrefix})
	h.Write(data)
	var d Digest
	h.Sum(d[:0])
	return d
}

func nodeHash(l, r Digest) Digest {
	h := sha256.New()
	h.Write([]byte{nodePrefix})
	h.Write(l[:])
	h.Write(r[:])
	var d Digest
	h.Sum(d[:0])
	return d
}

// emptyRoot is the defined root of a zero-item batch.
var emptyRoot = Sum([]byte("nwdeploy-ledger:empty"))

// splitPoint returns the largest power of two strictly less than n
// (n >= 2) — the RFC 6962 tree split.
func splitPoint(n int) int {
	k := 1
	for k*2 < n {
		k *= 2
	}
	return k
}

func subRoot(leaves []Digest) Digest {
	switch len(leaves) {
	case 0:
		return emptyRoot
	case 1:
		return leaves[0]
	}
	k := splitPoint(len(leaves))
	return nodeHash(subRoot(leaves[:k]), subRoot(leaves[k:]))
}

// MerkleBatcher accumulates items into an RFC 6962-shaped Merkle tree
// and answers per-item inclusion proofs. The zero value is an empty
// batch; Reset makes it reusable across records without reallocating.
type MerkleBatcher struct {
	leaves []Digest
}

// Add hashes one item's canonical bytes into the batch and returns its
// leaf index.
func (m *MerkleBatcher) Add(data []byte) int {
	m.leaves = append(m.leaves, leafHash(data))
	return len(m.leaves) - 1
}

// Root computes the batch's Merkle root (emptyRoot for no items, the
// leaf hash itself for one).
func (m *MerkleBatcher) Root() Digest { return subRoot(m.leaves) }

// Proof is a Merkle audit path for one leaf: the sibling subtree roots
// from the leaf to the root, leaf-first. Together with the leaf's
// canonical bytes it reproduces the root and nothing else — ~32 bytes
// per tree level, independent of the other items' sizes.
type Proof struct {
	// Index is the proven leaf's position; Leaves is the batch size the
	// proof was built against (the path shape depends on both).
	Index  int      `json:"index"`
	Leaves int      `json:"leaves"`
	Path   []string `json:"path,omitempty"`
}

// Proof returns the inclusion proof for leaf i.
func (m *MerkleBatcher) Proof(i int) (Proof, error) {
	if i < 0 || i >= len(m.leaves) {
		return Proof{}, fmt.Errorf("ledger: proof index %d out of range [0,%d)", i, len(m.leaves))
	}
	path := auditPath(m.leaves, i)
	p := Proof{Index: i, Leaves: len(m.leaves), Path: make([]string, len(path))}
	for j, d := range path {
		p.Path[j] = d.Hex()
	}
	return p, nil
}

func auditPath(leaves []Digest, i int) []Digest {
	if len(leaves) <= 1 {
		return nil
	}
	k := splitPoint(len(leaves))
	if i < k {
		return append(auditPath(leaves[:k], i), subRoot(leaves[k:]))
	}
	return append(auditPath(leaves[k:], i-k), subRoot(leaves[:k]))
}

// VerifyProof checks that data's leaf, walked up the audit path, lands
// on root (a 64-char hex digest). It is the offline half of the batch:
// a verifier needs only the item bytes, the proof, and the committed
// root.
func VerifyProof(data []byte, p Proof, rootHex string) bool {
	want, err := ParseDigest(rootHex)
	if err != nil {
		return false
	}
	got, ok := rootFromPath(leafHash(data), p.Index, p.Leaves, p.Path)
	return ok && got == want
}

func rootFromPath(leaf Digest, i, n int, path []string) (Digest, bool) {
	if i < 0 || n < 1 || i >= n {
		return Digest{}, false
	}
	if n == 1 {
		if len(path) != 0 {
			return Digest{}, false
		}
		return leaf, true
	}
	if len(path) == 0 {
		return Digest{}, false
	}
	sib, err := ParseDigest(path[len(path)-1])
	if err != nil {
		return Digest{}, false
	}
	k := splitPoint(n)
	if i < k {
		sub, ok := rootFromPath(leaf, i, k, path[:len(path)-1])
		if !ok {
			return Digest{}, false
		}
		return nodeHash(sub, sib), true
	}
	sub, ok := rootFromPath(leaf, i-k, n-k, path[:len(path)-1])
	if !ok {
		return Digest{}, false
	}
	return nodeHash(sib, sub), true
}
