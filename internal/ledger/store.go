package ledger

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Store is content-addressed blob storage: Put hashes the bytes and
// files them under their own SHA-256 hex digest, deduplicating identical
// content (unchanged manifests across epochs cost one blob, not one per
// epoch). Get returns the bytes for a digest. Implementations must store
// content verbatim — the verifier re-hashes every referenced blob.
type Store interface {
	Put(data []byte) (string, error)
	Get(hexDigest string) ([]byte, error)
}

// MemStore is an in-memory Store for tests and benches.
type MemStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{m: make(map[string][]byte)} }

// Put files a copy of data under its digest.
func (s *MemStore) Put(data []byte) (string, error) {
	ref := Sum(data).Hex()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[ref]; !ok {
		s.m[ref] = append([]byte(nil), data...)
	}
	return ref, nil
}

// Get returns a copy of the blob for a digest.
func (s *MemStore) Get(hexDigest string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[hexDigest]
	if !ok {
		return nil, fmt.Errorf("ledger: blob %s not found", hexDigest)
	}
	return append([]byte(nil), b...), nil
}

// DirStore files blobs on disk under dir as <hex[:2]>/<hex> — the
// objects/ directory of an on-disk ledger.
type DirStore struct {
	dir string
}

// NewDirStore creates (if needed) and wraps an objects directory.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: store dir: %w", err)
	}
	return &DirStore{dir: dir}, nil
}

func (s *DirStore) path(ref string) string {
	return filepath.Join(s.dir, ref[:2], ref)
}

// Put writes the blob to its content address, skipping the write when a
// blob with that digest already exists.
func (s *DirStore) Put(data []byte) (string, error) {
	ref := Sum(data).Hex()
	p := s.path(ref)
	if _, err := os.Stat(p); err == nil {
		return ref, nil
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return "", fmt.Errorf("ledger: store put: %w", err)
	}
	if err := os.WriteFile(p, data, 0o644); err != nil {
		return "", fmt.Errorf("ledger: store put: %w", err)
	}
	return ref, nil
}

// Get reads the blob at a content address.
func (s *DirStore) Get(hexDigest string) ([]byte, error) {
	if len(hexDigest) != 64 {
		return nil, fmt.Errorf("ledger: blob ref %q: want 64 hex chars", hexDigest)
	}
	b, err := os.ReadFile(s.path(hexDigest))
	if err != nil {
		return nil, fmt.Errorf("ledger: blob %s: %w", hexDigest, err)
	}
	return b, nil
}

// Len returns the number of distinct blobs stored.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}
