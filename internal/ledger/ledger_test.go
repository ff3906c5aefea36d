package ledger

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// buildChain commits a small, fixed sequence of records (with inline and
// off-chain items) against the given seed and returns the ledger.
func buildChain(t *testing.T, seed int64, store Store) *Ledger {
	t.Helper()
	l := New(Options{Seed: seed, Store: store})
	b := l.Begin(RecPublish, 1)
	b.Blob(ItemManifest, "node/0", []byte(`{"node":0,"ranges":[[0,0.5]]}`), nil)
	b.Blob(ItemManifest, "node/1", []byte(`{"node":1,"ranges":[[0.5,1]]}`), nil)
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	l.SetRun(1)
	b = l.Begin(RecEpoch, 1)
	var e Enc
	e.F64(0.97)
	e.F64(0.99)
	data, err := e.Finish()
	b.Item(ItemVerdict, "coverage", data, err)
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	b = l.Begin(RecShed, 2)
	b.Item(ItemShed, "node/1", []byte(`[{"class":0,"unit":[1,2]}]`), nil)
	b.Blob(ItemManifest, "node/0", []byte(`{"node":0,"ranges":[[0,0.5]]}`), nil) // dedups
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestChainDeterministicAcrossProcessesShape(t *testing.T) {
	a := buildChain(t, 42, NewMemStore())
	b := buildChain(t, 42, NewMemStore())
	if !bytes.Equal(a.Chain(), b.Chain()) {
		t.Fatal("same seed and commit sequence produced different chains")
	}
	if a.HeadHex() != b.HeadHex() {
		t.Fatal("same seed produced different heads")
	}
	c := buildChain(t, 43, NewMemStore())
	if a.HeadHex() == c.HeadHex() {
		t.Fatal("different seeds produced the same head")
	}
}

func TestVerifyChainAcceptsValid(t *testing.T) {
	store := NewMemStore()
	l := buildChain(t, 7, store)
	sum, err := VerifyChain(l.Chain(), VerifyOptions{
		Head: l.HeadHex(), GenesisPrev: GenesisHex(7), Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Records != 3 || sum.Blobs != 3 || sum.Items != 5 {
		t.Fatalf("summary = %+v, want 3 records / 3 blob refs / 5 items", sum)
	}
	if store.Len() != 2 {
		t.Fatalf("store holds %d blobs, want 2 (identical manifest deduplicated)", store.Len())
	}
	if sum.Head != l.HeadHex() {
		t.Fatalf("summary head %s != ledger head %s", sum.Head, l.HeadHex())
	}
	// Wrong anchors must fail.
	if _, err := VerifyChain(l.Chain(), VerifyOptions{Head: GenesisHex(7), Store: store}); err == nil {
		t.Fatal("wrong pinned head accepted")
	}
	if _, err := VerifyChain(l.Chain(), VerifyOptions{GenesisPrev: GenesisHex(8), Store: store}); err == nil {
		t.Fatal("wrong genesis accepted")
	}
}

// A record of several inline items — here per-node attestations, each an
// Ints list — must verify in the chain, and each item must decode and prove
// on its own.
func TestVerifyChainInlineItemsProve(t *testing.T) {
	store := NewMemStore()
	l := buildChain(t, 13, store)
	lists := [][]int{{0, 1, 4}, {2, 3}}
	b := l.Begin(RecEpoch, 2)
	for node, ints := range lists {
		var e Enc
		e.Ints(ints)
		data, err := e.Finish()
		b.Item(ItemAttest, fmt.Sprintf("node/%d", node), data, err)
	}
	rec, err := b.Commit()
	if err != nil {
		t.Fatal(err)
	}
	sum, err := VerifyChain(l.Chain(), VerifyOptions{
		Head: l.HeadHex(), GenesisPrev: GenesisHex(13), Store: store,
	})
	if err != nil {
		t.Fatalf("chain with an inline-items record rejected: %v", err)
	}
	if sum.Records != 4 {
		t.Fatalf("verified %d records, want 4", sum.Records)
	}
	for i, it := range rec.Items {
		d := NewDec(it.Data)
		ints := d.Ints()
		if err := d.Done(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ints, lists[i]) {
			t.Fatalf("item %d decodes to %v, want %v", i, ints, lists[i])
		}
		p, err := RecordProof(rec, i)
		if err != nil {
			t.Fatal(err)
		}
		if !VerifyItem(rec, i, p) {
			t.Fatalf("item %d proof does not verify", i)
		}
	}
}

// The verifier's kinds are a closed set: a record of a retired kind, such
// as the two-tier hierarchy's "regions", fails verification.
func TestVerifyChainRejectsRetiredKind(t *testing.T) {
	store := NewMemStore()
	l := buildChain(t, 13, store)
	b := l.Begin("regions", 2)
	b.Item("region", "region/0", []byte{1}, nil)
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyChain(l.Chain(), VerifyOptions{Store: store}); err == nil || !strings.Contains(err.Error(), `unknown kind "regions"`) {
		t.Fatalf("chain with a regions record: err = %v, want unknown kind", err)
	}
}

// The core tamper guarantee: flipping any single byte anywhere — any
// chain line or any stored blob — must fail verification against the
// pinned head.
func TestVerifyDetectsEveryByteFlip(t *testing.T) {
	store := NewMemStore()
	l := buildChain(t, 11, store)
	chain := l.Chain()
	head := l.HeadHex()
	opts := func(s Store) VerifyOptions {
		return VerifyOptions{Head: head, GenesisPrev: GenesisHex(11), Store: s}
	}
	if _, err := VerifyChain(chain, opts(store)); err != nil {
		t.Fatalf("pristine chain rejected: %v", err)
	}
	for i := range chain {
		mut := append([]byte(nil), chain...)
		mut[i] ^= 0x40
		if _, err := VerifyChain(mut, opts(store)); err == nil {
			t.Fatalf("byte flip at chain offset %d went undetected", i)
		}
	}
	for _, ref := range store.Digests() {
		blob, err := store.Get(ref)
		if err != nil {
			t.Fatal(err)
		}
		for i := range blob {
			tampered := NewMemStore()
			for _, r := range store.Digests() {
				b, _ := store.Get(r)
				if r == ref {
					b[i] ^= 0x40
				}
				tampered.m[r] = b // bypass Put: file tampered bytes under the old ref
			}
			if _, err := VerifyChain(chain, opts(tampered)); err == nil {
				t.Fatalf("byte flip at offset %d of blob %s went undetected", i, ref)
			}
		}
	}
	// Truncating the chain must also fail against the pinned head.
	lines := bytes.SplitAfter(chain, []byte("\n"))
	if _, err := VerifyChain(bytes.Join(lines[:2], nil), opts(store)); err == nil {
		t.Fatal("truncated chain accepted")
	}
}

func TestEncRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var e Enc
		e.U64(1)
		e.F64(v)
		e.Str("after") // encoding continues but stays poisoned
		if _, err := e.Finish(); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("F64(%v): Finish err = %v, want ErrNonFinite", v, err)
		}
	}
	var e Enc
	e.F64(0.25)
	if _, err := e.Finish(); err != nil {
		t.Fatalf("finite float rejected: %v", err)
	}
}

func TestEncDecRoundTrip(t *testing.T) {
	var e Enc
	e.U64(77)
	e.I64(-5)
	e.Bool(true)
	e.F64(0.125)
	e.Str("hello")
	e.Bytes([]byte{1, 2, 3})
	e.Ints([]int{4, -6, 8})
	e.Strs([]string{"a", "bb"})
	e.U64s([]uint64{9, 10})
	b, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	d := NewDec(b)
	if d.U64() != 77 || d.I64() != -5 || !d.Bool() || d.F64() != 0.125 {
		t.Fatal("scalar round trip mismatch")
	}
	if d.Str() != "hello" || !bytes.Equal(d.Bytes(), []byte{1, 2, 3}) {
		t.Fatal("string/bytes round trip mismatch")
	}
	ints := d.Ints()
	if len(ints) != 3 || ints[0] != 4 || ints[1] != -6 || ints[2] != 8 {
		t.Fatalf("ints round trip mismatch: %v", ints)
	}
	strs := d.Strs()
	if len(strs) != 2 || strs[0] != "a" || strs[1] != "bb" {
		t.Fatalf("strs round trip mismatch: %v", strs)
	}
	u := d.U64s()
	if len(u) != 2 || u[0] != 9 || u[1] != 10 {
		t.Fatalf("u64s round trip mismatch: %v", u)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if err := NewDec(b[:len(b)-1]).Err(); err != nil {
		t.Fatal("fresh decoder should have no error yet")
	}
	short := NewDec(b[:3])
	short.U64()
	if short.Err() == nil {
		t.Fatal("truncated decode not detected")
	}
}

func TestBatchErrorPoisonsLedger(t *testing.T) {
	l := New(Options{Seed: 1})
	b := l.Begin(RecEpoch, 1)
	var e Enc
	e.F64(math.NaN())
	data, err := e.Finish()
	b.Item(ItemVerdict, "coverage", data, err)
	if _, cerr := b.Commit(); !errors.Is(cerr, ErrNonFinite) {
		t.Fatalf("Commit err = %v, want ErrNonFinite", cerr)
	}
	if !errors.Is(l.Err(), ErrNonFinite) {
		t.Fatalf("Ledger.Err = %v, want ErrNonFinite", l.Err())
	}
	if l.Len() != 0 {
		t.Fatal("poisoned batch was sealed")
	}
}

func TestNilLedgerIsNoOp(t *testing.T) {
	var l *Ledger
	l.SetRun(3)
	if l.HeadHex() != "" || l.Len() != 0 || l.Err() != nil || l.Chain() != nil || l.Records() != nil {
		t.Fatal("nil ledger accessors not zero")
	}
	b := l.Begin(RecEpoch, 1)
	b.Item(ItemVerdict, "x", []byte("y"), nil)
	b.Blob(ItemTrace, "z", []byte("w"), nil)
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	c, ns, bb := l.Stats()
	if c != 0 || ns != 0 || bb != 0 {
		t.Fatal("nil ledger stats not zero")
	}
}

func TestRecordProofAndRunStamp(t *testing.T) {
	store := NewMemStore()
	l := buildChain(t, 9, store)
	recs := l.Records()
	if recs[0].Run != 0 || recs[1].Run != 1 || recs[2].Run != 1 {
		t.Fatalf("run stamps = %d,%d,%d, want 0,1,1", recs[0].Run, recs[1].Run, recs[2].Run)
	}
	rec := recs[0]
	for i := range rec.Items {
		p, err := RecordProof(rec, i)
		if err != nil {
			t.Fatal(err)
		}
		if !VerifyItem(rec, i, p) {
			t.Fatalf("item %d proof does not verify", i)
		}
		other := (i + 1) % len(rec.Items)
		if VerifyItem(rec, other, p) {
			t.Fatal("proof verified against the wrong item")
		}
	}
	if _, err := RecordProof(rec, len(rec.Items)); err == nil {
		t.Fatal("out-of-range proof succeeded")
	}
}

func TestDirStore(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := s.Put([]byte("blob-content"))
	if err != nil {
		t.Fatal(err)
	}
	if ref != Sum([]byte("blob-content")).Hex() {
		t.Fatal("ref is not the content digest")
	}
	if ref2, err := s.Put([]byte("blob-content")); err != nil || ref2 != ref {
		t.Fatalf("re-put: %s, %v", ref2, err)
	}
	got, err := s.Get(ref)
	if err != nil || !bytes.Equal(got, []byte("blob-content")) {
		t.Fatalf("get: %q, %v", got, err)
	}
	if _, err := s.Get(Sum([]byte("missing")).Hex()); err == nil {
		t.Fatal("missing blob found")
	}
	if _, err := s.Get("nothex"); err == nil {
		t.Fatal("malformed ref accepted")
	}
	if _, err := os.Stat(filepath.Join(dir, ref[:2], ref)); err != nil {
		t.Fatalf("blob not at content address: %v", err)
	}
}

// A ledger streaming to a sink writes exactly the bytes Chain() holds.
func TestSinkMatchesChain(t *testing.T) {
	var buf bytes.Buffer
	l := New(Options{Seed: 3, Sink: &buf})
	b := l.Begin(RecPublish, 1)
	b.Item(ItemShed, "node/0", []byte("x"), nil)
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), l.Chain()) {
		t.Fatal("sink bytes differ from Chain()")
	}
}

// Digests returns the stored digests in unspecified order.
func (s *MemStore) Digests() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.m))
	for d := range s.m {
		out = append(out, d)
	}
	return out
}

// Len returns the number of sealed records.
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}
