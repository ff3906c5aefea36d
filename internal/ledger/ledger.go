// Package ledger is the deployment's tamper-evident audit log: a
// hash-chained sequence of Merkle-committed records proving, after the
// fact, which node was responsible for which hash range at every epoch
// and that shed decisions never breached the coverage floor.
//
// Each Record batches a commit's items (canonical manifest encodings,
// shed decisions, coverage verdicts, governor attestations) under a
// Merkle root and chains to the previous record by the SHA-256 digest of
// its raw JSONL line. Bulk payloads are stored off-chain in a
// content-addressed Store and referenced on-chain by digest, so the chain
// itself stays small while every referenced byte remains covered by the
// head digest.
//
// Like internal/trace, the ledger is deterministic from the run seed:
// record IDs derive from (seed, sequence) via parallel.SplitSeed, records
// contain only logical quantities (never wall-clock time), and commits
// happen on the serial epoch loop — so two processes running the same
// seeded scenario produce byte-identical chains. The chain head is the
// run's single trust anchor: externally pin it (the HEAD file, a trace
// dump header, a log line) and any single-byte mutation anywhere in the
// history — chain or off-chain blob — becomes detectable offline by
// cmd/auditcheck.
//
// A nil *Ledger is a no-op everywhere, mirroring the nil-registry and
// nil-tracer conventions: instrumented code calls it unconditionally, and
// runs without a ledger behave identically to runs with one (the
// non-interference contract, tested in internal/cluster).
package ledger

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"nwdeploy/internal/parallel"
)

// Record kinds. The verifier rejects chains containing any other kind.
const (
	// RecPublish commits the full post-publish manifest set after a
	// Controller.UpdatePlan (one off-chain manifest blob per node).
	RecPublish = "publish"
	// RecShed commits the post-shed manifest set plus the inline shed
	// decisions after a Controller.PublishShed.
	RecShed = "shed"
	// RecEpoch commits a runtime epoch's coverage verdict (and, under the
	// governor, per-node floor attestations).
	RecEpoch = "epoch"
	// RecRegions committed a two-tier hierarchy's region-to-nodes
	// partition. Nothing writes it any more; the kind (and ItemRegion) stay
	// known so a chain recorded by an older build still verifies.
	RecRegions = "regions"
	// RecTrace commits a flight-recorder JSONL dump as an off-chain blob.
	RecTrace = "trace"
)

// Item kinds within records.
const (
	ItemManifest = "manifest" // off-chain canonical manifest (blob ref)
	ItemShed     = "shed"     // inline canonical shed assignment set
	ItemVerdict  = "verdict"  // inline coverage/SLO verdict (canonical binary)
	ItemAttest   = "attest"   // inline governor floor attestation
	ItemRegion   = "region"   // inline region member list
	ItemTrace    = "trace"    // off-chain trace JSONL dump (blob ref)
)

// KnownRecordKinds returns the closed set of valid Record.Kind values.
func KnownRecordKinds() map[string]bool {
	return map[string]bool{
		RecPublish: true, RecShed: true, RecEpoch: true,
		RecRegions: true, RecTrace: true,
	}
}

// ItemRef is one committed item: either inline (Data) or off-chain (Ref,
// the SHA-256 hex of the blob in the content-addressed store). Exactly
// one of Data/Ref is set. The Merkle leaf covers kind, key, inline data,
// and ref, so an off-chain blob is bound to the chain through its digest.
type ItemRef struct {
	Kind string `json:"kind"`
	Key  string `json:"key"`
	Data []byte `json:"data,omitempty"`
	Ref  string `json:"ref,omitempty"`
}

// LeafBytes is the canonical Merkle-leaf encoding of an item. It never
// fails: items carry opaque bytes, not floats.
func LeafBytes(it ItemRef) []byte {
	var e Enc
	e.Str(it.Kind)
	e.Str(it.Key)
	e.Bytes(it.Data)
	e.Str(it.Ref)
	b, _ := e.Finish()
	return b
}

// Record is one sealed chain entry. Its digest — the SHA-256 of its raw
// JSONL line — is what the next record's Prev and the chain head commit
// to, so every byte of the line (including Seq, ID, and Run) is covered.
type Record struct {
	// Seq is the record's position in the chain, from 0.
	Seq int `json:"seq"`
	// Kind is one of the Rec* constants.
	Kind string `json:"kind"`
	// Epoch is the controller configuration generation at commit time.
	Epoch uint64 `json:"epoch"`
	// Run is the runtime (chaos/overload) epoch at commit time; 0 marks
	// setup commits before the first epoch.
	Run int `json:"run,omitempty"`
	// ID is the seed-derived record identity: hex of
	// parallel.SplitSeed(seed, Seq), like internal/trace IDs.
	ID string `json:"id"`
	// Prev is the hex digest of the previous record's line; the first
	// record chains to the seed-derived genesis digest (GenesisHex).
	Prev string `json:"prev"`
	// Root is the Merkle root over Items (emptyRoot for none).
	Root  string    `json:"root"`
	Items []ItemRef `json:"items,omitempty"`
}

// Options configures a Ledger.
type Options struct {
	// Seed derives record IDs and the genesis digest. Same seed and same
	// commit sequence mean a byte-identical chain.
	Seed int64
	// Store holds off-chain blobs (nil selects a fresh in-memory store).
	Store Store
	// Sink, when non-nil, receives each sealed record line (with trailing
	// newline) as it is committed — the streaming chain.jsonl writer.
	Sink io.Writer
}

// Ledger is an append-only, hash-chained record log. All methods are
// safe on a nil receiver (no-ops returning zero values), so callers
// never guard their instrumentation.
type Ledger struct {
	mu    sync.Mutex
	seed  int64
	store Store
	sink  io.Writer
	run   int
	recs  []Record
	chain []byte // concatenated sealed lines, each newline-terminated
	head  Digest
	err   error

	commits  int
	commitNS int64
	blobIn   int64
}

// New builds an empty ledger whose head is the seed's genesis digest.
func New(o Options) *Ledger {
	st := o.Store
	if st == nil {
		st = NewMemStore()
	}
	return &Ledger{seed: o.Seed, store: st, sink: o.Sink, head: genesisDigest(o.Seed)}
}

func genesisDigest(seed int64) Digest {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	return Sum(append([]byte("nwdeploy-ledger:genesis:"), b[:]...))
}

// GenesisHex returns the Prev digest of a seed's first record — what an
// offline verifier given the run seed checks the chain starts from.
func GenesisHex(seed int64) string { return genesisDigest(seed).Hex() }

// SetRun stamps subsequent records with the current runtime epoch.
func (l *Ledger) SetRun(epoch int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.run = epoch
	l.mu.Unlock()
}

// Head returns the current chain head digest (genesis when empty).
func (l *Ledger) Head() Digest {
	if l == nil {
		return Digest{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head
}

// HeadHex returns the chain head as hex, or "" on a nil ledger. It is
// the shape trace.Tracer.SetChainHead expects.
func (l *Ledger) HeadHex() string {
	if l == nil {
		return ""
	}
	return l.Head().Hex()
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

// Records returns a copy of the sealed records.
func (l *Ledger) Records() []Record {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Record(nil), l.recs...)
}

// Chain returns the raw chain bytes: every sealed JSONL line in order.
func (l *Ledger) Chain() []byte {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]byte(nil), l.chain...)
}

// Store returns the ledger's content-addressed blob store.
func (l *Ledger) Store() Store {
	if l == nil {
		return nil
	}
	return l.store
}

// Err returns the first commit error (canonical-encoding rejection,
// store I/O, sink I/O), if any. The ledger is write-only instrumentation,
// so errors are held here rather than propagated into the runtime.
func (l *Ledger) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Stats reports commit count and cumulative wall time spent committing —
// bench-only observability, never serialized into the chain.
func (l *Ledger) Stats() (commits int, commitNS int64, blobBytes int64) {
	if l == nil {
		return 0, 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commits, l.commitNS, l.blobIn
}

// Begin opens a record batch of the given kind at the given controller
// epoch. On a nil ledger it returns nil, and all Batch methods are
// nil-safe no-ops.
func (l *Ledger) Begin(kind string, epoch uint64) *Batch {
	if l == nil {
		return nil
	}
	return &Batch{l: l, kind: kind, epoch: epoch}
}

// Batch accumulates a record's items before Commit seals them. Item and
// Blob accept an (encoding) error alongside the bytes so call sites stay
// one line; the first error poisons the batch and surfaces from Commit
// and Ledger.Err.
type Batch struct {
	l     *Ledger
	kind  string
	epoch uint64
	items []ItemRef
	err   error
}

// Item appends an inline item. A non-nil err (from the caller's encoder)
// poisons the batch instead.
func (b *Batch) Item(kind, key string, data []byte, err error) {
	if b == nil {
		return
	}
	if err != nil {
		if b.err == nil {
			b.err = fmt.Errorf("ledger: item %s/%s: %w", kind, key, err)
		}
		return
	}
	b.items = append(b.items, ItemRef{Kind: kind, Key: key, Data: data})
}

// Blob stores data off-chain in the content-addressed store and appends
// an item referencing it by digest.
func (b *Batch) Blob(kind, key string, data []byte, err error) {
	if b == nil {
		return
	}
	if err != nil {
		if b.err == nil {
			b.err = fmt.Errorf("ledger: blob %s/%s: %w", kind, key, err)
		}
		return
	}
	ref, perr := b.l.store.Put(data)
	if perr != nil {
		if b.err == nil {
			b.err = fmt.Errorf("ledger: blob %s/%s: %w", kind, key, perr)
		}
		return
	}
	b.l.mu.Lock()
	b.l.blobIn += int64(len(data))
	b.l.mu.Unlock()
	b.items = append(b.items, ItemRef{Kind: kind, Key: key, Ref: ref})
}

// Err returns the batch's poisoning error, if any.
func (b *Batch) Err() error {
	if b == nil {
		return nil
	}
	return b.err
}

// Commit seals the batch into the chain: Merkle-commits the items,
// chains to the current head, appends the JSONL line, and advances the
// head to the line's digest. Commit order defines chain order, so
// callers commit from the serial epoch loop only.
func (b *Batch) Commit() (Record, error) {
	if b == nil {
		return Record{}, nil
	}
	l := b.l
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if b.err != nil {
		if l.err == nil {
			l.err = b.err
		}
		return Record{}, b.err
	}
	rec := Record{
		Seq:   len(l.recs),
		Kind:  b.kind,
		Epoch: b.epoch,
		Run:   l.run,
		ID:    fmt.Sprintf("%016x", uint64(parallel.SplitSeed(l.seed, int64(len(l.recs))))),
		Prev:  l.head.Hex(),
		Items: b.items,
	}
	var mb MerkleBatcher
	for _, it := range rec.Items {
		mb.Add(LeafBytes(it))
	}
	rec.Root = mb.Root().Hex()
	line, err := json.Marshal(rec)
	if err != nil {
		if l.err == nil {
			l.err = fmt.Errorf("ledger: marshal record %d: %w", rec.Seq, err)
		}
		return Record{}, err
	}
	l.head = Sum(line)
	l.recs = append(l.recs, rec)
	l.chain = append(l.chain, line...)
	l.chain = append(l.chain, '\n')
	if l.sink != nil {
		if _, werr := l.sink.Write(append(line, '\n')); werr != nil && l.err == nil {
			l.err = fmt.Errorf("ledger: sink: %w", werr)
		}
	}
	l.commits++
	l.commitNS += time.Since(start).Nanoseconds()
	return rec, nil
}

// RecordProof rebuilds the record's Merkle batch and returns the
// inclusion proof for item index i — usable offline from a parsed chain
// line alone.
func RecordProof(rec Record, i int) (Proof, error) {
	var mb MerkleBatcher
	for _, it := range rec.Items {
		mb.Add(LeafBytes(it))
	}
	return mb.Proof(i)
}

// VerifyItem checks an item's inclusion proof against its record's root.
func VerifyItem(rec Record, i int, p Proof) bool {
	if i < 0 || i >= len(rec.Items) {
		return false
	}
	return VerifyProof(LeafBytes(rec.Items[i]), p, rec.Root)
}
