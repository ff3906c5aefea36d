// Command auditcheck is the offline verifier for the tamper-evident audit
// ledger written by cmd/cluster -ledger (internal/ledger). It never trusts
// the producer: every guarantee is recomputed from the on-disk bytes.
//
// Modes:
//
//	auditcheck -dir DIR [-seed N]
//	    Replay DIR/chain.jsonl and validate the full history: strict
//	    record schema, dense sequence numbers, non-decreasing epochs,
//	    every hash-chain link, every Merkle root, and every off-chain
//	    blob in DIR/objects re-hashed against its on-chain reference —
//	    all anchored to the pinned head digest in DIR/HEAD. With -seed,
//	    the genesis link is checked against the run seed too.
//
//	auditcheck -dir DIR -prove -node J -epoch E [-class C -k0 A -k1 B -lo X -hi Y]
//	    Answer "what was node J's manifest at controller epoch E?" with
//	    evidence: the latest publish/shed record at epoch <= E, the
//	    node's canonical manifest blob, and a Merkle inclusion proof
//	    from the blob's item leaf to the record's root (itself covered
//	    by the chain head). With a class/unit/range query, additionally
//	    check that the manifest assigns [lo, hi) of that unit to the
//	    node — proving range responsibility, not just manifest bytes.
//
//	auditcheck -dir DIR -tamper N [-tamperseed S]
//	    Adversarial self-test: N seeded single-byte corruptions spread
//	    across the chain file and every referenced blob, each of which
//	    must fail verification against the pinned head. Exits non-zero
//	    if any mutation goes undetected.
//
// The ledger's cost is cmd/perf's ledger.overhead_frac; its write-only
// contract is pinned by the cluster package's TestLedgerVerdictEqualsReport.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"nwdeploy/internal/control"
	"nwdeploy/internal/ledger"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams passed in, returning the exit
// code: 0 ok, 1 a failed verification, proof or tamper test, 2 a flag error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("auditcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "ledger directory (chain.jsonl, HEAD, objects/)")
	seed := fs.Int64("seed", 0, "run seed; when non-zero the genesis link is verified against it")
	prove := fs.Bool("prove", false, "prove a node's manifest (and optionally a range assignment) at an epoch")
	node := fs.Int("node", -1, "prove: node id")
	epoch := fs.Uint64("epoch", 0, "prove: controller epoch the assignment must have been in force at")
	class := fs.Int("class", -1, "prove: class id of the queried unit (-1 skips the range check)")
	k0 := fs.Int("k0", 0, "prove: first unit key component")
	k1 := fs.Int("k1", 0, "prove: second unit key component (-1 for ingress/egress-scoped units)")
	lo := fs.Float64("lo", 0, "prove: queried range low bound")
	hi := fs.Float64("hi", 0, "prove: queried range high bound")
	tamper := fs.Int("tamper", 0, "flip this many seeded single bytes across chain+blobs; each must be detected")
	tamperSeed := fs.Int64("tamperseed", 1, "seed for tamper byte selection")
	quiet := fs.Bool("q", false, "suppress ok-summaries")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "auditcheck: %v\n", err)
		return 1
	}
	if *dir == "" {
		return fail(errors.New("usage: auditcheck -dir DIR [-seed N] [-prove ... | -tamper N]"))
	}

	chain, err := os.ReadFile(filepath.Join(*dir, "chain.jsonl"))
	if err != nil {
		return fail(err)
	}
	headRaw, err := os.ReadFile(filepath.Join(*dir, "HEAD"))
	if err != nil {
		return fail(fmt.Errorf("reading pinned head (run with -ledger to produce one): %w", err))
	}
	head := string(bytes.TrimSpace(headRaw))
	store, err := ledger.NewDirStore(filepath.Join(*dir, "objects"))
	if err != nil {
		return fail(err)
	}
	opts := ledger.VerifyOptions{Head: head, Store: store}
	if *seed != 0 {
		opts.GenesisPrev = ledger.GenesisHex(*seed)
	}

	sum, err := ledger.VerifyChain(chain, opts)
	if err != nil {
		return fail(fmt.Errorf("verification FAILED: %w", err))
	}
	if !*quiet {
		fmt.Fprintf(stdout, "%s: ok — %d records, %d items, %d blob refs (%d chain + %d blob bytes), head %s\n",
			*dir, sum.Records, sum.Items, sum.Blobs, sum.ChainBytes, sum.BlobBytes, sum.Head)
		for _, k := range []string{ledger.RecPublish, ledger.RecShed, ledger.RecEpoch, ledger.RecRegions, ledger.RecTrace} {
			if n := sum.Kinds[k]; n > 0 {
				fmt.Fprintf(stdout, "  %-8s %d\n", k, n)
			}
		}
	}

	switch {
	case *prove:
		err = runProve(stdout, chain, store, *node, *epoch, *class, [2]int{*k0, *k1}, *lo, *hi)
	case *tamper > 0:
		err = runTamper(stdout, stderr, chain, store, opts, *tamper, *tamperSeed, *quiet)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// parseRecords decodes a verified chain's lines. The chain has already
// passed VerifyChain, so failures here are programming errors.
func parseRecords(chain []byte) []ledger.Record {
	var recs []ledger.Record
	for _, line := range bytes.Split(chain, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec ledger.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			panic(fmt.Sprintf("auditcheck: re-parsing verified chain: %v", err))
		}
		recs = append(recs, rec)
	}
	return recs
}

// runProve locates the manifest record in force for (node, epoch), checks
// the optional range-assignment query against the decoded canonical
// manifest, and prints the Merkle inclusion proof tying the blob to the
// record root the verified chain head covers.
func runProve(w io.Writer, chain []byte, store ledger.Store, node int, epoch uint64, class int, unit [2]int, lo, hi float64) error {
	if node < 0 || epoch == 0 {
		return errors.New("prove: need -node and -epoch")
	}
	// The manifest in force at epoch e is the latest publish/shed commit
	// with epoch <= e: later shed records supersede earlier publishes.
	var rec ledger.Record
	found := false
	for _, r := range parseRecords(chain) {
		if (r.Kind == ledger.RecPublish || r.Kind == ledger.RecShed) && r.Epoch <= epoch {
			rec, found = r, true
		}
	}
	if !found {
		return fmt.Errorf("prove: no publish/shed record at epoch <= %d", epoch)
	}
	key := fmt.Sprintf("node/%d", node)
	item := -1
	for i, it := range rec.Items {
		if it.Kind == ledger.ItemManifest && it.Key == key {
			item = i
		}
	}
	if item < 0 {
		return fmt.Errorf("prove: record seq %d has no manifest for node %d", rec.Seq, node)
	}
	blob, err := store.Get(rec.Items[item].Ref)
	if err != nil {
		return err
	}
	m, err := control.DecodeCanonicalManifest(blob)
	if err != nil {
		return err
	}

	if class >= 0 {
		if !covers(m.Assignments, class, unit, lo, hi) {
			return fmt.Errorf("DISPROVED: node %d's manifest at epoch %d (record seq %d) does not assign [%g, %g) of class %d unit %v",
				node, epoch, rec.Seq, lo, hi, class, unit)
		}
		fmt.Fprintf(w, "proved: node %d was assigned [%g, %g) of class %d unit %v at epoch %d\n",
			node, lo, hi, class, unit, epoch)
	}

	p, err := ledger.RecordProof(rec, item)
	if err != nil {
		return err
	}
	if !ledger.VerifyItem(rec, item, p) {
		return fmt.Errorf("prove: inclusion proof for %s does not verify against record root", key)
	}
	pj, _ := json.Marshal(p)
	fmt.Fprintf(w, "manifest: record seq %d (kind %s, epoch %d, run %d), blob %s (%d bytes)\n",
		rec.Seq, rec.Kind, rec.Epoch, rec.Run, rec.Items[item].Ref, len(blob))
	fmt.Fprintf(w, "inclusion proof (leaf %d of %d, root %s):\n%s\n", p.Index, p.Leaves, rec.Root, pj)
	return nil
}

// covers reports whether the assignment set gives (class, unit) the whole
// interval [lo, hi). Canonical assignments hold coalesced, sorted ranges,
// so containment within a single range is the correct test.
func covers(as []control.WireAssignment, class int, unit [2]int, lo, hi float64) bool {
	for _, a := range as {
		if a.Class != class || a.Unit != unit {
			continue
		}
		for _, r := range a.Ranges {
			if r.Lo <= lo && hi <= r.Hi {
				return true
			}
		}
	}
	return false
}

// tamperStore serves one overridden blob over an inner store.
type tamperStore struct {
	inner ledger.Store
	ref   string
	data  []byte
}

func (s tamperStore) Put(data []byte) (string, error) { return s.inner.Put(data) }
func (s tamperStore) Get(ref string) ([]byte, error) {
	if ref == s.ref {
		return append([]byte(nil), s.data...), nil
	}
	return s.inner.Get(ref)
}

// runTamper flips n seeded single bytes — anywhere in the chain file or
// any referenced blob — and requires every mutation to fail verification
// against the pinned head.
func runTamper(stdout, stderr io.Writer, chain []byte, store ledger.Store, opts ledger.VerifyOptions, n int, seed int64, quiet bool) error {
	var refs []string
	seen := map[string]bool{}
	for _, rec := range parseRecords(chain) {
		for _, it := range rec.Items {
			if it.Ref != "" && !seen[it.Ref] {
				seen[it.Ref] = true
				refs = append(refs, it.Ref)
			}
		}
	}
	blobs := make([][]byte, len(refs))
	total := len(chain)
	for i, ref := range refs {
		b, err := store.Get(ref)
		if err != nil {
			return err
		}
		blobs[i] = b
		total += len(b)
	}

	rng := rand.New(rand.NewSource(seed))
	undetected := 0
	for trial := 0; trial < n; trial++ {
		off := rng.Intn(total)
		flip := byte(1 + rng.Intn(255)) // never zero: the byte must change
		var err error
		if off < len(chain) {
			mut := append([]byte(nil), chain...)
			mut[off] ^= flip
			_, err = ledger.VerifyChain(mut, opts)
		} else {
			off -= len(chain)
			bi := 0
			for off >= len(blobs[bi]) {
				off -= len(blobs[bi])
				bi++
			}
			mut := append([]byte(nil), blobs[bi]...)
			mut[off] ^= flip
			mutOpts := opts
			mutOpts.Store = tamperStore{inner: store, ref: refs[bi], data: mut}
			_, err = ledger.VerifyChain(chain, mutOpts)
		}
		if err == nil {
			undetected++
			fmt.Fprintf(stderr, "auditcheck: UNDETECTED tamper: trial %d\n", trial)
		}
	}
	if undetected > 0 {
		return fmt.Errorf("tamper test FAILED: %d of %d mutations went undetected", undetected, n)
	}
	if !quiet {
		fmt.Fprintf(stdout, "tamper: all %d seeded single-byte mutations detected (%d chain + blob bytes in scope)\n", n, total)
	}
	return nil
}
