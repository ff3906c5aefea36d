// Command auditcheck is the offline verifier for what a run wrote: the
// tamper-evident audit ledger of cmd/cluster -ledger (internal/ledger) and
// flight-recorder dumps of -trace (internal/trace). It never trusts the
// producer: every guarantee is recomputed from the on-disk bytes.
//
// Modes:
//
//	auditcheck -dir DIR [-seed N]
//	    Replay DIR/chain.jsonl and validate the full history: strict
//	    record schema, dense sequence numbers, non-decreasing epochs,
//	    every hash-chain link, every Merkle root, and every off-chain
//	    blob in DIR/objects re-hashed against its on-chain reference —
//	    all anchored to the pinned head digest in DIR/HEAD. With -seed,
//	    the genesis link is checked against the run seed too, and a
//	    committed trace dump against the trace schema.
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
//	auditcheck [-q] FILE.jsonl...
//	    Validate flight-recorder dumps (-trace, /trace) against the trace
//	    wire schema (trace.Validate), one summary line per file.
//
// The ledger's cost is cmd/perf's ledger.overhead_frac; its write-only
// contract is pinned by the cluster package's TestLedgerVerdictEqualsReport.
package main

import "nwdeploy/internal/cli"

func main() { cli.Main("auditcheck") }
