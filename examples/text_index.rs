//! Building a word-frequency index with heavily repeated keys.
//!
//! Run with `cargo run --example text_index --release`.
//!
//! Natural-language token streams are extremely low-entropy: a few words
//! account for most occurrences.  This is exactly the regime where (a) the
//! entropy sorts beat comparison sorting and (b) the working-set map's
//! duplicate combining pays off, because every batch of tokens contains many
//! repeats of the same hot words.  The example indexes a synthetic Zipfian
//! "document stream", reports the entropy bound versus the sort cost, and
//! compares the effective work of M2 against a splay tree processing the same
//! token stream one call at a time.

use wsm_core::{BatchedMap, Operation, TaggedOp, M2};
use wsm_model::{entropy_bound, sequence_entropy};
use wsm_seq::SplayMap;
use wsm_sort::pesort_group;
use wsm_workloads::{Pattern, WorkloadSpec};

const VOCABULARY: u64 = 20_000;
const TOKENS: usize = 200_000;

fn main() {
    // A Zipf(1.05) token stream over a 20k-word vocabulary.
    let tokens: Vec<u64> = WorkloadSpec::read_only(VOCABULARY, TOKENS, Pattern::Zipf(1.05), 11)
        .access_phase()
        .iter()
        .map(|op| *op.key())
        .collect();
    let h = sequence_entropy(&tokens);
    println!("token stream: {TOKENS} tokens, vocabulary {VOCABULARY}, entropy {h:.2} bits/token");

    // Entropy sorting a batch of tokens (what M1/M2 do internally per batch).
    let (groups, sort_cost) = pesort_group(&tokens[..50_000.min(tokens.len())]);
    println!(
        "PESort grouped 50k tokens into {} distinct words with {} work (entropy bound {:.0})",
        groups.len(),
        sort_cost.work,
        entropy_bound(&tokens[..50_000.min(tokens.len())])
    );

    // Build the index with M2: word -> occurrence count, processed in batches
    // of 4096 tokens (one "document" at a time).
    let mut index: M2<u64, u64> = M2::new(8);
    let mut next_id = 0u64;
    for doc in tokens.chunks(4096) {
        // Count occurrences within the document first (the map stores totals).
        let mut counts: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for &t in doc {
            *counts.entry(t).or_insert(0) += 1;
        }
        // Read existing totals, then write back the new totals, as one batch
        // each.
        let mut read_batch: Vec<TaggedOp<u64, u64>> = counts
            .keys()
            .map(|&w| {
                let t = TaggedOp {
                    id: next_id,
                    op: Operation::Search(w),
                };
                next_id += 1;
                t
            })
            .collect();
        let ids: Vec<u64> = read_batch.iter().map(|t| t.id).collect();
        let mut results = Vec::with_capacity(ids.len());
        index.run_batch(&mut read_batch, &mut results);
        let by_id: std::collections::BTreeMap<u64, _> = results.drain(..).collect();
        let mut write_batch: Vec<TaggedOp<u64, u64>> = counts
            .iter()
            .zip(ids)
            .map(|((&w, &c), id)| {
                let old = match &by_id[&id] {
                    wsm_core::OpResult::Search(Some(v)) => *v,
                    _ => 0,
                };
                let t = TaggedOp {
                    id: next_id,
                    op: Operation::Insert(w, old + c),
                };
                next_id += 1;
                t
            })
            .collect();
        index.run_batch(&mut write_batch, &mut results);
    }
    println!(
        "M2 index: {} distinct words, measured work {} ({:.2} per token)",
        index.len(),
        index.effective_work(),
        index.effective_work() as f64 / TOKENS as f64
    );
    // Measured vs worst-case charges (see `wsm_twothree::cost`): the index
    // paid for the tree nodes it actually touched; the Lemma A.2 bound is
    // kept alongside as the analytic ceiling, and the pipelined maintenance
    // cascade count shows the Lemma 16 hole-refill runs this stream needed.
    println!(
        "M2 worst-case bound charge {} ({:.2} of bound paid), {} maintenance runs",
        index.analytic_bound_work(),
        index.effective_work() as f64 / index.analytic_bound_work().max(1) as f64,
        index.maintenance_runs()
    );

    // Splay-tree baseline: the classic sequential self-adjusting structure,
    // one call per token.
    let mut splay: SplayMap<u64, u64> = SplayMap::new();
    let mut splay_work = 0u64;
    for &t in &tokens {
        let (old, c1) = splay.access(&t);
        let (_, c2) = splay.insert_item(t, old.unwrap_or(0) + 1);
        splay_work += c1.work + c2.work;
    }
    println!(
        "splay baseline: effective work {splay_work} ({:.2} per token)",
        splay_work as f64 / TOKENS as f64
    );
    println!(
        "both are distribution-sensitive; the batched map additionally exposes parallelism inside every batch"
    );
}
