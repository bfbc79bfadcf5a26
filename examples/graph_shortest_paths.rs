//! Dijkstra-style graph exploration using the working-set map as the distance
//! table.
//!
//! Run with `cargo run --example graph_shortest_paths --release`.
//!
//! Shortest-path style algorithms have strong temporal locality: the distance
//! entries of vertices near the current frontier are touched over and over
//! while far-away vertices are untouched.  The paper cites parallel
//! shortest-path algorithms as a motivating use of batched parallel search
//! structures; this example runs a frontier-by-frontier (delta-stepping
//! flavoured) relaxation where each frontier's distance lookups and updates
//! are issued to M1 as one batch, and reports the effective work against the
//! working-set bound and against a non-adaptive AVL baseline.

use wsm_core::{BatchedMap, OpResult, Operation, TaggedOp, M1};
use wsm_model::MapOpKind;
use wsm_seq::{AvlMap, InstrumentedMap};

/// A deterministic sparse layered graph: `layers` layers of `width` vertices,
/// each vertex connecting to a handful of vertices in the next layer.
struct Graph {
    adj: Vec<Vec<(u64, u64)>>, // (target, weight)
}

impl Graph {
    fn layered(layers: u64, width: u64) -> Self {
        let n = layers * width;
        let mut adj = vec![Vec::new(); n as usize];
        let mut state = 0xABCDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for layer in 0..layers - 1 {
            for i in 0..width {
                let u = layer * width + i;
                for _ in 0..3 {
                    let v = (layer + 1) * width + next() % width;
                    adj[u as usize].push((v, 1 + next() % 8));
                }
            }
        }
        Graph { adj }
    }

    fn vertices(&self) -> u64 {
        self.adj.len() as u64
    }
}

fn main() {
    let graph = Graph::layered(64, 256);
    let n = graph.vertices();
    println!("graph: {n} vertices, layered 64 x 256");

    // Distance table in the working-set map: vertex -> best known distance.
    let mut dist: M1<u64, u64> = M1::new(8);
    let mut ops_trace: Vec<MapOpKind<u64>> = Vec::new();
    let mut next_id = 0u64;
    let mut run = |m: &mut M1<u64, u64>, batch: Vec<Operation<u64, u64>>| -> Vec<OpResult<u64>> {
        let mut tagged: Vec<TaggedOp<u64, u64>> = batch
            .into_iter()
            .map(|op| {
                let t = TaggedOp { id: next_id, op };
                next_id += 1;
                t
            })
            .collect();
        let ids: Vec<u64> = tagged.iter().map(|t| t.id).collect();
        let mut results = Vec::with_capacity(ids.len());
        m.run_batch(&mut tagged, &mut results);
        let by_id: std::collections::BTreeMap<u64, OpResult<u64>> = results.into_iter().collect();
        ids.into_iter().map(|id| by_id[&id].clone()).collect()
    };

    // Source = vertex 0.
    run(&mut dist, vec![Operation::Insert(0, 0)]);
    ops_trace.push(MapOpKind::Insert(0));

    let mut frontier: Vec<u64> = vec![0];
    let mut settled = 0u64;
    while !frontier.is_empty() {
        settled += frontier.len() as u64;
        // 1. Batch-read the distances of the whole frontier.
        let reads: Vec<Operation<u64, u64>> =
            frontier.iter().map(|&v| Operation::Search(v)).collect();
        ops_trace.extend(frontier.iter().map(|&v| MapOpKind::Search(v)));
        let current: Vec<u64> = run(&mut dist, reads)
            .into_iter()
            .map(|r| match r {
                OpResult::Search(Some(d)) => d,
                _ => u64::MAX,
            })
            .collect();

        // 2. Relax all outgoing edges; batch-read the targets' distances.
        let mut candidates: Vec<(u64, u64)> = Vec::new();
        for (&u, &du) in frontier.iter().zip(&current) {
            for &(v, w) in &graph.adj[u as usize] {
                candidates.push((v, du.saturating_add(w)));
            }
        }
        let reads: Vec<Operation<u64, u64>> = candidates
            .iter()
            .map(|&(v, _)| Operation::Search(v))
            .collect();
        ops_trace.extend(candidates.iter().map(|&(v, _)| MapOpKind::Search(v)));
        let olds = run(&mut dist, reads);

        // 3. Batch-write the improvements and build the next frontier.
        let mut writes: Vec<Operation<u64, u64>> = Vec::new();
        let mut next_frontier: Vec<u64> = Vec::new();
        for ((v, nd), old) in candidates.into_iter().zip(olds) {
            let improved = match old {
                OpResult::Search(Some(d)) => nd < d,
                _ => true,
            };
            if improved {
                writes.push(Operation::Insert(v, nd));
                ops_trace.push(MapOpKind::Insert(v));
                next_frontier.push(v);
            }
        }
        run(&mut dist, writes);
        next_frontier.sort_unstable();
        next_frontier.dedup();
        frontier = next_frontier;
    }

    let wl = wsm_model::working_set_bound(&ops_trace);
    println!(
        "settled ~{settled} vertex visits; issued {} map operations",
        ops_trace.len()
    );
    println!(
        "M1 measured work = {} vs working-set bound W_L = {wl} (ratio {:.2})",
        dist.effective_work(),
        dist.effective_work() as f64 / wl as f64
    );
    // The measured/worst-case charge split (see `wsm_twothree::cost`): the
    // map pays for the tree nodes it actually touched, with the closed-form
    // Appendix A.2 charge retained as the analytic ceiling.
    println!(
        "M1 worst-case bound charge = {} (measured runs at {:.2} of the Lemma bound)",
        dist.analytic_bound_work(),
        dist.effective_work() as f64 / dist.analytic_bound_work().max(1) as f64
    );

    // Non-adaptive baseline doing the same single operations sequentially.
    let mut avl: AvlMap<u64, u64> = AvlMap::new();
    let mut avl_work = 0u64;
    for op in &ops_trace {
        let (_, c) = match op {
            MapOpKind::Search(k) => avl.search(k),
            MapOpKind::Insert(k) => avl.insert(*k, 0),
            MapOpKind::Delete(k) => avl.remove(k),
        };
        avl_work += c.work;
    }
    println!(
        "AVL baseline work = {avl_work}; the frontier locality gives the working-set map a {:.1}x advantage",
        avl_work as f64 / dist.effective_work().max(1) as f64
    );
}
