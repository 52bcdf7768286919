//! The traced run's layer replay.
//!
//! After the engine answers a query set inside a root span, the
//! benchmark calls each layer's public functions again on that query's
//! own inputs — its query points and its skyline — each call loop inside
//! a child span of the root. The engine's own counters say how often each
//! layer was used; these spans say what one use costs. Nothing inside
//! the engine is instrumented.

use crate::spans::Tracer;
use msq_core::{SkylineEngine, SkylinePoint};
use rn_graph::NetPosition;
use rn_sp::{AStar, Dijkstra, IncrementalExpansion, NetCtx};
use rn_storage::AdjRecord;
use std::hint::black_box;

/// Nodes settled per query point by the Dijkstra replay; the storage
/// replay reads the same nodes, and the middle-layer replay probes their
/// edges. Small enough that the touched pages fit the 256-frame pool.
const SETTLE_CAP: usize = 1024;
/// Objects emitted per query point by the INE replay.
const INE_CAP: u64 = 16;
/// R-tree items stepped per query point by the nearest-neighbour replay.
const NN_CAP: usize = 64;
/// Skyline objects the A* replay retargets to per query point.
const ASTAR_CAP: usize = 8;
/// Skyline vectors the dominance replay compares pairwise.
const DOMINANCE_CAP: usize = 64;

/// Storage counts the span times alone do not carry.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayCounts {
    /// Adjacency reads of the cold-session passes.
    pub cold_reads: u64,
    /// Of those, reads that faulted a page in.
    pub cold_faults: u64,
}

/// Replays every layer on one query set's inputs under span `root`.
pub fn replay(
    engine: &SkylineEngine,
    queries: &[NetPosition],
    skyline: &[SkylinePoint],
    tracer: &mut Tracer,
    query: u64,
    root: usize,
    counts: &mut ReplayCounts,
) {
    let net = engine.network();
    let mid = engine.mid_ref();
    let tree = engine.object_tree();
    let mut rec = AdjRecord::default();
    for q in queries {
        // sp: settle from the query point through a cold private session.
        let session = engine.store_ref().session();
        let ctx = NetCtx::new(net, &session, mid).with_bound(engine.bound_ref());
        let span = tracer.open(query, "sp.settle", Some(root));
        let mut dijkstra = Dijkstra::new(&ctx, *q);
        let mut settled = Vec::with_capacity(SETTLE_CAP);
        while settled.len() < SETTLE_CAP {
            match dijkstra.settle_next() {
                Some((n, _)) => settled.push(n),
                None => break,
            }
        }
        tracer.close(span, settled.len() as u64);
        let reads = settled.len() as u64;

        // storage: the same read sequence on a fresh cold session, then
        // again with its pages resident.
        let store = engine.store_ref().session();
        let span = tracer.open(query, "storage.read_cold", Some(root));
        for &n in &settled {
            store.read_adjacency_into(n, &mut rec);
            black_box(&rec);
        }
        tracer.close(span, reads);
        counts.cold_reads += reads;
        counts.cold_faults += store.stats().faults();
        let span = tracer.open(query, "storage.read_warm", Some(root));
        for &n in &settled {
            store.read_adjacency_into(n, &mut rec);
            black_box(&rec);
        }
        tracer.close(span, reads);

        // index: middle-layer probes of the edges around the settled
        // nodes, then nearest-neighbour steps in the object R-tree. The
        // call count is the index nodes read, the unit the engine counts.
        let edges: Vec<_> = settled
            .iter()
            .flat_map(|&n| net.adjacent(n).iter().map(|&(e, _)| e))
            .collect();
        mid.reset_node_reads();
        let span = tracer.open(query, "index.mid_lookup", Some(root));
        for &e in &edges {
            black_box(mid.objects_on_edge(e));
        }
        tracer.close(span, mid.node_reads());
        tree.reset_node_reads();
        let span = tracer.open(query, "index.nn_step", Some(root));
        black_box(
            tree.nearest_iter(net.position_point(q))
                .take(NN_CAP)
                .count(),
        );
        tracer.close(span, tree.node_reads());

        // sp: incremental object discovery, then A* retargeted to each
        // skyline object in turn over one settled map.
        let ctx = NetCtx::new(net, &store, mid).with_bound(engine.bound_ref());
        let span = tracer.open(query, "sp.ine", Some(root));
        let mut ine = IncrementalExpansion::new(&ctx, *q);
        let mut emitted = 0u64;
        while emitted < INE_CAP && black_box(ine.next_nearest()).is_some() {
            emitted += 1;
        }
        tracer.close(span, emitted);
        let mut astar = AStar::new(&ctx, *q);
        for p in skyline.iter().take(ASTAR_CAP) {
            let target = engine.object_position(p.object);
            let span = tracer.open(query, "sp.set_target", Some(root));
            astar.set_target(target);
            tracer.close(span, 1);
            let span = tracer.open(query, "sp.astar_run", Some(root));
            black_box(astar.run());
            tracer.close(span, 1);
        }
    }

    // skyline: pairwise dominance tests over the reported vectors.
    let vectors: Vec<&[f64]> = skyline
        .iter()
        .take(DOMINANCE_CAP)
        .map(|p| p.vector.as_slice())
        .collect();
    let span = tracer.open(query, "skyline.dominates", Some(root));
    let mut tests = 0;
    for a in &vectors {
        for b in &vectors {
            black_box(rn_skyline::dominates(black_box(a), black_box(b)));
            tests += 1;
        }
    }
    tracer.close(span, tests);
}
