//! Sharded (simulated-distributed) skyline execution — DESIGN.md §17.
//!
//! The network is cut into `k` Hilbert-order shards
//! ([`rn_graph::Partition`]); each shard owns the objects on its edges
//! and computes a *local* candidate skyline plus a boundary-node
//! distance summary ([`ShardSummary`]); a coordinator merges the local
//! skylines with a polling protocol whose every message is counted
//! under the explicit cost model of [`protocol`]. Because the skyline
//! operator distributes over union — the global skyline is exactly the
//! undominated subset of the union of per-shard skylines — the merged
//! answer is **bitwise identical** to the single-machine
//! [`SkylineEngine`] at every shard count, worker count and algorithm
//! (`tests/dist_equivalence.rs` pins k ∈ {1,2,4,8} × workers {1,2,8} ×
//! CE/EDC/LBC).
//!
//! Execution runs behind the [`ShardBackend`] trait seam:
//! [`InProcessBackend`] fans the shard jobs across [`rn_par`] workers
//! today; the same seam later admits a real multi-process transport.
//! All protocol accounting happens on the coordinator after the
//! deterministic join, so every `dist.*` counter is invariant across
//! worker counts and golden-trace regression-testable.

pub mod protocol;
pub mod summary;

pub use protocol::CommStats;
pub use summary::{QuerySkeleton, ShardSummary};

use crate::engine::{Algorithm, SkylineEngine, SkylineResult};
use crate::stats::SkylinePoint;
use rn_geom::OrdF64;
use rn_graph::{NetPosition, ObjectId, Partition, RoadNetwork};
use rn_obs::{Event, Metric, QueryTrace};
use rn_skyline::dominates;
use rn_sp::BoundSpec;

/// One shard's unit of work: run `algo` for `queries` on the shard's
/// private engine (full network, masked object slots).
pub struct ShardJob<'a> {
    /// Shard index within the partition.
    pub shard: usize,
    /// The shard's engine.
    pub engine: &'a SkylineEngine,
    /// Algorithm to execute.
    pub algo: Algorithm,
    /// The query points, as broadcast by the coordinator.
    pub queries: &'a [NetPosition],
}

/// Where shard jobs execute. The contract mirrors the rest of the
/// repo's parallel seams: replies are returned **in job order**, and a
/// backend may only affect *when* work runs — never what each job
/// returns — so results are identical at every worker count.
pub trait ShardBackend {
    /// Backend name for reports.
    fn name(&self) -> &'static str;
    /// Executes every job, returning one result per job, job-ordered.
    fn run_shards(&self, jobs: &[ShardJob<'_>]) -> Vec<SkylineResult>;
}

/// The simulated cluster: shard jobs fan out across scoped
/// [`rn_par`] worker threads in-process. Each job runs the shard
/// engine's sequential driver, so a job's result is a pure function of
/// the job and the index-ordered join keeps the reply order fixed.
#[derive(Clone, Copy, Debug)]
pub struct InProcessBackend {
    /// Worker threads to spread shard jobs over.
    pub workers: usize,
}

impl ShardBackend for InProcessBackend {
    fn name(&self) -> &'static str {
        "in-process"
    }

    fn run_shards(&self, jobs: &[ShardJob<'_>]) -> Vec<SkylineResult> {
        // `run_cold` rather than `run`: a shard machine answers every
        // query from a cold buffer pool, so each distributed query is a
        // pure function of (partition, algorithm, queries) — the
        // property the golden traces and the 0 %-tolerance bench gate
        // rely on.
        rn_par::par_map(jobs, self.workers, |_, job| {
            job.engine.run_cold(job.algo, job.queries)
        })
    }
}

/// Per-shard outcome of one distributed query.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Objects the shard owns.
    pub objects: u64,
    /// Local skyline candidates the shard computed.
    pub local: u64,
    /// Candidates shipped to the coordinator after filtering (0 when
    /// the shard was pruned or empty).
    pub sent: u64,
    /// `true` when the coordinator skipped the shard on its summary's
    /// lower band alone.
    pub pruned: bool,
}

/// A finished distributed query.
#[derive(Clone, Debug)]
pub struct DistResult {
    /// The merged skyline, ascending by object id. Object ids are
    /// global (shard engines share the base engine's dense id space),
    /// so this compares bitwise against [`SkylineEngine`] output.
    pub skyline: Vec<SkylinePoint>,
    /// Merged trace: per-shard engine counters folded in shard order,
    /// then the coordinator's `dist.*` protocol counters and (under
    /// the `trace` feature) the round/reply event log.
    pub trace: QueryTrace,
    /// The communication totals, also mirrored into `trace`.
    pub comm: CommStats,
    /// Per-shard candidate flow, ascending by shard index.
    pub shards: Vec<ShardReport>,
}

impl DistResult {
    /// Skyline object ids, ascending — the canonical comparison form.
    pub fn ids(&self) -> Vec<ObjectId> {
        self.skyline.iter().map(|p| p.object).collect()
    }
}

/// The sharded engine: a partition plus one private [`SkylineEngine`]
/// per shard, each holding the full road network (distances must stay
/// exact and bitwise identical) with the object slots *masked* to the
/// shard's own objects — out-of-shard slots become tombstones, so
/// object ids stay global across shards.
pub struct DistEngine {
    partition: Partition,
    shard_engines: Vec<SkylineEngine>,
    shard_objects: Vec<Vec<(ObjectId, NetPosition)>>,
    net: RoadNetwork,
}

impl DistEngine {
    /// Shards `base` into `shards` Hilbert-order cuts. The base
    /// engine's lower-bound spec is replicated into every shard engine,
    /// so boundary summaries tighten through the same oracle seam.
    ///
    /// # Panics
    /// Panics when `shards` is zero.
    pub fn new(base: &SkylineEngine, shards: usize) -> DistEngine {
        let net = base.network();
        let partition = Partition::hilbert(net, shards);
        let slots = base.mid_ref().slots();
        let mut shard_engines = Vec::with_capacity(shards);
        let mut shard_objects: Vec<Vec<(ObjectId, NetPosition)>> = vec![Vec::new(); shards];
        for (i, slot) in slots.iter().enumerate() {
            if let Some(pos) = slot {
                let s = partition.shard_of_position(net, pos);
                shard_objects[s].push((ObjectId(i as u32), *pos));
            }
        }
        for s in 0..shards {
            let masked: Vec<Option<NetPosition>> = slots
                .iter()
                .map(|slot| slot.filter(|pos| partition.shard_of_position(net, pos) == s))
                .collect();
            let mut engine = SkylineEngine::build_slots(net.clone(), &masked);
            if !matches!(base.bound_spec(), BoundSpec::Euclid) {
                engine.set_bound(base.bound_spec());
            }
            shard_engines.push(engine);
        }
        DistEngine {
            partition,
            shard_engines,
            shard_objects,
            net: net.clone(),
        }
    }

    /// The partition the engine was cut with.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.partition.shard_count()
    }

    /// Objects owned by shard `s` (ascending object id).
    pub fn shard_objects(&self, s: usize) -> &[(ObjectId, NetPosition)] {
        &self.shard_objects[s]
    }

    /// Runs one distributed skyline query: shard execution on
    /// `backend`, then the metered coordinator merge.
    ///
    /// # Panics
    /// Panics when `queries` is empty.
    pub fn run(
        &self,
        algo: Algorithm,
        queries: &[NetPosition],
        backend: &dyn ShardBackend,
    ) -> DistResult {
        assert!(!queries.is_empty(), "need at least one query point");
        let k = self.shard_count();
        let dims = queries.len();

        // --- Round 1: query broadcast (one message per shard, each
        // carrying the query positions plus that shard's slice of the
        // frontier skeleton).
        let mut comm = CommStats::default();
        let mut rounds: Vec<(u64, u64)> = Vec::new(); // (msgs, bytes) per round
        let mut bcast = (0u64, 0u64);
        for s in 0..k {
            let anchors = summary::shard_anchors(&self.partition, s).len();
            bcast.0 += 1;
            bcast.1 += protocol::broadcast_bytes(dims, anchors);
        }
        rounds.push(bcast);

        // --- Shard execution over the backend seam. Shards without
        // objects are never dispatched (their local skyline is empty by
        // construction); everyone still answers the summary round.
        let occupied: Vec<usize> = (0..k)
            .filter(|&s| !self.shard_objects[s].is_empty())
            .collect();
        let jobs: Vec<ShardJob<'_>> = occupied
            .iter()
            .map(|&s| ShardJob {
                shard: s,
                engine: &self.shard_engines[s],
                algo,
                queries,
            })
            .collect();
        let replies = backend.run_shards(&jobs);
        assert_eq!(replies.len(), jobs.len(), "backend must answer every job");
        let mut locals: Vec<Option<SkylineResult>> = (0..k).map(|_| None).collect();
        for (&s, result) in occupied.iter().zip(replies) {
            locals[s] = Some(result);
        }

        // --- Round 2: summary gather. Summaries describe the local
        // skyline candidates; the lower band rides the oracle seam.
        let skeleton = QuerySkeleton::build(&self.net, queries);
        let summaries: Vec<ShardSummary> = (0..k)
            .map(|s| match &locals[s] {
                None => ShardSummary::empty(s, dims),
                Some(result) => {
                    let mut candidates: Vec<(ObjectId, NetPosition)> = result
                        .skyline
                        .iter()
                        .map(|p| (p.object, self.shard_engines[s].object_position(p.object)))
                        .collect();
                    candidates.sort_by_key(|&(id, _)| id);
                    summary::build_summary(
                        &self.net,
                        &self.partition,
                        s,
                        &candidates,
                        queries,
                        &skeleton,
                        self.shard_engines[s].bound_ref(),
                    )
                }
            })
            .collect();
        rounds.push((k as u64, k as u64 * protocol::summary_bytes(dims)));

        // --- Merge: poll shards in ascending advertised priority; skip
        // any shard whose whole candidate set a merged vector already
        // dominates through the summary's lower band.
        let mut order: Vec<usize> = (0..k).collect();
        order.sort_by_key(|&s| (OrdF64::new(summaries[s].poll_priority()), s));
        let mut merged: Vec<SkylinePoint> = Vec::new();
        let mut reports: Vec<ShardReport> = (0..k)
            .map(|s| ShardReport {
                shard: s,
                objects: self.shard_objects[s].len() as u64,
                local: summaries[s].count,
                sent: 0,
                pruned: false,
            })
            .collect();
        for &s in &order {
            if summaries[s].count == 0 {
                continue;
            }
            comm.candidates_local += summaries[s].count;
            if merged
                .iter()
                .any(|p| below_band(&p.vector, &summaries[s].lower))
            {
                // Every candidate of this shard is strictly dominated:
                // its true vector is >= the lower band in every
                // dimension, and some merged vector is strictly below
                // that band everywhere.
                comm.shards_pruned += 1;
                reports[s].pruned = true;
                continue;
            }
            // One poll round trip: filter down, survivors back up.
            let local = locals[s].as_ref().expect("non-empty shard has a result");
            let mut candidates = candidate_points(local);
            candidates.sort_by_key(|p| p.object);
            let sent: Vec<SkylinePoint> = candidates
                .into_iter()
                .filter(|c| !merged.iter().any(|m| dominates(&m.vector, &c.vector)))
                .collect();
            rounds.push((
                2,
                protocol::poll_bytes(dims, merged.len()) + protocol::reply_bytes(dims, sent.len()),
            ));
            reports[s].sent = sent.len() as u64;
            comm.candidates_sent += sent.len() as u64;
            for c in sent {
                if merged.iter().any(|m| dominates(&m.vector, &c.vector)) {
                    continue;
                }
                merged.retain(|m| !dominates(&c.vector, &m.vector));
                merged.push(c);
            }
        }
        merged.sort_by_key(|p| p.object);

        // --- Trace assembly: shard traces fold in shard order, then
        // the coordinator's protocol counters and events. Everything
        // here derives from the deterministic merge above, so the
        // trace is bitwise identical at every worker count.
        let mut trace = QueryTrace::new();
        for local in locals.iter().flatten() {
            trace.merge(&local.trace);
        }
        for (msgs, bytes) in &rounds {
            comm.msgs += msgs;
            comm.bytes += bytes;
        }
        comm.rounds = rounds.len() as u64;
        trace.add(Metric::DistMsgsSent, comm.msgs);
        trace.add(Metric::DistMsgsBytes, comm.bytes);
        trace.add(Metric::DistRounds, comm.rounds);
        trace.add(Metric::DistCandidatesLocal, comm.candidates_local);
        trace.add(Metric::DistCandidatesSent, comm.candidates_sent);
        trace.add(Metric::DistShardsPruned, comm.shards_pruned);
        for (i, (msgs, bytes)) in rounds.iter().enumerate() {
            trace.event(Event::DistRound {
                round: i as u64 + 1,
                msgs: *msgs,
                bytes: *bytes,
            });
        }
        for r in &reports {
            trace.event(Event::DistShardReply {
                shard: r.shard as u64,
                local: r.local,
                sent: r.sent,
                pruned: u64::from(r.pruned),
            });
        }

        DistResult {
            skyline: merged,
            trace,
            comm,
            shards: reports,
        }
    }
}

/// `true` when `v` is strictly below `band` in every dimension — the
/// shard-skip test ("`v` dominates anything whose vector is ≥ `band`").
fn below_band(v: &[f64], band: &[f64]) -> bool {
    debug_assert_eq!(v.len(), band.len());
    v.iter().zip(band).all(|(a, b)| a < b)
}

/// A local result's skyline points, cloned for the merge.
fn candidate_points(result: &SkylineResult) -> Vec<SkylinePoint> {
    result.skyline.clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_band_is_strict_everywhere() {
        assert!(below_band(&[1.0, 2.0], &[1.5, 2.5]));
        assert!(!below_band(&[1.5, 2.0], &[1.5, 2.5]), "equal is not below");
        assert!(!below_band(&[1.0, 3.0], &[1.5, 2.5]));
    }
}
