//! The three workloads and the closed loop that drives them.
//!
//! One client, one process: each round applies update batches and then
//! answers one query set cold with CE, EDC and LBC in turn (order rotated
//! per set); the next round starts only after the previous one is answered
//! and checked. `ca_churn` applies one batch a round to the engine it
//! queries, under four standing queries. The cold workloads never mutate
//! the engine they query: their batches (object moves only) go to a
//! separate probe engine with the same four kinds of standing query,
//! [`PROBE_BATCHES`] a round drawn across the deciles of their cost, so
//! `update.*` is measured on every workload, spread over the whole run
//! like the queries.

use crate::host::HostClock;
use crate::provenance::Digest;
use crate::replay::{replay, ReplayCounts};
use crate::report::{Metrics, ALGOS};
use crate::spans::{Totals, Tracer};
use crate::stats::{median, percentile, ratio};
use msq_core::{
    Algorithm, BoundSpec, DynamicConfig, DynamicEngine, MaintenanceOutcome, Metric,
    OracleMaintenance, QueryId, SkylineEngine, SkylinePoint, SkylineResult,
};
use rn_graph::{NetPosition, RoadNetwork, Update, UpdateBatch};
use rn_workload::{generate_objects, generate_queries, ChurnConfig, Preset, UpdateStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Object density ω = |D|/|E| (the paper's default).
const OMEGA: f64 = 0.5;
/// Query points per set, |Q| (the paper's default).
const ARITY: usize = 4;
/// Query points fall in a square covering 10 % of the map's area.
const REGION: f64 = 0.316;
/// The network and its objects are fixed, as the paper's real datasets
/// are; the workload seed draws query sets and update batches.
const NETWORK_SEED: u64 = 42;
const OBJECT_SEED: u64 = 4242;
/// Simulated cost of one page fault in the disk model.
const IO_MS: f64 = 5.0;
/// Query sets answered by the sampled brute-force cross-check.
const BRUTE_EVERY: usize = 10;
/// Churn rounds after which standing skylines are checked against a
/// from-scratch engine.
const SCRATCH_EVERY: usize = 10;
/// Cap on set-up repetitions per run.
const MAX_SETUP_REPS: usize = 200;

/// Query sets are stratified by spread, the largest distance between
/// two of their points, which explains most of a set's cost (far more
/// than where its region lies). Set `i` is drawn until its spread falls
/// in decile `i mod BINS`, so every run sees the same mix of cheap and
/// costly sets and runs on different seeds differ less by luck.
const BINS: usize = 10;
/// Draws from a fixed stream that place the decile edges.
const CALIBRATION_DRAWS: u64 = 1000;
/// Draws per set before its bin is given up (keeps generation total).
const MAX_DRAWS: u64 = 4096;
/// Spread bins of the four standing queries (`ca_churn`'s, and the cold
/// workloads' probe engine's).
const STANDING_BINS: [usize; 4] = [2, 4, 6, 8];

/// Seed of the probe engine's standing queries. Like the network and
/// its objects they are part of the fixed dataset: long-lived
/// subscriptions whose upkeep the probe times, while the workload seed
/// draws the update batches.
const PROBE_SEED: u64 = 0;
/// Update batches the probe applies per round. A batch's cost swings
/// with where its inserts land, so one batch a round gives too few
/// samples for a steady `update.*` median.
const PROBE_BATCHES: usize = 2;

/// Seed-stream tags, so each kind of input draws independently.
const STREAM_QUERIES: u64 = 1;
const STREAM_WARMUP: u64 = 2;
const STREAM_STANDING: u64 = 3;
const STREAM_UPDATES: u64 = 4;
const STREAM_CALIBRATION: u64 = 5;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// CA preset, Euclidean bound; the network fits the buffer pool.
    CaCold,
    /// AU preset, Euclidean bound; the network is 2.4x the pool.
    AuCold,
    /// CA preset, ALT bound rebuilt after decreases, churn every round.
    CaChurn,
}

impl Workload {
    /// Every workload the benchmark runs (`BENCHMARK.json` lists the
    /// first two; see the README for `ca_churn`).
    pub const ALL: [Workload; 3] = [Workload::CaCold, Workload::AuCold, Workload::CaChurn];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CaCold => "ca_cold",
            Workload::AuCold => "au_cold",
            Workload::CaChurn => "ca_churn",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn preset(self) -> Preset {
        match self {
            Workload::CaCold | Workload::CaChurn => Preset::Ca,
            Workload::AuCold => Preset::Au,
        }
    }

    fn bound(self) -> BoundSpec {
        match self {
            Workload::CaCold | Workload::AuCold => BoundSpec::Euclid,
            Workload::CaChurn => BoundSpec::Alt {
                landmarks: self.preset().oracle_knobs().landmarks,
            },
        }
    }

    fn churns(self) -> bool {
        self == Workload::CaChurn
    }

    /// Update batches applied per round.
    fn batches_per_round(self) -> usize {
        if self.churns() {
            1
        } else {
            PROBE_BATCHES
        }
    }
}

/// How much work one run does. The query phase lasts `seconds` and at
/// least `min_sets` query sets (or churn rounds); counters are summed
/// over exactly the first `min_sets`, so they repeat exactly for a seed.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Wall time of the query phase.
    pub seconds: Duration,
    /// Sets that are always run and over which counters are summed.
    pub min_sets: usize,
    /// Untimed sets answered before the phase starts.
    pub warmup_sets: usize,
    /// Fewest set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Set-up is repeated until this much time is spent (at most
    /// [`MAX_SETUP_REPS`] times), so a fast set-up gets a steady median.
    pub setup_budget: Duration,
}

impl Plan {
    /// The plan of a benchmark run of `seconds`.
    pub fn for_seconds(seconds: f64) -> Plan {
        Plan {
            seconds: Duration::from_secs_f64(seconds),
            min_sets: 100,
            warmup_sets: 3,
            setup_reps: 3,
            setup_budget: Duration::from_secs(1),
        }
    }
}

/// Mixes the workload seed with a stream tag and an index (SplitMix64).
fn stream_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream << 48)
        .wrapping_add(index);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Largest distance between two points of a query set.
fn spread(net: &RoadNetwork, points: &[NetPosition]) -> f64 {
    let pts: Vec<_> = points.iter().map(|p| net.position_point(p)).collect();
    let mut d: f64 = 0.0;
    for a in &pts {
        for b in &pts {
            d = d.max(a.distance(b));
        }
    }
    d
}

/// Inner decile edges of a cost proxy (the spread of `generate_queries`
/// sets, or the reach of the probe's update batches), from draws of a
/// stream that does not depend on the workload seed.
pub struct Strata(Vec<f64>);

impl Strata {
    fn of(mut samples: Vec<f64>) -> Strata {
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        Strata((1..BINS).map(|k| samples[k * n / BINS]).collect())
    }

    fn calibrate(net: &RoadNetwork) -> Strata {
        Strata::of(
            (0..CALIBRATION_DRAWS)
                .map(|i| {
                    let q =
                        generate_queries(net, ARITY, REGION, stream_seed(0, STREAM_CALIBRATION, i));
                    spread(net, &q)
                })
                .collect(),
        )
    }

    fn bin(&self, cost: f64) -> usize {
        self.0.partition_point(|&edge| edge <= cost)
    }

    /// Query points from `generate_queries` (the 10 % region rule),
    /// drawn from `stream` until their spread falls in `bin`.
    fn draw(
        &self,
        net: &RoadNetwork,
        seed: u64,
        stream: u64,
        index: u64,
        bin: usize,
    ) -> Vec<NetPosition> {
        let mut draw = 0;
        loop {
            let points = generate_queries(
                net,
                ARITY,
                REGION,
                stream_seed(seed, stream, index << 16 | draw),
            );
            draw += 1;
            if self.bin(spread(net, &points)) == bin || draw == MAX_DRAWS {
                return points;
            }
        }
    }
}

/// Update batches: `ca_churn` re-weights 1 ‰ of the edges besides two
/// object inserts and two deletes; the cold workloads' probe moves
/// objects only, so its standing queries are repaired incrementally.
fn churn_config(w: Workload) -> ChurnConfig {
    ChurnConfig {
        edge_frac: if w.churns() { 0.001 } else { 0.0 },
        inserts: 2,
        deletes: 2,
        ..ChurnConfig::default()
    }
}

/// Reach of a batch on the probe: squared straight-line distance from
/// every inserted object to every standing query point, summed. Each
/// insert is repaired by searches from the query points out to it, so
/// this explains most of a batch's cost; deletes cost little.
fn reach(net: &RoadNetwork, batch: &UpdateBatch, points: &[NetPosition]) -> f64 {
    let mut r = 0.0;
    for u in batch.updates() {
        if let Update::InsertObject { pos } = u {
            let o = net.position_point(pos);
            for p in points {
                r += net.position_point(p).distance(&o).powi(2);
            }
        }
    }
    r
}

/// The update batches of a run. On the probe, batch `i` is drawn until
/// its reach falls in decile `i mod BINS`, so every run sees the same
/// mix of cheap and costly batches, as it does of query sets.
struct Batches {
    stream: UpdateStream,
    /// The probe's standing query points and the decile edges of the
    /// reach over them; `None` on `ca_churn`.
    strata: Option<(Vec<NetPosition>, Strata)>,
    drawn: usize,
}

impl Batches {
    fn new(w: Workload, seed: u64, probe: Option<(&DynamicEngine, &[QueryId])>) -> Batches {
        let strata = probe.map(|(d, ids)| {
            let points: Vec<NetPosition> = ids
                .iter()
                .flat_map(|&q| d.query_points(q).iter().copied())
                .collect();
            let net = d.engine().network();
            let live = d.live_objects();
            let mut calibration =
                UpdateStream::new(stream_seed(0, STREAM_CALIBRATION, 0), churn_config(w));
            let reaches = (0..CALIBRATION_DRAWS)
                .map(|_| reach(net, &calibration.next_batch(net, &live), &points))
                .collect();
            (points, Strata::of(reaches))
        });
        Batches {
            stream: UpdateStream::new(stream_seed(seed, STREAM_UPDATES, 0), churn_config(w)),
            strata,
            drawn: 0,
        }
    }

    fn next(&mut self, d: &DynamicEngine) -> UpdateBatch {
        let net = d.engine().network();
        let live = d.live_objects();
        let Some((points, strata)) = &self.strata else {
            return self.stream.next_batch(net, &live);
        };
        let bin = self.drawn % BINS;
        self.drawn += 1;
        let mut draw = 0;
        loop {
            let batch = self.stream.next_batch(net, &live);
            draw += 1;
            if strata.bin(reach(net, &batch, points)) == bin || draw == MAX_DRAWS {
                return batch;
            }
        }
    }
}

/// Per-query work, from the engine's deterministic counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    requests: u64,
    faults: u64,
    heap_pops: u64,
    retargets: u64,
    confirms: u64,
    pack_sweeps: u64,
    candidates: u64,
    skyline: u64,
    /// Candidates times skyline size: a bound on the dominance tests.
    dominance_tests: u64,
    rtree_reads: u64,
    mid_reads: u64,
    ce_distances: u64,
    edc_window_candidates: u64,
    lbc_sessions: u64,
    lbc_plb_discards: u64,
}

impl Work {
    /// Reads the counters of `r`, just returned by `engine`.
    fn of(r: &SkylineResult, engine: &SkylineEngine) -> Work {
        let g = |m| r.trace.get(m);
        Work {
            requests: g(Metric::StoragePageRequests),
            faults: g(Metric::StoragePageFaultsCold) + g(Metric::StoragePageFaultsWarm),
            heap_pops: g(Metric::SpHeapPops),
            retargets: g(Metric::SpAstarRetargets),
            confirms: g(Metric::SpAstarConfirms),
            pack_sweeps: g(Metric::SpAstarPackSweeps),
            candidates: g(Metric::QueryCandidates),
            skyline: g(Metric::QuerySkylineSize),
            dominance_tests: g(Metric::QueryCandidates) * g(Metric::QuerySkylineSize),
            rtree_reads: engine.object_tree().node_reads(),
            mid_reads: engine.mid_ref().node_reads(),
            ce_distances: g(Metric::CeFilterDistanceComputations)
                + g(Metric::CeRefinementDistanceComputations),
            edc_window_candidates: g(Metric::EdcWindowCandidates),
            lbc_sessions: g(Metric::LbcSessions),
            lbc_plb_discards: g(Metric::LbcPlbDiscards),
        }
    }

    fn add(&mut self, o: &Work) {
        self.requests += o.requests;
        self.faults += o.faults;
        self.heap_pops += o.heap_pops;
        self.retargets += o.retargets;
        self.confirms += o.confirms;
        self.pack_sweeps += o.pack_sweeps;
        self.candidates += o.candidates;
        self.skyline += o.skyline;
        self.dominance_tests += o.dominance_tests;
        self.rtree_reads += o.rtree_reads;
        self.mid_reads += o.mid_reads;
        self.ce_distances += o.ce_distances;
        self.edc_window_candidates += o.edc_window_candidates;
        self.lbc_sessions += o.lbc_sessions;
        self.lbc_plb_discards += o.lbc_plb_discards;
    }
}

/// Maintenance work summed over update batches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DynWork {
    batches: u64,
    invalidated: u64,
    expansions: u64,
    incremental: u64,
    full: u64,
    oracle_rebuilds: u64,
}

impl DynWork {
    fn add(&mut self, o: &MaintenanceOutcome) {
        self.batches += 1;
        self.invalidated += o.invalidated;
        self.expansions += o.expansions;
        self.incremental += o.incremental;
        self.full += o.full;
        self.oracle_rebuilds += o.oracle_rebuilds;
    }
}

/// A skyline in canonical form: sorted `(id, vector bits)` pairs, so
/// equality is bitwise in ids and distances.
pub type Canon = Vec<(u32, Vec<u64>)>;

fn canon(points: &[SkylinePoint]) -> Canon {
    let mut v: Canon = points
        .iter()
        .map(|p| (p.object.0, p.vector.iter().map(|d| d.to_bits()).collect()))
        .collect();
    v.sort();
    v
}

/// Which of three answers to one query set are wrong. An answer is
/// `None` when its execution panicked or came back incomplete. The
/// reference is the brute-force answer when one was computed, otherwise
/// the answer at least two algorithms share; without one, all fail.
pub fn failures(answers: &[Option<Canon>; 3], brute: Option<&Canon>) -> [bool; 3] {
    let majority = || {
        let [a, b, c] = answers;
        if a.is_some() && (a == b || a == c) {
            a.as_ref()
        } else if b.is_some() && b == c {
            b.as_ref()
        } else {
            None
        }
    };
    let reference = brute.or_else(majority);
    answers.each_ref().map(|a| match (a, reference) {
        (Some(a), Some(r)) => a != r,
        _ => true,
    })
}

/// One timed engine call.
struct Exec {
    wall_ms: f64,
    result: Option<SkylineResult>,
    work: Work,
}

/// Answers one query set with CE, EDC and LBC, starting at a different
/// algorithm each set so host drift spreads over all three. Results are
/// indexed in `ALGOS` order; walls are scaled by the host `speed`. Under
/// a tracer, each call gets a `core.<algo>` span below `root`.
fn run_set(
    engine: &SkylineEngine,
    queries: &[NetPosition],
    set: usize,
    speed: f64,
    mut trace: Option<(&mut Tracer, usize)>,
) -> [Exec; 3] {
    const SPANS: [&str; 3] = ["core.ce", "core.edc", "core.lbc"];
    let mut out: [Option<Exec>; 3] = [None, None, None];
    for k in 0..3 {
        let a = (set + k) % 3;
        let span = trace
            .as_mut()
            .map(|(tr, root)| tr.open(set as u64, SPANS[a], Some(*root)));
        let started = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            engine.run_cold(Algorithm::PAPER_SET[a], queries)
        }))
        .ok();
        let wall_ms = started.elapsed().as_secs_f64() * 1e3 * speed;
        if let (Some((tr, _)), Some(span)) = (trace.as_mut(), span) {
            tr.close(span, 1);
        }
        let work = result
            .as_ref()
            .map_or_else(Work::default, |r| Work::of(r, engine));
        out[a] = Some(Exec {
            wall_ms,
            result,
            work,
        });
    }
    out.map(|e| e.expect("every algorithm ran"))
}

/// Checks one set's answers; prints each mismatch and returns the count
/// of failed executions.
fn verify(label: &str, set: usize, execs: &[Exec; 3], brute: Option<&Canon>) -> u64 {
    let answers = execs.each_ref().map(|e| {
        e.result
            .as_ref()
            .filter(|r| r.completion.is_complete())
            .map(|r| canon(&r.skyline))
    });
    let failed = failures(&answers, brute);
    for (a, bad) in failed.iter().enumerate() {
        if *bad {
            let what = match &execs[a].result {
                None => "panicked".to_string(),
                Some(r) if !r.completion.is_complete() => "came back incomplete".to_string(),
                Some(r) => format!("disagrees ({} skyline points)", r.skyline.len()),
            };
            eprintln!("mismatch: {label} set {set}: {} {what}", ALGOS[a]);
        }
    }
    failed.iter().filter(|&&b| b).count() as u64
}

/// Weight decreases rebuild the oracle, so ALT keeps its pruning.
fn dynamic_config() -> DynamicConfig {
    DynamicConfig {
        oracle: OracleMaintenance::Rebuild,
        ..DynamicConfig::default()
    }
}

/// Set-up times of every repetition, seconds at nominal host speed.
#[derive(Default)]
struct SetupTimes {
    generate: Vec<f64>,
    build: Vec<f64>,
    oracle: Vec<f64>,
    register: Vec<f64>,
    total: Vec<f64>,
}

/// The four standing query sets of a run.
fn standing_sets(strata: &Strata, net: &RoadNetwork, seed: u64) -> Vec<Vec<NetPosition>> {
    STANDING_BINS
        .iter()
        .enumerate()
        .map(|(k, &bin)| strata.draw(net, seed, STREAM_STANDING, k as u64, bin))
        .collect()
}

/// Generates the dataset and standing queries, builds the engine and its
/// bound, and registers the standing queries, timing each step.
fn set_up(
    w: Workload,
    seed: u64,
    strata: &Strata,
    speed: f64,
    times: &mut SetupTimes,
) -> (DynamicEngine, Vec<QueryId>) {
    let secs = |t: Instant| t.elapsed().as_secs_f64() * speed;
    let t = Instant::now();
    let net = w.preset().generate(NETWORK_SEED);
    let objects = generate_objects(&net, OMEGA, OBJECT_SEED);
    let standing = if w.churns() {
        standing_sets(strata, &net, seed)
    } else {
        Vec::new()
    };
    let generate = secs(t);

    let t = Instant::now();
    let mut engine = SkylineEngine::build(net, objects);
    let build = secs(t);

    let t = Instant::now();
    engine.set_bound(w.bound());
    let oracle = secs(t);

    let t = Instant::now();
    let mut dynamic = DynamicEngine::with_config(engine, dynamic_config());
    let ids = standing.iter().map(|q| dynamic.register_query(q)).collect();
    let register = secs(t);

    times.generate.push(generate);
    times.build.push(build);
    times.oracle.push(oracle);
    times.register.push(register);
    times.total.push(generate + build + oracle + register);
    (dynamic, ids)
}

fn digest_dataset(d: &DynamicEngine, ids: &[QueryId], digest: &mut Digest) {
    let net = d.engine().network();
    for n in net.nodes() {
        digest.f64(n.point.x);
        digest.f64(n.point.y);
    }
    for e in net.edges() {
        digest.u64(u64::from(e.u.0));
        digest.u64(u64::from(e.v.0));
        digest.f64(e.length);
    }
    for slot in d.engine().mid_ref().slots() {
        match slot {
            Some(p) => digest_positions(&[p], digest),
            None => digest.u64(u64::MAX),
        }
    }
    for &q in ids {
        digest_positions(d.query_points(q), digest);
    }
}

fn digest_positions(points: &[NetPosition], digest: &mut Digest) {
    for p in points {
        digest.u64(u64::from(p.edge.0));
        digest.f64(p.offset);
    }
}

/// Everything one run measured.
#[derive(Default)]
pub struct Tally {
    /// Executions attempted: engine calls plus update batches.
    pub attempted: u64,
    /// Executions that panicked, came back incomplete or answered wrong.
    pub failed: u64,
    /// Wall per execution (outside any span), per algorithm.
    wall_ms: [Vec<f64>; 3],
    /// Disk-model response per execution, all algorithms.
    response_ms: Vec<f64>,
    /// Counters over the first `min_sets` sets, per algorithm.
    prefix: [Work; 3],
    prefix_sets: u64,
    /// Counters over every set, per algorithm (for time shares).
    all: [Work; 3],
    /// `DynamicEngine::apply` latencies.
    update_ms: Vec<f64>,
    /// Maintenance counters over the batches of the first `min_sets`
    /// rounds.
    dyn_prefix: DynWork,
    /// Host speed factor measured before each query set.
    speed: Vec<f64>,
    /// Wall of the root spans (engine calls plus replay) and of the
    /// engine calls alone, over the same sets (traced runs only).
    traced_ms: f64,
    untraced_ms: f64,
}

impl Tally {
    fn record(&mut self, execs: &[Exec; 3], prefix: bool) {
        for (a, e) in execs.iter().enumerate() {
            self.wall_ms[a].push(e.wall_ms);
            self.response_ms
                .push(e.wall_ms + e.work.faults as f64 * IO_MS);
            self.all[a].add(&e.work);
            if prefix {
                self.prefix[a].add(&e.work);
            }
        }
        if prefix {
            self.prefix_sets += 1;
        }
    }

    /// Median host speed factor of the query phase: a reported time
    /// divided by it is the raw wall time.
    pub fn host_speed(&self) -> f64 {
        median(&self.speed)
    }

    /// Mean buffer-pool faults per execution over the fixed prefix.
    pub fn pages_per_query(&self) -> f64 {
        let faults: u64 = self.prefix.iter().map(|w| w.faults).sum();
        ratio(faults as f64, 3.0 * self.prefix_sets as f64)
    }

    #[cfg(test)]
    /// Every exactly-repeating quantity of the run: per-algorithm
    /// counters and maintenance counters over the fixed prefix.
    pub fn deterministic(&self) -> ([Work; 3], u64, DynWork) {
        (self.prefix, self.prefix_sets, self.dyn_prefix)
    }
}

/// The run's result.
pub struct Outcome {
    /// Counters, latencies and failure counts.
    pub tally: Tally,
    setup: SetupTimes,
    /// Digest of the generated inputs.
    pub digest: String,
    /// Spans of the traced run.
    pub tracer: Option<Tracer>,
    replay_counts: ReplayCounts,
}

/// Applies the next update batch, timing `DynamicEngine::apply`.
fn apply_batch(
    d: &mut DynamicEngine,
    batches: &mut Batches,
    speed: f64,
    tally: &mut Tally,
    prefix: bool,
    digest: &mut Digest,
) {
    let batch = batches.next(d);
    if prefix {
        digest.bytes(format!("{:?}", batch.updates()).as_bytes());
    }
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| d.apply(&batch)));
    let ms = started.elapsed().as_secs_f64() * 1e3 * speed;
    tally.attempted += 1;
    tally.update_ms.push(ms);
    match outcome {
        Ok(o) if prefix => tally.dyn_prefix.add(&o),
        Ok(_) => {}
        Err(_) => {
            tally.failed += 1;
            eprintln!("mismatch: update batch panicked");
        }
    }
}

/// Holds every standing skyline against a from-scratch engine over the
/// mutated network.
fn standing_match_scratch(d: &DynamicEngine, ids: &[QueryId]) -> bool {
    catch_unwind(AssertUnwindSafe(|| {
        let mut scratch = DynamicEngine::new(d.scratch_engine());
        ids.iter().all(|&q| {
            let s = scratch.register_query(d.query_points(q));
            canon(&d.skyline(q)) == canon(&scratch.skyline(s))
        })
    }))
    .unwrap_or(false)
}

/// Runs workload `w` under `plan`; traced runs also replay every layer.
pub fn run(w: Workload, seed: u64, trace: bool, plan: &Plan) -> Outcome {
    let mut clock = HostClock::default();
    let strata = Strata::calibrate(&w.preset().generate(NETWORK_SEED));
    let mut setup = SetupTimes::default();
    let mut built = None;
    let started = Instant::now();
    while setup.total.len() < plan.setup_reps.max(1)
        || (started.elapsed() < plan.setup_budget && setup.total.len() < MAX_SETUP_REPS)
    {
        drop(built.take());
        let speed = clock.speed();
        built = Some(set_up(w, seed, &strata, speed, &mut setup));
    }
    let (mut d, standing) = built.expect("set-up ran");
    let mut digest = Digest::default();
    digest_dataset(&d, &standing, &mut digest);
    let mut probe = (!w.churns()).then(|| {
        let mut p = DynamicEngine::with_config(d.scratch_engine(), dynamic_config());
        let ids: Vec<QueryId> = standing_sets(&strata, p.engine().network(), PROBE_SEED)
            .iter()
            .map(|points| {
                digest_positions(points, &mut digest);
                p.register_query(points)
            })
            .collect();
        (p, ids)
    });

    for i in 0..plan.warmup_sets {
        let queries = generate_queries(
            d.engine().network(),
            ARITY,
            REGION,
            stream_seed(seed, STREAM_WARMUP, i as u64),
        );
        for algo in Algorithm::PAPER_SET {
            // Warm-up answers are neither timed nor checked.
            let _ = catch_unwind(AssertUnwindSafe(|| d.engine().run_cold(algo, &queries)));
        }
    }

    let mut batches = Batches::new(w, seed, probe.as_ref().map(|(p, ids)| (p, &ids[..])));
    let mut tally = Tally::default();
    let mut tracer = trace.then(Tracer::default);
    let mut replay_counts = ReplayCounts::default();
    let phase = Instant::now();
    let mut set = 0;
    while set < plan.min_sets || phase.elapsed() < plan.seconds {
        let prefix = set < plan.min_sets;
        let (target, ids) = match probe.as_mut() {
            Some((p, ids)) => (p, &ids[..]),
            None => (&mut d, &standing[..]),
        };
        for _ in 0..w.batches_per_round() {
            let speed = clock.speed();
            apply_batch(target, &mut batches, speed, &mut tally, prefix, &mut digest);
        }
        if set % SCRATCH_EVERY == 0 && !standing_match_scratch(target, ids) {
            tally.failed += 1;
            eprintln!(
                "mismatch: {} round {set}: standing skylines differ from scratch",
                w.name()
            );
        }
        let engine = d.engine();
        let queries = strata.draw(
            engine.network(),
            seed,
            STREAM_QUERIES,
            set as u64,
            set % BINS,
        );
        if prefix {
            digest_positions(&queries, &mut digest);
        }
        let speed = clock.speed();
        tally.speed.push(speed);
        // Traced runs wrap the engine calls and the layer replay of the
        // same inputs in one root span per set.
        let root = tracer.as_mut().map(|tr| tr.open(set as u64, "query", None));
        let execs = run_set(engine, &queries, set, speed, tracer.as_mut().zip(root));
        if let (Some(tr), Some(root)) = (tracer.as_mut(), root) {
            if let Some(r) = &execs[0].result {
                replay(
                    engine,
                    &queries,
                    &r.skyline,
                    tr,
                    set as u64,
                    root,
                    &mut replay_counts,
                );
            }
            tally.traced_ms += tr.close(root, 1) as f64 / 1e6 * speed;
            tally.untraced_ms += execs.iter().map(|e| e.wall_ms).sum::<f64>();
        }
        tally.record(&execs, prefix);
        let brute = (set % BRUTE_EVERY == 0)
            .then(|| catch_unwind(AssertUnwindSafe(|| engine.run(Algorithm::Brute, &queries))).ok())
            .flatten()
            .map(|r| canon(&r.skyline));
        tally.attempted += 3;
        tally.failed += verify(w.name(), set, &execs, brute.as_ref());
        set += 1;
    }
    Outcome {
        tally,
        setup,
        digest: digest.hex(),
        tracer,
        replay_counts,
    }
}

impl Outcome {
    /// The printed metrics: end-to-end, or per-layer for a traced run.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        match &self.tracer {
            None => end_to_end(&mut m, &self.tally, &self.setup),
            Some(tr) => per_layer(&mut m, &self.tally, &self.setup, tr, &self.replay_counts),
        }
        m
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn p(samples: &[f64], q: f64, what: &str) -> f64 {
    percentile(samples, q)
        .unwrap_or_else(|| panic!("{what}: {} samples are too few for p{q}", samples.len()))
}

fn end_to_end(m: &mut Metrics, t: &Tally, setup: &SetupTimes) {
    m.set("setup_s", median(&setup.total));
    m.set("peak_rss_mb", peak_rss_mb());
    for (a, name) in ALGOS.iter().enumerate() {
        m.set(format!("{name}.p50_ms"), p(&t.wall_ms[a], 50.0, name));
        m.set(format!("{name}.p90_ms"), p(&t.wall_ms[a], 90.0, name));
    }
    let executions = t.response_ms.len() as f64;
    let query_wall_s: f64 = t.wall_ms.iter().flatten().sum::<f64>() / 1e3;
    m.set("queries_per_s", ratio(executions, query_wall_s));
    m.set("pages_per_query", t.pages_per_query());
    m.set("response_p50_ms", p(&t.response_ms, 50.0, "response"));
    m.set("update.p50_ms", p(&t.update_ms, 50.0, "update"));
    m.set("update.p90_ms", p(&t.update_ms, 90.0, "update"));
}

fn per_layer(
    m: &mut Metrics,
    t: &Tally,
    setup: &SetupTimes,
    tracer: &Tracer,
    counts: &ReplayCounts,
) {
    let totals = tracer.totals();
    // Span times are raw; scale them like the walls they are set against.
    let speed = t.host_speed();
    let span = |name: &str| {
        let s = totals.get(name).copied().unwrap_or_default();
        Totals {
            self_ns: (s.self_ns as f64 * speed) as u64,
            calls: s.calls,
        }
    };
    let warm_ns = span("storage.read_warm").ns_per_call();
    let cold = span("storage.read_cold");
    // A cold pass mixes faults with hits on pages it already pulled in;
    // charge the hits at the warm rate and the rest to the faults.
    let cold_hits = (counts.cold_reads - counts.cold_faults) as f64;
    let fault_ns = ratio(
        cold.self_ns as f64 - warm_ns * cold_hits,
        counts.cold_faults as f64,
    );
    // Settling reads the same records in the same cold state as the
    // storage replay; what remains is the shortest-path engine's own.
    let settle = span("sp.settle");
    let settle_ns = ratio(
        settle.self_ns as f64 - cold.self_ns as f64,
        settle.calls as f64,
    );
    let set_target_ns = span("sp.set_target").ns_per_call();
    let nn_ns = span("index.nn_step").ns_per_call();
    let mid_ns = span("index.mid_lookup").ns_per_call();
    let dominates_ns = span("skyline.dominates").ns_per_call();

    let sets = t.prefix_sets as f64;
    for (a, name) in ALGOS.iter().enumerate() {
        let pre = &t.prefix[a];
        let per = |x: u64| ratio(x as f64, sets);
        m.set(
            format!("storage.requests_per_query.{name}"),
            per(pre.requests),
        );
        m.set(format!("storage.faults_per_query.{name}"), per(pre.faults));
        m.set(
            format!("storage.hit_ratio.{name}"),
            ratio((pre.requests - pre.faults) as f64, pre.requests as f64),
        );
        m.set(
            format!("index.node_reads_per_query.{name}"),
            per(pre.rtree_reads + pre.mid_reads),
        );
        m.set(format!("sp.heap_pops_per_query.{name}"), per(pre.heap_pops));
        m.set(format!("sp.retargets_per_query.{name}"), per(pre.retargets));
        m.set(format!("sp.confirms_per_query.{name}"), per(pre.confirms));
        m.set(
            format!("sp.pack_sweeps_per_query.{name}"),
            per(pre.pack_sweeps),
        );
        m.set(
            format!("skyline.candidates_per_query.{name}"),
            per(pre.candidates),
        );
        m.set(format!("skyline.size_per_query.{name}"), per(pre.skyline));
        m.set(
            format!("skyline.useful_ratio.{name}"),
            ratio(pre.skyline as f64, pre.candidates as f64),
        );

        // Shares: replayed cost per call times the engine's own count,
        // over the untraced wall, all as totals over every set run.
        let all = &t.all[a];
        let wall_ns = t.wall_ms[a].iter().sum::<f64>() * 1e6;
        let share = |ns: f64| ratio(ns, wall_ns);
        let storage =
            share(all.faults as f64 * fault_ns + (all.requests - all.faults) as f64 * warm_ns);
        let index = share(all.rtree_reads as f64 * nn_ns + all.mid_reads as f64 * mid_ns);
        let retarget = share(all.retargets as f64 * set_target_ns);
        let sp = share(all.heap_pops as f64 * settle_ns) + retarget;
        let skyline = share(all.dominance_tests as f64 * dominates_ns);
        m.set(format!("storage.share.{name}"), storage);
        m.set(format!("index.share.{name}"), index);
        m.set(format!("sp.share.{name}"), sp);
        m.set(format!("sp.retarget_share.{name}"), retarget);
        m.set(format!("skyline.share.{name}"), skyline);
        m.set(
            format!("core.share.{name}"),
            1.0 - storage - index - sp - skyline,
        );
    }
    m.set("storage.read_cold_ns", fault_ns);
    m.set("storage.read_warm_ns", warm_ns);
    m.set("index.nn_step_ns", nn_ns);
    m.set("index.mid_lookup_ns", mid_ns);
    m.set("sp.settle_ns", settle_ns);
    m.set("sp.set_target_ns", set_target_ns);
    m.set("skyline.dominates_ns", dominates_ns);
    let per = |x: u64| ratio(x as f64, sets);
    m.set(
        "core.ce.distance_computations_per_query",
        per(t.prefix[0].ce_distances),
    );
    m.set(
        "core.edc.window_candidates_per_query",
        per(t.prefix[1].edc_window_candidates),
    );
    m.set("core.lbc.sessions_per_query", per(t.prefix[2].lbc_sessions));
    m.set(
        "core.lbc.plb_discards_per_query",
        per(t.prefix[2].lbc_plb_discards),
    );
    let dw = &t.dyn_prefix;
    m.set(
        "dyn.invalidated_per_batch",
        ratio(dw.invalidated as f64, dw.batches as f64),
    );
    m.set(
        "dyn.expansions_per_batch",
        ratio(dw.expansions as f64, dw.batches as f64),
    );
    m.set(
        "dyn.full_ratio",
        ratio(dw.full as f64, (dw.full + dw.incremental) as f64),
    );
    m.set("dyn.oracle_rebuilds", dw.oracle_rebuilds as f64);
    m.set("setup.generate_s", median(&setup.generate));
    m.set("setup.build_s", median(&setup.build));
    m.set("setup.oracle_s", median(&setup.oracle));
    m.set("setup.register_s", median(&setup.register));
    m.set("trace.overhead_ratio", ratio(t.traced_ms, t.untraced_ms));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(bits: u64) -> Option<Canon> {
        Some(vec![(3, vec![bits, 2]), (7, vec![5, 1])])
    }

    #[test]
    fn a_corrupted_skyline_trips_the_gate() {
        let good = answer(1.5f64.to_bits());
        // One flipped low bit in one distance of one algorithm.
        let bad = answer(1.5f64.to_bits() ^ 1);
        assert_eq!(
            failures(&[good.clone(), good.clone(), good.clone()], None),
            [false; 3]
        );
        assert_eq!(
            failures(&[good.clone(), bad.clone(), good.clone()], None),
            [false, true, false]
        );
        // Against a brute-force reference even a 2-to-1 majority fails.
        let reference = bad.clone().unwrap();
        assert_eq!(
            failures(&[good.clone(), bad.clone(), good.clone()], Some(&reference)),
            [true, false, true]
        );
        // A panicked or incomplete execution always fails, and without a
        // majority every answer does.
        assert_eq!(
            failures(&[None, good.clone(), good.clone()], None),
            [true, false, false]
        );
        assert_eq!(failures(&[good, bad, None], None), [true; 3]);
    }

    fn tiny() -> Plan {
        Plan {
            seconds: Duration::ZERO,
            min_sets: 3,
            warmup_sets: 1,
            setup_reps: 1,
            setup_budget: Duration::ZERO,
        }
    }

    #[test]
    fn counters_repeat_exactly_across_runs() {
        for w in [Workload::CaCold, Workload::CaChurn] {
            let a = run(w, 11, false, &tiny());
            let b = run(w, 11, false, &tiny());
            assert_eq!(a.tally.failed, 0, "{}", w.name());
            assert_eq!(a.digest, b.digest);
            assert_eq!(a.tally.deterministic(), b.tally.deterministic());
            assert!(a.tally.pages_per_query() > 0.0);
            assert_eq!(
                a.tally.pages_per_query().to_bits(),
                b.tally.pages_per_query().to_bits()
            );
            assert_ne!(a.digest, run(w, 12, false, &tiny()).digest);
        }
    }

    #[test]
    fn every_name_parses_back() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("na_cold"), None);
    }

    #[test]
    fn probe_batches_walk_the_reach_deciles() {
        let w = Workload::CaCold;
        let strata = Strata::calibrate(&w.preset().generate(NETWORK_SEED));
        let (d, _) = set_up(w, 5, &strata, 1.0, &mut SetupTimes::default());
        let mut probe = DynamicEngine::with_config(d.scratch_engine(), dynamic_config());
        let ids: Vec<QueryId> = standing_sets(&strata, probe.engine().network(), PROBE_SEED)
            .iter()
            .map(|points| probe.register_query(points))
            .collect();
        let mut batches = Batches::new(w, 5, Some((&probe, &ids)));
        for i in 0..2 * BINS {
            let batch = batches.next(&probe);
            let (points, edges) = batches
                .strata
                .as_ref()
                .expect("probe batches are stratified");
            let r = reach(probe.engine().network(), &batch, points);
            assert_eq!(edges.bin(r), i % BINS, "batch {i}");
            probe.apply(&batch);
        }
    }
}
