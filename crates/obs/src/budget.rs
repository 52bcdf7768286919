//! Query budgets and cooperative cancellation.
//!
//! A production skyline service cannot let one pathological query run
//! unboundedly: PAPER.md's cost analyses (§5–6) assume I/O always
//! succeeds and queries always finish, but the ROADMAP's north-star is
//! an engine serving heavy traffic, where a query must be able to stop
//! early and still return something sound. This module supplies the
//! mechanism:
//!
//! * [`QueryBudget`] — declarative limits (wall-clock deadline, node
//!   expansion cap, page-fault cap) plus an optional [`CancelToken`].
//! * [`ExecGuard`] — one per query run, created at query start. The
//!   shortest-path engines check it at heap-pop granularity, so a
//!   cap-based trip lands on the same heap pop on every run of a query.
//! * [`IncompleteReason`] — why a run stopped early; carried in the
//!   trace ([`crate::Event::Incomplete`]) and in the engine's partial
//!   result.
//!
//! Determinism: expansion and page-fault caps trip at a deterministic
//! point of the (deterministic) execution, so partial results under
//! them are bitwise reproducible at any worker count. Deadlines and
//! cancellation are wall-clock/asynchronous by nature and make only the
//! *soundness* guarantee (every confirmed point is in the true
//! skyline), not reproducibility — determinism tests must use caps.
//! See DESIGN.md §12.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shared flag for cooperative cancellation. Cloning hands out another
/// handle to the same flag; any handle can cancel, every guard built
/// from the token observes it at its next check.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Declarative execution limits for one query. The default is
/// unlimited: no deadline, no caps, no cancellation.
#[derive(Clone, Debug, Default)]
pub struct QueryBudget {
    /// Wall-clock deadline, measured from guard creation (query start).
    /// Non-deterministic by nature; see the module docs.
    pub deadline: Option<Duration>,
    /// Cap on node expansions (priority-queue settles) across every
    /// shortest-path engine the query drives. Deterministic.
    pub max_expansions: Option<u64>,
    /// Cap on buffer-pool page faults (cold + warm) attributed to this
    /// query. Deterministic for a fixed store/session layout.
    pub max_page_faults: Option<u64>,
    /// Cooperative cancellation handle.
    pub cancel: Option<CancelToken>,
}

impl QueryBudget {
    /// An unlimited budget (same as `QueryBudget::default()`).
    pub fn unlimited() -> QueryBudget {
        QueryBudget::default()
    }

    /// `true` when no limit of any kind is set — engines skip guard
    /// construction entirely in that case.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_expansions.is_none()
            && self.max_page_faults.is_none()
            && self.cancel.is_none()
    }

    /// Builder: set a wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> QueryBudget {
        self.deadline = Some(d);
        self
    }

    /// Builder: cap node expansions.
    pub fn with_max_expansions(mut self, n: u64) -> QueryBudget {
        self.max_expansions = Some(n);
        self
    }

    /// Builder: cap page faults.
    pub fn with_max_page_faults(mut self, n: u64) -> QueryBudget {
        self.max_page_faults = Some(n);
        self
    }

    /// Builder: attach a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> QueryBudget {
        self.cancel = Some(token);
        self
    }
}

/// Why a query stopped before completing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum IncompleteReason {
    /// The [`CancelToken`] was cancelled.
    Cancelled = 1,
    /// The wall-clock deadline passed.
    Deadline = 2,
    /// The node-expansion cap was reached.
    ExpansionCap = 3,
    /// The page-fault cap was reached.
    PageFaultCap = 4,
}

impl IncompleteReason {
    /// Stable lowercase label, used in trace events and reports.
    pub fn label(self) -> &'static str {
        match self {
            IncompleteReason::Cancelled => "cancelled",
            IncompleteReason::Deadline => "deadline",
            IncompleteReason::ExpansionCap => "expansion-cap",
            IncompleteReason::PageFaultCap => "page-fault-cap",
        }
    }

    fn from_code(code: u8) -> Option<IncompleteReason> {
        match code {
            1 => Some(IncompleteReason::Cancelled),
            2 => Some(IncompleteReason::Deadline),
            3 => Some(IncompleteReason::ExpansionCap),
            4 => Some(IncompleteReason::PageFaultCap),
            _ => None,
        }
    }
}

/// Runtime enforcement of a [`QueryBudget`] for one query run.
///
/// The guard latches: the first limit to trip records its reason, and
/// every later check reports tripped without re-evaluating. All state
/// is atomic so a single guard can be shared by reference across the
/// engines of one query.
#[derive(Debug)]
pub struct ExecGuard {
    deadline: Option<Instant>,
    max_expansions: Option<u64>,
    max_page_faults: Option<u64>,
    cancel: Option<CancelToken>,
    /// Page faults already attributed to the store when the query
    /// started; the cap applies to the delta.
    fault_base: u64,
    /// Expansions admitted through [`ExecGuard::tick_expansion`].
    expansions: AtomicU64,
    tripped: AtomicBool,
    reason: AtomicU8,
}

impl ExecGuard {
    /// Builds a guard for one query run. `fault_base` is the store's
    /// current total fault count (cold + warm); the page-fault cap
    /// applies to faults beyond it. The deadline clock starts now.
    // lint: allow(det-taint) — deadline budgets are wall-clock by
    // design (DESIGN.md §12): tripping one yields a *sound partial*
    // result, it never alters the contents or order of what is
    // returned, so the clock cannot leak into result bytes.
    pub fn new(budget: &QueryBudget, fault_base: u64) -> ExecGuard {
        ExecGuard {
            deadline: budget.deadline.map(|d| Instant::now() + d),
            max_expansions: budget.max_expansions,
            max_page_faults: budget.max_page_faults,
            cancel: budget.cancel.clone(),
            fault_base,
            expansions: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
            reason: AtomicU8::new(0),
        }
    }

    /// Hot-path check, called once per heap pop *before* the pop.
    /// `faults_now` is the store's current total fault count. Returns
    /// `false` when the budget is exhausted — the caller must stop
    /// expanding and surface an interrupted (not exhausted) wavefront.
    // lint: allow(det-taint) — the deadline comparison reads the wall
    // clock, but a trip only truncates the search (sound partial); the
    // surviving results are byte-identical to an untruncated prefix.
    #[inline]
    pub fn tick_expansion(&self, faults_now: u64) -> bool {
        if self.tripped.load(Ordering::Relaxed) {
            return false;
        }
        let n = self.expansions.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(cap) = self.max_expansions {
            if n > cap {
                self.trip(IncompleteReason::ExpansionCap);
                return false;
            }
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                self.trip(IncompleteReason::Cancelled);
                return false;
            }
        }
        if let Some(cap) = self.max_page_faults {
            if faults_now.saturating_sub(self.fault_base) > cap {
                self.trip(IncompleteReason::PageFaultCap);
                return false;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.trip(IncompleteReason::Deadline);
                return false;
            }
        }
        true
    }

    /// Whether any limit has tripped.
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }

    /// The first limit that tripped, if any.
    pub fn reason(&self) -> Option<IncompleteReason> {
        IncompleteReason::from_code(self.reason.load(Ordering::Relaxed))
    }

    /// Expansions admitted so far through [`ExecGuard::tick_expansion`].
    pub fn expansions(&self) -> u64 {
        self.expansions.load(Ordering::Relaxed)
    }

    fn trip(&self, r: IncompleteReason) {
        if self
            .tripped
            .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            self.reason.store(r as u8, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let g = ExecGuard::new(&QueryBudget::unlimited(), 0);
        for _ in 0..10_000 {
            assert!(g.tick_expansion(999));
        }
        assert!(g.tick_expansion(u64::MAX));
        assert!(!g.tripped());
        assert_eq!(g.reason(), None);
    }

    #[test]
    fn expansion_cap_trips_at_exact_count_and_latches() {
        let b = QueryBudget::unlimited().with_max_expansions(5);
        let g = ExecGuard::new(&b, 0);
        for _ in 0..5 {
            assert!(g.tick_expansion(0));
        }
        assert!(!g.tick_expansion(0), "6th expansion must be refused");
        assert!(g.tripped());
        assert_eq!(g.reason(), Some(IncompleteReason::ExpansionCap));
        // Latched: later checks stay tripped and keep the first reason.
        assert!(!g.tick_expansion(0));
        assert!(g.tripped());
        assert_eq!(g.reason(), Some(IncompleteReason::ExpansionCap));
    }

    #[test]
    fn fault_cap_applies_to_the_delta_past_the_base() {
        let b = QueryBudget::unlimited().with_max_page_faults(3);
        let g = ExecGuard::new(&b, 100);
        assert!(g.tick_expansion(103), "delta 3 == cap is within budget");
        assert!(!g.tick_expansion(104), "delta 4 > cap trips");
        assert_eq!(g.reason(), Some(IncompleteReason::PageFaultCap));
    }

    #[test]
    fn cancel_token_trips_every_guard_built_from_it() {
        let token = CancelToken::new();
        let b = QueryBudget::unlimited().with_cancel(token.clone());
        let g1 = ExecGuard::new(&b, 0);
        let g2 = ExecGuard::new(&b, 0);
        assert!(g1.tick_expansion(0));
        token.cancel();
        assert!(!g1.tick_expansion(0));
        assert!(!g2.tick_expansion(0));
        assert_eq!(g1.reason(), Some(IncompleteReason::Cancelled));
        assert_eq!(g2.reason(), Some(IncompleteReason::Cancelled));
    }

    #[test]
    fn elapsed_deadline_trips_immediately() {
        let b = QueryBudget::unlimited().with_deadline(Duration::from_secs(0));
        let g = ExecGuard::new(&b, 0);
        assert!(!g.tick_expansion(0));
        assert_eq!(g.reason(), Some(IncompleteReason::Deadline));
    }

    #[test]
    fn reason_labels_are_stable() {
        assert_eq!(IncompleteReason::Cancelled.label(), "cancelled");
        assert_eq!(IncompleteReason::Deadline.label(), "deadline");
        assert_eq!(IncompleteReason::ExpansionCap.label(), "expansion-cap");
        assert_eq!(IncompleteReason::PageFaultCap.label(), "page-fault-cap");
    }

    #[test]
    fn is_unlimited_reflects_any_limit() {
        assert!(QueryBudget::default().is_unlimited());
        assert!(!QueryBudget::default().with_max_expansions(1).is_unlimited());
        assert!(!QueryBudget::default()
            .with_cancel(CancelToken::new())
            .is_unlimited());
    }
}
