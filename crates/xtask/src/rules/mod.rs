//! Rule dispatch: which rules run where, and the two rule families.
//!
//! *Lexical* rules ([`lexical`]) run per file on the shared token
//! stream. *Reachability* rules ([`det_taint`], [`panic_path`],
//! [`lock_reach`]) run once per workspace on the call graph built by
//! [`crate::analysis`].

pub mod det_taint;
pub mod lexical;
pub mod lock_reach;
pub mod panic_path;

use crate::analysis::{FileAnalysis, Workspace};
use crate::report::Violation;

pub use lexical::MetricRegistry;

/// Rule identifiers, as used in findings and `lint: allow(...)` comments.
pub const RULE_FLOAT_ORD: &str = "float-ord";
/// See [`RULE_FLOAT_ORD`].
pub const RULE_HASH_ORDER: &str = "hash-order";
/// See [`RULE_FLOAT_ORD`].
pub const RULE_UNSAFE: &str = "unsafe";
/// See [`RULE_FLOAT_ORD`].
pub const RULE_APSP: &str = "apsp";
/// See [`RULE_FLOAT_ORD`].
pub const RULE_HOT_LOCK: &str = "hot-lock";
/// See [`RULE_FLOAT_ORD`].
pub const RULE_METRIC_NAME: &str = "metric-name";
/// See [`RULE_FLOAT_ORD`].
pub const RULE_SHARD_LOCK: &str = "shard-lock";
/// See [`RULE_FLOAT_ORD`].
pub const RULE_DET_TAINT: &str = "det-taint";
/// See [`RULE_FLOAT_ORD`].
pub const RULE_PANIC_PATH: &str = "panic-path";
/// See [`RULE_FLOAT_ORD`].
pub const RULE_LOCK_REACH: &str = "lock-reach";

/// The per-node hot path: shortest-path expansion, the parallel
/// primitives, and the algorithm drivers that run inside worker
/// threads. The storage layer is deliberately outside this scope:
/// its session-confined `Mutex<BufferPool>` is never contended
/// across workers (each worker gets a private session) — which is
/// exactly what the cross-file `lock-reach` rule audits.
pub(crate) fn hot_path_file(rel: &str) -> bool {
    rel.starts_with("crates/sp/src/")
        || rel.starts_with("crates/par/src/")
        || [
            "crates/core/src/ce.rs",
            "crates/core/src/edc.rs",
            "crates/core/src/lbc.rs",
            "crates/core/src/nnq.rs",
            "crates/core/src/batch.rs",
        ]
        .contains(&rel)
}

/// Which lexical rules apply to a file, derived from its
/// workspace-relative path.
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    pub(crate) check_float_ord: bool,
    pub(crate) check_hash_order: bool,
    pub(crate) check_apsp: bool,
    pub(crate) check_hot_lock: bool,
    pub(crate) check_shard_lock: bool,
    pub(crate) is_crate_root: bool,
    pub(crate) whole_file_is_test: bool,
}

impl Scope {
    /// Derives the scope for a workspace-relative path.
    pub fn of(rel: &str) -> Scope {
        let hash_scoped = rel.starts_with("crates/sp/src/")
            || [
                "crates/core/src/ce.rs",
                "crates/core/src/edc.rs",
                "crates/core/src/lbc.rs",
                "crates/core/src/nnq.rs",
            ]
            .contains(&rel);
        let apsp_scoped = [
            "crates/core/",
            "crates/sp/",
            "crates/index/",
            "crates/skyline/",
            "crates/graph/",
            "crates/storage/",
            "crates/workload/",
        ]
        .iter()
        .any(|p| rel.starts_with(p));
        // Crate roots that must carry #![forbid(unsafe_code)].
        let is_crate_root = {
            let parts: Vec<&str> = rel.split('/').collect();
            matches!(
                parts.as_slice(),
                ["crates" | "shims", _, "src", "lib.rs" | "main.rs"]
            )
        };
        // Integration tests (crates/*/tests/*.rs, tests/*.rs) are test
        // code wholesale; no #[cfg(test)] marker exists in them.
        let whole_file_is_test =
            rel.starts_with("tests/") || rel.split('/').any(|seg| seg == "tests");
        Scope {
            check_float_ord: rel != "crates/geom/src/ordf64.rs",
            check_hash_order: hash_scoped,
            check_apsp: apsp_scoped,
            check_hot_lock: hot_path_file(rel),
            // The sharded pool is the one file where a `Mutex` guards a
            // pool shard; two `.lock()` sites in one body there is the
            // deadlock shape the pool's design note rules out.
            check_shard_lock: rel == "crates/storage/src/shard.rs",
            is_crate_root,
            whole_file_is_test,
        }
    }
}

/// Runs every applicable lexical rule over one analyzed file. `raw` is
/// the unblanked source (the metric-name rule reads literal contents
/// from it at the offsets the token stream found).
pub fn lint_file_analysis(
    fa: &FileAnalysis,
    raw: &str,
    scope: &Scope,
    registry: Option<&MetricRegistry>,
    out: &mut Vec<Violation>,
) {
    if scope.check_float_ord {
        lexical::rule_float_ord(fa, out);
    }
    if scope.check_hash_order {
        lexical::rule_hash_order(fa, out);
    }
    if scope.is_crate_root {
        lexical::rule_forbid_unsafe(fa, out);
    }
    if scope.check_apsp {
        lexical::rule_apsp(fa, out);
    }
    if scope.check_hot_lock {
        lexical::rule_hot_lock(fa, out);
    }
    if scope.check_shard_lock {
        lexical::rule_shard_lock(fa, out);
    }
    if let Some(reg) = registry {
        lexical::rule_metric_name(fa, raw, reg, out);
    }
}

/// Runs the workspace-wide reachability rules over the call graph.
pub fn graph_rules(ws: &Workspace, out: &mut Vec<Violation>) {
    det_taint::run(ws, out);
    panic_path::run(ws, out);
    lock_reach::run(ws, out);
}
