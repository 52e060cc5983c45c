//! # mcs-partition
//!
//! Task-to-core partitioning for mixed-criticality systems — the primary
//! contribution of the ICPP'16 paper — plus every baseline it compares
//! against.
//!
//! * [`catpa`] — **CA-TPA** (Algorithm 1): tasks ordered by *utilization
//!   contribution*, probe-based core selection minimizing the increment of
//!   the Theorem-1 core utilization, with the workload-imbalance threshold α;
//! * [`binpack`] — the classical decreasing heuristics FFD / BFD / WFD (and
//!   next-fit), ordered by maximum utilization, with the paper's two-stage
//!   fit test (Eq. (4), then Theorem 1);
//! * [`hybrid`] — the Hybrid scheme of Rodriguez et al. \[28\]: WFD for
//!   high-criticality tasks, then FFD for low-criticality ones;
//! * [`mod@contribution`] — utilization contribution (Eq. (12)–(13)) and the
//!   paper's ordering-priority relation;
//! * [`fit`] — feasibility predicates shared by all heuristics;
//! * [`metrics`] — partition quality: `U_sys` (Eq. (10)), `U_avg`
//!   (Eq. (11)), the workload imbalance factor `Λ` (Eq. (16));
//! * [`ablation`] — CA-TPA variants isolating each design choice (ordering
//!   rule, probe objective, fit test, imbalance fallback) for the ablation
//!   experiments;
//! * [`engine`] — the incremental [`ProbeEngine`] all probe-style heuristics
//!   run on: precomputed task rows, per-core running sums, batch probes over
//!   a thread-local scratch — bit-identical to the generic Theorem-1 path;
//! * [`admission`] — the online [`AdmissionEngine`]: a task-lifecycle state
//!   machine over the probe engine serving admit/depart streams, with
//!   registry-derived admission policies and repair-on-reject relocation;
//! * [`reference`] — the pre-optimization placement loops, kept as the
//!   differential-test oracle and the `mcs-exp perf` baseline.

#![forbid(unsafe_code)]

pub mod ablation;
pub mod admission;
pub mod anneal;
pub mod binpack;
pub mod catpa;
pub mod contribution;
pub mod dbfpart;
pub mod engine;
pub mod exact;
pub mod fit;
pub mod fppart;
pub mod hybrid;
pub mod metrics;
pub mod reference;
pub mod registry;
pub mod repair;

use std::fmt;

pub use ablation::{CatpaVariant, Objective, Ordering as CatpaOrdering};
pub use admission::{AdmissionEngine, AdmissionPolicy, AdmissionStats, Decision};
pub use anneal::SimAnneal;
pub use binpack::{BinPacker, Placement};
pub use catpa::{Catpa, DEFAULT_ALPHA};
pub use contribution::{contribution, order_by_contribution, ordering_priority};
pub use dbfpart::DbfFirstFit;
pub use engine::{with_scratch, PlacementScratch, ProbeEngine};
pub use exact::{ExactBnb, ExactOutcome};
pub use fit::FitTest;
pub use fppart::{FpAmc, FpOrdering, FpPriorities};
pub use hybrid::Hybrid;
pub use metrics::{PartitionQuality, QualityScratch, QualitySummary};
pub use reference::{
    reference_paper_schemes, reference_repair_move, ReferenceBinPacker, ReferenceCatpa,
    ReferenceHybrid,
};
pub use registry::{
    BaselineFit, SchemeFlags, SchemeInfo, SchemeRegistry, AUDIT_SET, DUAL_SET, GAP_SET, PAPER_SET,
};
pub use repair::{CatpaLs, RepairMove, RepairSearch};

use mcs_model::{Partition, TaskId, TaskSet};

/// Failure to find a feasible partitioning: the first task that could not be
/// placed on any core, plus how many tasks had already been placed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionFailure {
    /// The task no core could feasibly accommodate.
    pub task: TaskId,
    /// Number of tasks successfully placed before the failure.
    pub placed: usize,
}

impl fmt::Display for PartitionFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no core can feasibly accommodate task {} (after placing {})",
            self.task, self.placed
        )
    }
}

impl std::error::Error for PartitionFailure {}

/// A task-to-core partitioning heuristic.
pub trait Partitioner {
    /// Short display name (used in experiment tables: "CA-TPA", "FFD", …).
    fn name(&self) -> &'static str;

    /// Try to produce a complete, feasible partition of `ts` on `cores`
    /// cores (feasible = every core passes the EDF-VD test used by the
    /// scheme).
    fn partition(&self, ts: &TaskSet, cores: usize) -> Result<Partition, PartitionFailure>;

    /// Whether a successful partition certifies per-core EDF-VD Theorem-1
    /// feasibility. True for CA-TPA and the bin-packing family (their
    /// admission test is Eq. (4)/Theorem 1); false for schemes with a
    /// different admission test (DBF, FP-AMC), whose partitions the audit
    /// layer checks structurally only.
    fn certifies_theorem1(&self) -> bool {
        true
    }
}

impl<P: Partitioner + ?Sized> Partitioner for &P {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn partition(&self, ts: &TaskSet, cores: usize) -> Result<Partition, PartitionFailure> {
        (**self).partition(ts, cores)
    }
    fn certifies_theorem1(&self) -> bool {
        (**self).certifies_theorem1()
    }
}

impl<P: Partitioner + ?Sized> Partitioner for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn partition(&self, ts: &TaskSet, cores: usize) -> Result<Partition, PartitionFailure> {
        (**self).partition(ts, cores)
    }
    fn certifies_theorem1(&self) -> bool {
        (**self).certifies_theorem1()
    }
}

/// The five schemes evaluated in the paper's figures, in their plot order.
///
/// Baselines use the paper-text reading of §IV-A: Eq. (4) first, then the
/// improved Theorem-1 test. See [`paper_schemes_weak`] for the alternative
/// reading.
#[must_use]
pub fn paper_schemes() -> Vec<Box<dyn Partitioner + Send + Sync>> {
    SchemeRegistry::standard().build_set(&PAPER_SET, &SchemeFlags::default())
}

/// The same five schemes, but with the *classical* baselines: WFD, FFD, BFD
/// and Hybrid admit a task only under the pessimistic Eq. (4) test — how
/// the prior partitioned-MC literature the paper compares against (\[22\],
/// \[28\]) actually assesses fit. Only CA-TPA exploits the improved
/// Theorem-1 condition. This reading reproduces the paper's reported
/// CA-TPA advantage; the strong-baseline reading ([`paper_schemes`]) mostly
/// erases it (see EXPERIMENTS.md).
#[must_use]
pub fn paper_schemes_weak() -> Vec<Box<dyn Partitioner + Send + Sync>> {
    SchemeRegistry::standard().build_set(&PAPER_SET, &SchemeFlags::weak())
}
