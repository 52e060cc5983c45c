//! Reference (pre-optimization) partitioner implementations.
//!
//! These are faithful transcriptions of the placement loops as they existed
//! before the [`crate::engine::ProbeEngine`] rewrite: every probe builds a
//! fresh `WithTask` view and runs the generic `Theorem1::compute`, every
//! commit recomputes the core utilization from the updated table, and the
//! imbalance factor rescans the utilization vector. They are deliberately
//! *slow* and exist for three reasons:
//!
//! * the differential property tests assert the optimized partitioners emit
//!   **identical partitions** (`tests/probe_engine_differential.rs`);
//! * `mcs-exp perf` measures them as the baseline the engine's speedup is
//!   reported against (`BENCH_partition.json`);
//! * `crates/bench/benches/probe_hot.rs` pits the probe kernels against
//!   each other directly.
//!
//! [`reference_repair_move`] is the one-move repair search as it stood
//! before [`crate::RepairSearch`] memoized it: per core, a cloned and
//! sorted member list, a swap probe per resident, then a scalar probe per
//! other core. [`crate::AdmissionEngine::with_reference_repair`] runs the
//! admission engine on it, the oracle of the repair differential tests.
//!
//! Do not "fix" or optimize these — their value is being the old code.

use mcs_analysis::Theorem1;
use mcs_model::{CoreId, McTask, Partition, TaskId, TaskSet, UtilTable, WithTask};

use crate::binpack::{BinPacker, Placement};
use crate::catpa::{imbalance, probe, DEFAULT_ALPHA};
use crate::contribution::order_by_contribution;
use crate::engine::ProbeEngine;
use crate::fit::FitTest;
use crate::repair::RepairMove;
use crate::{PartitionFailure, Partitioner};

/// The original CA-TPA loop: per-probe `WithTask` + `Theorem1::compute`,
/// per-commit recomputation, per-placement imbalance rescan.
#[derive(Clone, Debug)]
pub struct ReferenceCatpa {
    /// Imbalance threshold α; `None` disables the fallback.
    pub alpha: Option<f64>,
}

impl Default for ReferenceCatpa {
    fn default() -> Self {
        Self { alpha: Some(DEFAULT_ALPHA) }
    }
}

impl Partitioner for ReferenceCatpa {
    fn name(&self) -> &'static str {
        "CA-TPA(ref)"
    }

    fn partition(&self, ts: &TaskSet, cores: usize) -> Result<Partition, PartitionFailure> {
        assert!(cores >= 1, "need at least one core");
        let order = order_by_contribution(ts);
        let mut tables: Vec<UtilTable> =
            (0..cores).map(|_| UtilTable::new(ts.num_levels())).collect();
        let mut utils = vec![0.0f64; cores];
        let mut partition = Partition::empty(cores, ts.len());

        for (placed, &id) in order.iter().enumerate() {
            let task = ts.task(id);
            let rebalance = self.alpha.is_some_and(|alpha| imbalance(&utils) > alpha);
            let mut best: Option<(usize, f64)> = None;
            for (m, table) in tables.iter().enumerate() {
                let Some(new_u) = probe(table, task) else { continue };
                let key = if rebalance { utils[m] } else { new_u - utils[m] };
                if best.is_none_or(|(_, bk)| key < bk) {
                    best = Some((m, key));
                }
            }
            let Some((m, _)) = best else {
                return Err(PartitionFailure { task: id, placed });
            };
            tables[m].add(task);
            utils[m] = Theorem1::compute(&tables[m])
                .core_utilization()
                .expect("committed assignment was probed feasible");
            partition.assign(id, CoreId(u16::try_from(m).expect("core fits u16")));
        }
        Ok(partition)
    }
}

/// Original per-core state of the bin-packing family.
struct RefCoreState {
    table: UtilTable,
    load: f64,
}

fn ref_cores(k: u8, cores: usize) -> Vec<RefCoreState> {
    (0..cores).map(|_| RefCoreState { table: UtilTable::new(k), load: 0.0 }).collect()
}

/// The original `choose_core`: fit tests through fresh `WithTask` views.
fn ref_choose_core(
    placement: Placement,
    fit: FitTest,
    cores: &[RefCoreState],
    task: &McTask,
    cursor: &mut usize,
) -> Option<usize> {
    let fits = |m: usize| -> bool { fit.feasible(&WithTask::new(&cores[m].table, task)) };
    match placement {
        Placement::FirstFit => (0..cores.len()).find(|&m| fits(m)),
        Placement::BestFit => {
            let mut best: Option<(usize, f64)> = None;
            for (m, core) in cores.iter().enumerate() {
                if fits(m) {
                    let load = core.load;
                    if best.is_none_or(|(_, bl)| load > bl) {
                        best = Some((m, load));
                    }
                }
            }
            best.map(|(m, _)| m)
        }
        Placement::WorstFit => {
            let mut best: Option<(usize, f64)> = None;
            for (m, core) in cores.iter().enumerate() {
                if fits(m) {
                    let load = core.load;
                    if best.is_none_or(|(_, bl)| load < bl) {
                        best = Some((m, load));
                    }
                }
            }
            best.map(|(m, _)| m)
        }
        Placement::NextFit => {
            for step in 0..cores.len() {
                let m = (*cursor + step) % cores.len();
                if fits(m) {
                    *cursor = m;
                    return Some(m);
                }
            }
            None
        }
    }
}

/// The original decreasing bin-packer loop.
#[derive(Clone, Debug)]
pub struct ReferenceBinPacker {
    placement: Placement,
    fit: FitTest,
    name: &'static str,
}

impl ReferenceBinPacker {
    /// Reference twin of [`BinPacker::ffd`].
    #[must_use]
    pub fn ffd() -> Self {
        Self { placement: Placement::FirstFit, fit: FitTest::default(), name: "FFD(ref)" }
    }

    /// Reference twin of [`BinPacker::bfd`].
    #[must_use]
    pub fn bfd() -> Self {
        Self { placement: Placement::BestFit, fit: FitTest::default(), name: "BFD(ref)" }
    }

    /// Reference twin of [`BinPacker::wfd`].
    #[must_use]
    pub fn wfd() -> Self {
        Self { placement: Placement::WorstFit, fit: FitTest::default(), name: "WFD(ref)" }
    }

    /// Reference twin of [`BinPacker::nfd`].
    #[must_use]
    pub fn nfd() -> Self {
        Self { placement: Placement::NextFit, fit: FitTest::default(), name: "NFD(ref)" }
    }

    /// Override the fit test.
    #[must_use]
    pub fn with_fit(mut self, fit: FitTest) -> Self {
        self.fit = fit;
        self
    }
}

impl Partitioner for ReferenceBinPacker {
    fn name(&self) -> &'static str {
        self.name
    }

    fn partition(&self, ts: &TaskSet, cores: usize) -> Result<Partition, PartitionFailure> {
        assert!(cores >= 1, "need at least one core");
        let order = BinPacker::decreasing_max_util_order(ts);
        let mut state = ref_cores(ts.num_levels(), cores);
        let mut partition = Partition::empty(cores, ts.len());
        let mut cursor = 0usize;
        for (placed, task) in order.iter().enumerate() {
            match ref_choose_core(self.placement, self.fit, &state, task, &mut cursor) {
                Some(m) => {
                    state[m].table.add(task);
                    state[m].load += task.util_own();
                    partition.assign(task.id(), CoreId(u16::try_from(m).expect("core fits u16")));
                }
                None => return Err(PartitionFailure { task: task.id(), placed }),
            }
        }
        Ok(partition)
    }
}

/// The original Hybrid (WFD-then-FFD) loop.
#[derive(Clone, Debug)]
pub struct ReferenceHybrid {
    split: u8,
    fit: FitTest,
}

impl Default for ReferenceHybrid {
    fn default() -> Self {
        Self { split: 2, fit: FitTest::default() }
    }
}

impl ReferenceHybrid {
    /// Override the fit test.
    #[must_use]
    pub fn with_fit(mut self, fit: FitTest) -> Self {
        self.fit = fit;
        self
    }
}

impl Partitioner for ReferenceHybrid {
    fn name(&self) -> &'static str {
        "Hybrid(ref)"
    }

    fn partition(&self, ts: &TaskSet, cores: usize) -> Result<Partition, PartitionFailure> {
        assert!(cores >= 1, "need at least one core");
        let order = BinPacker::decreasing_max_util_order(ts);
        let (high, low): (Vec<&McTask>, Vec<&McTask>) =
            order.into_iter().partition(|t| t.level().get() >= self.split);

        let mut state = ref_cores(ts.num_levels(), cores);
        let mut partition = Partition::empty(cores, ts.len());
        let mut placed = 0usize;
        let mut cursor = 0usize;

        for (phase_placement, tasks) in [(Placement::WorstFit, &high), (Placement::FirstFit, &low)]
        {
            for task in tasks.iter() {
                match ref_choose_core(phase_placement, self.fit, &state, task, &mut cursor) {
                    Some(m) => {
                        state[m].table.add(task);
                        state[m].load += task.util_own();
                        partition
                            .assign(task.id(), CoreId(u16::try_from(m).expect("core fits u16")));
                        placed += 1;
                    }
                    None => return Err(PartitionFailure { task: task.id(), placed }),
                }
            }
        }
        Ok(partition)
    }
}

/// The five paper schemes in their pre-optimization form, in plot order —
/// the baseline fleet of `mcs-exp perf`.
#[must_use]
pub fn reference_paper_schemes() -> Vec<Box<dyn Partitioner + Send + Sync>> {
    vec![
        Box::new(ReferenceBinPacker::wfd()),
        Box::new(ReferenceBinPacker::ffd()),
        Box::new(ReferenceBinPacker::bfd()),
        Box::new(ReferenceHybrid::default()),
        Box::new(ReferenceCatpa::default()),
    ]
}

/// The original one-move repair search: for every core `m` and resident
/// `cand` on `m` (smallest own-level utilization first), the first move
/// where `stuck` fits on `m` without `cand` (swap probe) and `cand` fits
/// on another core (scalar probes, lowest core first). Clones and sorts
/// every member list and probes from scratch on every call.
#[must_use]
pub fn reference_repair_move(
    engine: &ProbeEngine,
    members: &[Vec<TaskId>],
    stuck: TaskId,
) -> Option<RepairMove> {
    for (m, resident) in members.iter().enumerate().take(engine.num_cores()) {
        let mut candidates = resident.clone();
        candidates.sort_by(|a, b| {
            engine.util_own(*a).partial_cmp(&engine.util_own(*b)).expect("utilizations are finite")
        });
        for cand in candidates {
            // (a) Would `stuck` fit on m without `cand`?
            if !engine.probe_swap_verdict(m, cand, stuck).feasible() {
                continue;
            }
            // (b) Does `cand` fit elsewhere?
            let target = (0..engine.num_cores())
                .find(|&m2| m2 != m && engine.probe_verdict(m2, cand).feasible());
            let Some(m2) = target else { continue };
            return Some(RepairMove { from: m, cand, to: m2 });
        }
    }
    None
}
