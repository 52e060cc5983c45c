//! The one-move repair search, and CA-TPA with first-order repair (local
//! search) — an extension beyond the paper: when the greedy pass strands
//! a task, try to *relocate one already placed task* to make room instead
//! of failing outright. This recovers a slice of the optimality gap the
//! exact search exposes (see `mcs-exp gap`) at a small polynomial cost.
//!
//! Repair step for an unplaceable task `τ`: for every core `m` and every
//! task `τ'` currently on `m` (smallest own-level utilization first),
//! check whether (a) `τ` fits on `m` once `τ'` is removed and (b) `τ'`
//! fits on some other core. The first such move is applied. Each repair
//! consumes one unit of the move budget; placement then continues
//! greedily.
//!
//! [`RepairSearch`] is the one implementation of that step, shared by
//! [`CatpaLs`] and the online [`crate::AdmissionEngine`]. It memoizes the
//! stuck-task-independent half (b) per core as a bitset refreshed by one
//! candidate-axis kernel sweep whenever the core's
//! [`ProbeEngine::core_epoch`] moves, so a search costs what the state
//! changed since the previous one, not what is resident. The pre-memo
//! loop survives verbatim as [`crate::reference::reference_repair_move`],
//! the differential oracle.

use mcs_model::{CoreId, Partition, TaskId, TaskSet};

use crate::catpa::{select_core, DEFAULT_ALPHA};
use crate::contribution::order_by_contribution_into;
use crate::engine::{with_scratch, PlacementScratch, ProbeEngine};
use crate::{PartitionFailure, Partitioner};

/// One relocation chosen by the repair search: move resident `cand` off
/// core `from` onto core `to`, vacating room for the stuck task on
/// `from`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepairMove {
    /// Core that makes room (the stuck task's target).
    pub from: usize,
    /// Resident task relocated off `from`.
    pub cand: TaskId,
    /// Lowest-index core other than `from` that accepts `cand`.
    pub to: usize,
}

/// `seen` value of a fit row never computed (engine epochs start at 1).
const NEVER: u64 = u64::MAX;

/// Memoized, candidate-batched one-move repair search.
///
/// State: per core `m2`, a bitset `fits[m2]` over the loaded task set —
/// bit `i` set iff task `i` fits on `m2` (`probe_verdict(m2, i)
/// .feasible()`) — stamped with the [`ProbeEngine::core_epoch`] it was
/// computed at. Step (b) of the repair does not depend on the stuck task
/// and a failed search leaves the state unchanged, so a row stays exact
/// across searches until its core's epoch moves; a stale row is rebuilt
/// in one [`ProbeEngine::candidate_fits`] sweep. Buffers are sized on the
/// first search after a reset (`M · ⌈N/64⌉` words) and reused after.
///
/// One search value must stay paired with one engine: epochs are only
/// unique per engine.
#[derive(Debug, Default)]
pub struct RepairSearch {
    /// Words per task bitset, `⌈N / 64⌉`.
    words: usize,
    /// `fits[m * words..][..words]` — the fit row of core `m`.
    fits: Vec<u64>,
    /// Core epoch each fit row was computed at ([`NEVER`] if not yet).
    seen: Vec<u64>,
    /// Scratch: union of the other cores' fit rows.
    movable_mask: Vec<u64>,
    /// Scratch: the scanned core's movable residents, sorted.
    movable: Vec<TaskId>,
}

/// Whether bit `id` is set in `row`.
#[inline]
fn has_bit(row: &[u64], id: TaskId) -> bool {
    let i = id.index();
    row[i / 64] >> (i % 64) & 1 == 1
}

impl RepairSearch {
    /// Empty search (no buffers until the first [`Self::run`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bring every fit row up to date with `engine`: re-size after a
    /// reset changed the shape, then re-sweep each core whose epoch moved.
    fn sync(&mut self, engine: &ProbeEngine) {
        let cores = engine.num_cores();
        let words = engine.num_tasks().div_ceil(64);
        if self.words != words || self.seen.len() != cores {
            self.words = words;
            self.fits.clear();
            self.fits.resize(cores * words, 0);
            self.seen.clear();
            self.seen.resize(cores, NEVER);
            self.movable_mask.clear();
            self.movable_mask.resize(words, 0);
        }
        for m in 0..cores {
            let epoch = engine.core_epoch(m);
            if self.seen[m] != epoch {
                engine.candidate_fits(m, &mut self.fits[m * words..][..words]);
                self.seen[m] = epoch;
            }
        }
    }

    /// Search for the first repair move making room for `stuck` and hand
    /// it to `apply`, in the order of the classic loop: cores ascending;
    /// per core its residents by own-level utilization (stable, so ties
    /// keep arrival order); the first resident `cand` with (a) `stuck`
    /// fitting on the core without `cand` and (b) `cand` fitting on some
    /// other core, moved to the lowest such core.
    ///
    /// The walk tests (b) first, from the memo: per core, the movable
    /// residents are its members intersected with the union of the other
    /// cores' fit rows, sorted (a stable sort of a filtered list is the
    /// filtered stable sort), and only they pay the (a) swap probe. The
    /// first movable resident passing (a) is the first resident passing
    /// both in the classic order, so the move is the same.
    ///
    /// `apply` either commits the move and returns `Some`, or returns
    /// `None` after restoring `engine` and `members` bit-for-bit (the
    /// search then continues with the next candidate — the memo stays
    /// truthful because the state is unchanged).
    // lint: no_alloc
    pub fn run<R>(
        &mut self,
        engine: &mut ProbeEngine,
        members: &mut [Vec<TaskId>],
        stuck: TaskId,
        mut apply: impl FnMut(&mut ProbeEngine, &mut [Vec<TaskId>], RepairMove) -> Option<R>,
    ) -> Option<R> {
        self.sync(engine);
        let (cores, words) = (engine.num_cores(), self.words);
        for m in 0..cores {
            self.movable_mask.fill(0);
            for m2 in (0..cores).filter(|&m2| m2 != m) {
                for (u, f) in self.movable_mask.iter_mut().zip(&self.fits[m2 * words..][..words]) {
                    *u |= f;
                }
            }
            self.movable.clear();
            for &id in &members[m] {
                if has_bit(&self.movable_mask, id) {
                    self.movable.push(id);
                }
            }
            // Stable: ties keep arrival order. The std stable sort keeps up
            // to 1024 ids in its 4 KiB stack scratch, so only a core with
            // more movable residents than that reaches the heap.
            self.movable.sort_by(|a, b| {
                engine
                    .util_own(*a)
                    .partial_cmp(&engine.util_own(*b))
                    .expect("utilizations are finite")
            });
            for i in 0..self.movable.len() {
                let cand = self.movable[i];
                if !engine.probe_swap_verdict(m, cand, stuck).feasible() {
                    continue;
                }
                let to = (0..cores)
                    .find(|&m2| m2 != m && has_bit(&self.fits[m2 * words..][..words], cand))
                    .expect("a movable resident fits on some other core");
                if let Some(done) = apply(engine, members, RepairMove { from: m, cand, to }) {
                    return Some(done);
                }
            }
        }
        None
    }
}

/// CA-TPA + local-search repair.
#[derive(Clone, Copy, Debug)]
pub struct CatpaLs {
    /// Imbalance threshold (as in plain CA-TPA); `None` disables.
    pub alpha: Option<f64>,
    /// Maximum relocation moves per partitioning run.
    pub move_budget: usize,
}

impl Default for CatpaLs {
    fn default() -> Self {
        Self { alpha: Some(DEFAULT_ALPHA), move_budget: 64 }
    }
}

struct LsState<'e> {
    engine: &'e mut ProbeEngine,
    search: &'e mut RepairSearch,
    members: Vec<Vec<TaskId>>,
    partition: Partition,
}

/// Commit with an already probed utilization (the greedy path).
fn commit_with(
    engine: &mut ProbeEngine,
    members: &mut [Vec<TaskId>],
    partition: &mut Partition,
    id: TaskId,
    m: usize,
    util: f64,
) {
    engine.commit(id, m, util);
    members[m].push(id);
    partition.assign(id, CoreId(u16::try_from(m).expect("core fits u16")));
}

/// Commit a placement known feasible but not yet valued (repair moves):
/// probe once for the utilization, then commit.
fn commit(
    engine: &mut ProbeEngine,
    members: &mut [Vec<TaskId>],
    partition: &mut Partition,
    id: TaskId,
    m: usize,
) {
    let util = engine
        .probe_verdict(m, id)
        .core_utilization
        .expect("committed placements are probed feasible");
    commit_with(engine, members, partition, id, m, util);
}

impl LsState<'_> {
    /// Try one relocation that makes room for `stuck`. Returns true if a
    /// move was applied (the stuck task is then placed too). The eviction
    /// is the clamped O(K) delta — exactly the swap probe's view — so the
    /// stuck task always fits once the move is made.
    fn repair(&mut self, stuck: TaskId) -> bool {
        let partition = &mut self.partition;
        let applied =
            self.search.run(self.engine, &mut self.members, stuck, |engine, members, mv| {
                engine.note_repair_move();
                engine.evict(mv.cand, mv.from);
                members[mv.from].retain(|t| *t != mv.cand);
                partition.unassign(mv.cand);
                commit(engine, members, partition, mv.cand, mv.to);
                commit(engine, members, partition, stuck, mv.from);
                Some(())
            });
        applied.is_some()
    }
}

impl Partitioner for CatpaLs {
    fn name(&self) -> &'static str {
        "CA-TPA+LS"
    }

    fn partition(&self, ts: &TaskSet, cores: usize) -> Result<Partition, PartitionFailure> {
        assert!(cores >= 1, "need at least one core");
        with_scratch(|scratch| {
            let PlacementScratch { engine, order, keyed, totals, repair, .. } = scratch;
            order_by_contribution_into(ts, totals, keyed, order);
            engine.reset(ts, cores);
            let mut state = LsState {
                engine,
                search: repair,
                members: vec![Vec::new(); cores],
                partition: Partition::empty(cores, ts.len()),
            };
            let mut moves_left = self.move_budget;
            for (placed, &id) in order.iter().enumerate() {
                if let Some((m, new_u)) = select_core(state.engine, id, self.alpha) {
                    commit_with(
                        state.engine,
                        &mut state.members,
                        &mut state.partition,
                        id,
                        m,
                        new_u,
                    );
                    continue;
                }
                if moves_left > 0 && state.repair(id) {
                    moves_left -= 1;
                    continue;
                }
                return Err(PartitionFailure { task: id, placed });
            }
            mcs_audit::debug_audit(ts, &state.partition, self.name(), true, self.alpha);
            Ok(state.partition)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binpack::BinPacker;
    use crate::catpa::Catpa;
    use mcs_analysis::Theorem1;
    use mcs_model::{McTask, TaskBuilder};

    fn task(id: u32, period: u64, level: u8, wcet: &[u64]) -> McTask {
        TaskBuilder::new(TaskId(id)).period(period).level(level).wcet(wcet).build().unwrap()
    }

    fn set(tasks: Vec<McTask>, k: u8) -> TaskSet {
        TaskSet::new(k, tasks).unwrap()
    }

    #[test]
    fn matches_catpa_when_no_repair_needed() {
        let ts = set((0..6).map(|i| task(i, 10, 1, &[3])).collect(), 1);
        let a = Catpa::default().partition(&ts, 2).unwrap();
        let b = CatpaLs::default().partition(&ts, 2).unwrap();
        for t in ts.tasks() {
            assert_eq!(a.core_of(t.id()), b.core_of(t.id()));
        }
    }

    #[test]
    fn repair_recovers_a_strandable_instance() {
        // The bin-packing trap from the exact tests, reordered so greedy
        // strands the final item but a single move fixes it.
        // Items: 0.50, 0.34, 0.33, 0.33, 0.25, 0.25 (unique packing
        // {0.50, 0.25, 0.25} | {0.34, 0.33, 0.33}); FFD fails.
        let utils = [50u64, 34, 33, 33, 25, 25];
        let ts = set(
            utils
                .iter()
                .enumerate()
                .map(|(i, &c)| task(u32::try_from(i).unwrap(), 100, 1, &[c]))
                .collect(),
            1,
        );
        assert!(BinPacker::ffd().partition(&ts, 2).is_err());
        let p = CatpaLs::default().partition(&ts, 2).expect("repair must succeed");
        assert!(p.require_complete(&ts).is_ok());
        for t in p.core_tables(&ts) {
            assert!(Theorem1::compute(&t).feasible());
        }
    }

    #[test]
    fn output_always_satisfies_the_contract() {
        use mcs_gen::{generate_task_set, GenParams};
        let params = GenParams::default().with_n_range(10, 18).with_cores(3).with_nsu(0.62);
        for seed in 0..25 {
            let ts = generate_task_set(&params, seed);
            if let Ok(p) = CatpaLs::default().partition(&ts, 3) {
                p.require_complete(&ts).unwrap();
                for t in p.core_tables(&ts) {
                    assert!(Theorem1::compute(&t).feasible(), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn ls_accepts_at_least_what_catpa_accepts() {
        // Regime calibrated so one-move repair actually fires (N ∈ [8, 14],
        // M = 4, NSU = 0.66 recovers a few instances per 400 seeds).
        use mcs_gen::{generate_task_set, GenParams};
        let params = GenParams::default().with_n_range(8, 14).with_cores(4).with_nsu(0.66);
        let mut recovered = 0;
        for seed in 0..400 {
            let ts = generate_task_set(&params, seed);
            let base = Catpa::default().partition(&ts, 4).is_ok();
            let ls = CatpaLs::default().partition(&ts, 4).is_ok();
            if base {
                assert!(ls, "LS lost a greedy-feasible instance at seed {seed}");
            }
            if ls && !base {
                recovered += 1;
            }
        }
        // The repair should rescue at least one instance in this range.
        assert!(recovered > 0, "repair never helped — suspicious");
    }

    #[test]
    fn zero_budget_degenerates_to_catpa() {
        let ls = CatpaLs { move_budget: 0, ..Default::default() };
        use mcs_gen::{generate_task_set, GenParams};
        let params = GenParams::default().with_n_range(10, 16).with_cores(3).with_nsu(0.6);
        for seed in 0..15 {
            let ts = generate_task_set(&params, seed);
            assert_eq!(
                Catpa::default().partition(&ts, 3).is_ok(),
                ls.partition(&ts, 3).is_ok(),
                "seed {seed}"
            );
        }
    }
}
