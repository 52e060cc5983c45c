//! The online [`AdmissionEngine`] — a task-lifecycle state machine over
//! the incremental [`ProbeEngine`], answering "can this system absorb
//! τ_new, and on which core?" without repartitioning from scratch.
//!
//! The batch partitioners of this crate see the whole task set once and
//! answer offline. The admission engine instead serves a *stream* of
//! lifecycle events:
//!
//! * [`AdmissionEngine::admit`] — probe every core in one batch sweep,
//!   pick a target under the configured [`AdmissionPolicy`], commit the
//!   placement in O(K), and return the [`Decision`]. When no core can
//!   absorb the task directly, the memoized [`RepairSearch`] (seeded from
//!   the engine's **live** sums — no rebuild) tries to relocate one
//!   resident task to make room;
//! * [`AdmissionEngine::depart`] — remove a resident task. Departures
//!   *refold* the affected core: its sums are cleared and the survivors
//!   re-accumulated in arrival order, so the live state is bit-identical
//!   to a from-scratch rebuild of the surviving set by construction (a
//!   clamped O(K) subtraction cannot guarantee that — floating-point
//!   subtraction does not exactly undo addition). Only the departed
//!   task's core pays the refold; every other core keeps its exact bits.
//!
//! Placement schemes become admission policies through the
//! [`SchemeRegistry`](crate::SchemeRegistry): [`AdmissionPolicy::from_scheme`]
//! maps a registered scheme's metadata onto an online selection rule
//! (CA-TPA's imbalance-aware min-increment probe, or the classical
//! first/best/worst-fit orders driven by the same Theorem-1 verdicts).
//!
//! The `admission-state-consistency` audit rule and the churn proptests in
//! `tests/probe_engine_differential.rs` enforce the state contract:
//! after any admit/depart/repair interleaving, [`AdmissionEngine::state_identical_to_rebuild`]
//! must hold and the resulting partition must re-certify Theorem 1.

use mcs_analysis::CoreSums;
use mcs_model::{CoreId, CritLevel, LevelUtils, Partition, TaskId, TaskSet};
use mcs_obs::{Counter, EventKind, Phase};

use crate::catpa::select_core;
use crate::engine::ProbeEngine;
use crate::reference::reference_repair_move;
use crate::registry::{SchemeFlags, SchemeInfo, SchemeRegistry};
use crate::repair::{RepairMove, RepairSearch};
use crate::DEFAULT_ALPHA;

/// The outcome of one admission request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Decision {
    /// The task was placed: target core and its new committed Theorem-1
    /// core utilization (Eq. (9)).
    Admitted {
        /// Core the task now runs on.
        core: CoreId,
        /// The core's committed utilization after the placement.
        utilization: f64,
    },
    /// No core (even after the repair move search) can absorb the task;
    /// engine state is unchanged.
    Rejected,
}

impl Decision {
    /// Whether the request was admitted.
    #[must_use]
    pub fn admitted(&self) -> bool {
        matches!(self, Decision::Admitted { .. })
    }
}

/// Online core-selection rule of one admission policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PolicyKind {
    /// CA-TPA's probe selection: minimize the utilization *increment*,
    /// falling back to min-utilization when the imbalance Λ exceeds α.
    MinIncrement,
    /// Lowest-index feasible core (FFD's online reading).
    FirstFit,
    /// Fullest feasible core — highest committed utilization (BFD).
    BestFit,
    /// Emptiest feasible core — lowest committed utilization (WFD).
    WorstFit,
}

/// A pluggable admission policy: a registered placement scheme's metadata
/// mapped onto an online selection rule.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionPolicy {
    name: &'static str,
    kind: PolicyKind,
    alpha: Option<f64>,
}

impl AdmissionPolicy {
    /// The default policy: CA-TPA with the paper's α.
    #[must_use]
    pub fn catpa() -> Self {
        Self { name: "CA-TPA", kind: PolicyKind::MinIncrement, alpha: Some(DEFAULT_ALPHA) }
    }

    /// Derive the online policy of a registered scheme, `None` when the
    /// scheme has no online reading (dual-criticality-only analyses, the
    /// stateful metaheuristics).
    #[must_use]
    pub fn from_scheme(info: &SchemeInfo, flags: &SchemeFlags) -> Option<Self> {
        let kind = match info.name {
            "CA-TPA" | "CA-TPA+LS" => PolicyKind::MinIncrement,
            "FFD" => PolicyKind::FirstFit,
            "BFD" => PolicyKind::BestFit,
            "WFD" => PolicyKind::WorstFit,
            _ => return None,
        };
        Some(Self { name: info.name, kind, alpha: info.effective_alpha(flags) })
    }

    /// Look up a scheme by name in the standard registry and derive its
    /// online policy (`None` for unknown or offline-only schemes).
    #[must_use]
    pub fn named(name: &str) -> Option<Self> {
        let registry = SchemeRegistry::standard();
        let info = registry.get(name)?;
        Self::from_scheme(info, &SchemeFlags::default())
    }

    /// Every registered scheme with an online reading, in registry order
    /// (fixes the `mcs-exp admit` report row order).
    #[must_use]
    pub fn all() -> Vec<Self> {
        let registry = SchemeRegistry::standard();
        registry
            .entries()
            .iter()
            .filter_map(|info| Self::from_scheme(info, &SchemeFlags::default()))
            .collect()
    }

    /// The policy's stable display name (the underlying scheme's name).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Lifecycle statistics of one engine instance (monotone counters; the
/// experiment layer folds them across shards in trial order).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests admitted (including repair-rescued ones).
    pub admits: u64,
    /// Requests rejected.
    pub rejects: u64,
    /// Departures processed.
    pub departs: u64,
    /// Repair relocations applied.
    pub repair_moves: u64,
}

/// Apply one repair move on the live state: evict `cand` from `from` by
/// refolding the survivors, re-probe `stuck` on the refolded sums, then
/// re-place `cand` on `to`. Returns `stuck`'s core and utilization.
///
/// The search decided step (a) on the swap probe's clamped-subtraction
/// view, and the refold can differ from that view by an ulp. When the
/// re-probe says `stuck` no longer fits, `cand` goes back to its original
/// position in the member list and the core is refolded again — a refold
/// is a pure function of the member list, so the state is bit-identical
/// to before — and `None` tells the search to continue.
fn apply_repair(
    engine: &mut ProbeEngine,
    members: &mut [Vec<TaskId>],
    home: &mut [Option<u16>],
    stats: &mut AdmissionStats,
    stuck: TaskId,
    mv: RepairMove,
) -> Option<(usize, f64)> {
    let RepairMove { from: m, cand, to: m2 } = mv;
    let pos = members[m]
        .iter()
        .position(|t| *t == cand)
        .expect("the repair candidate is resident on its core");
    members[m].remove(pos);
    engine.refold_core(m, &members[m]);
    let Some(stuck_u) = engine.probe_verdict(m, stuck).core_utilization else {
        members[m].insert(pos, cand);
        engine.refold_core(m, &members[m]);
        return None;
    };
    engine.note_repair_move();
    stats.repair_moves += 1;
    mcs_obs::trace::record(
        EventKind::AdmissionRepair,
        0,
        u64::from(stuck.0),
        u64::from(cand.0),
        ((m as u64) << 32) | m2 as u64,
    );
    // Re-place `cand` on its new core (`stuck` is placed by the caller).
    let cand_u =
        engine.probe_verdict(m2, cand).core_utilization.expect("repair target was probed feasible");
    place(engine, members, home, cand, m2, cand_u);
    Some((m, stuck_u))
}

/// Commit `id` to core `m` with the probed utilization and record it in
/// the member list / home index.
fn place(
    engine: &mut ProbeEngine,
    members: &mut [Vec<TaskId>],
    home: &mut [Option<u16>],
    id: TaskId,
    m: usize,
    util: f64,
) {
    engine.commit(id, m, util);
    members[m].push(id);
    home[id.index()] = Some(u16::try_from(m).expect("core fits u16"));
}

/// The online admission-control state machine: a [`ProbeEngine`] plus the
/// per-core member lists (in arrival order) that make exact departures
/// possible, driven by one [`AdmissionPolicy`].
#[derive(Debug)]
pub struct AdmissionEngine {
    policy: AdmissionPolicy,
    /// Configured repair relocations per run (restored on [`Self::reset`]).
    repair_budget: usize,
    /// Remaining repair relocations (decremented per applied move).
    repair_left: usize,
    engine: ProbeEngine,
    /// Per-core resident tasks, in arrival order — the refold source.
    members: Vec<Vec<TaskId>>,
    /// `home[i]` = core of task `i`, `None` while not resident.
    home: Vec<Option<u16>>,
    /// System criticality level count of the loaded task universe.
    k: u8,
    stats: AdmissionStats,
    /// The memoized repair search, paired with `engine`.
    search: RepairSearch,
    /// Run repair through [`reference_repair_move`] instead of `search`.
    reference_repair: bool,
}

impl AdmissionEngine {
    /// Default repair budget (matches [`crate::CatpaLs`]).
    pub const DEFAULT_REPAIR_BUDGET: usize = 64;

    /// Fresh engine under `policy` (no task universe loaded yet).
    #[must_use]
    pub fn new(policy: AdmissionPolicy) -> Self {
        Self {
            policy,
            repair_budget: Self::DEFAULT_REPAIR_BUDGET,
            repair_left: Self::DEFAULT_REPAIR_BUDGET,
            engine: ProbeEngine::new(),
            members: Vec::new(),
            home: Vec::new(),
            k: 1,
            stats: AdmissionStats::default(),
            search: RepairSearch::new(),
            reference_repair: false,
        }
    }

    /// Set the repair move budget (0 disables repair).
    #[must_use]
    pub fn with_repair_budget(mut self, budget: usize) -> Self {
        self.repair_budget = budget;
        self.repair_left = budget;
        self
    }

    /// Run the repair step through the pre-memo reference search
    /// ([`reference_repair_move`]) — the differential oracle of the
    /// memoized [`RepairSearch`]; it picks the same moves, slowly.
    #[must_use]
    pub fn with_reference_repair(mut self) -> Self {
        self.reference_repair = true;
        self
    }

    /// Load the task universe `ts` (the tasks the trace may admit) and
    /// reset to `cores` empty cores, reusing every buffer.
    pub fn reset(&mut self, ts: &TaskSet, cores: usize) {
        assert!(cores >= 1, "need at least one core");
        self.engine.reset(ts, cores);
        self.members.resize_with(cores, Vec::new);
        self.members.truncate(cores);
        for m in &mut self.members {
            m.clear();
        }
        self.home.clear();
        self.home.resize(ts.len(), None);
        self.k = ts.num_levels();
        self.stats = AdmissionStats::default();
        self.repair_left = self.repair_budget;
    }

    /// The active policy.
    #[must_use]
    pub fn policy(&self) -> &AdmissionPolicy {
        &self.policy
    }

    /// Number of cores of the current run.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.engine.num_cores()
    }

    /// Whether `id` is currently placed.
    #[must_use]
    pub fn is_resident(&self, id: TaskId) -> bool {
        self.home[id.index()].is_some()
    }

    /// Number of currently resident tasks.
    #[must_use]
    pub fn resident_count(&self) -> usize {
        self.members.iter().map(Vec::len).sum()
    }

    /// Lifecycle statistics since the last [`Self::reset`].
    #[must_use]
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// Select a target core for `id` under the active policy, returning
    /// `(core, committed utilization)`; `None` when no core is feasible.
    fn select(&mut self, id: TaskId) -> Option<(usize, f64)> {
        if self.policy.kind == PolicyKind::MinIncrement {
            return select_core(&mut self.engine, id, self.policy.alpha);
        }
        self.engine.note_attempt();
        let kind = self.policy.kind;
        let (verdicts, utils) = self.engine.probe_all_cores(id);
        let mut best: Option<(usize, f64, f64)> = None;
        for (m, v) in verdicts.iter().enumerate() {
            let Some(new_u) = v.core_utilization else { continue };
            match kind {
                PolicyKind::FirstFit => return Some((m, new_u)),
                // Strict compares keep the first (lowest-index) core on
                // ties, mirroring the batch heuristics' scan order.
                PolicyKind::BestFit => {
                    if best.is_none_or(|(_, key, _)| utils[m] > key) {
                        best = Some((m, utils[m], new_u));
                    }
                }
                PolicyKind::WorstFit => {
                    if best.is_none_or(|(_, key, _)| utils[m] < key) {
                        best = Some((m, utils[m], new_u));
                    }
                }
                PolicyKind::MinIncrement => unreachable!("handled above"), // lint: allow(panic-policy, MinIncrement returns before the scan)
            }
        }
        best.map(|(m, _, new_u)| (m, new_u))
    }

    /// Try one relocation making room for `stuck` — the [`RepairSearch`]
    /// run against the engine's live sums (no rebuild): the first move
    /// where `stuck` fits on core `m` without a resident `τ'` and `τ'` fits
    /// elsewhere. The eviction side refolds core `m`, so the post-repair
    /// state keeps the rebuild-identity contract.
    fn repair(&mut self, stuck: TaskId) -> Option<(usize, f64)> {
        let _timer = mcs_obs::span(Phase::AdmissionRepair);
        mcs_obs::trace::record(
            EventKind::ProbeSweepBegin,
            0,
            u64::from(stuck.0),
            self.engine.num_cores() as u64,
            0,
        );
        let Self { engine, members, home, stats, search, .. } = self;
        let mut apply = |engine: &mut ProbeEngine, members: &mut [Vec<TaskId>], mv| {
            apply_repair(engine, members, home, stats, stuck, mv)
        };
        let placed = if self.reference_repair {
            reference_repair_move(engine, members, stuck).map(|mv| {
                apply(engine, members, mv)
                    .expect("stuck fits on the vacated core by the swap probe")
            })
        } else {
            search.run(engine, members, stuck, apply)
        };
        let outcome = u64::from(placed.is_some());
        mcs_obs::trace::record(EventKind::ProbeSweepEnd, 0, u64::from(stuck.0), outcome, 0);
        placed
    }

    /// Process one admission request: probe, select under the policy,
    /// commit — falling back to the repair move search when no core fits
    /// directly. `id` must index into the loaded task universe and not be
    /// resident.
    pub fn admit(&mut self, id: TaskId) -> Decision {
        assert!(!self.is_resident(id), "task {id} is already resident");
        let _timer = mcs_obs::span(Phase::AdmissionDecision);
        let mut placement = self.select(id);
        if placement.is_none() && self.repair_left > 0 {
            placement = self.repair(id);
            if placement.is_some() {
                self.repair_left -= 1;
            }
        }
        match placement {
            Some((m, util)) => {
                place(&mut self.engine, &mut self.members, &mut self.home, id, m, util);
                self.stats.admits += 1;
                mcs_obs::counter!(Counter::AdmissionAdmits);
                mcs_obs::trace::record(
                    EventKind::AdmissionAdmit,
                    0,
                    u64::from(id.0),
                    m as u64,
                    self.engine.last_sweep_mask(),
                );
                Decision::Admitted {
                    core: CoreId(u16::try_from(m).expect("core fits u16")),
                    utilization: util,
                }
            }
            None => {
                self.stats.rejects += 1;
                mcs_obs::counter!(Counter::AdmissionRejects);
                mcs_obs::trace::record(
                    EventKind::AdmissionReject,
                    0,
                    u64::from(id.0),
                    0,
                    self.engine.last_sweep_mask(),
                );
                Decision::Rejected
            }
        }
    }

    /// Process one departure: remove `id` and refold its core so the live
    /// sums stay bit-identical to a fresh rebuild of the survivors.
    /// Returns false (and changes nothing) when `id` is not resident.
    pub fn depart(&mut self, id: TaskId) -> bool {
        let Some(m) = self.home[id.index()] else {
            return false;
        };
        let m = usize::from(m);
        self.members[m].retain(|t| *t != id);
        self.home[id.index()] = None;
        self.engine.refold_core(m, &self.members[m]);
        self.stats.departs += 1;
        mcs_obs::counter!(Counter::AdmissionDeparts);
        mcs_obs::trace::record(EventKind::AdmissionDepart, 0, u64::from(id.0), m as u64, 0);
        true
    }

    /// The current placement as a [`Partition`] (audit input).
    #[must_use]
    pub fn partition(&self) -> Partition {
        let mut p = Partition::empty(self.engine.num_cores(), self.home.len());
        for (i, home) in self.home.iter().enumerate() {
            if let Some(m) = home {
                p.assign(TaskId(u32::try_from(i).expect("task index fits u32")), CoreId(*m));
            }
        }
        p
    }

    /// The state-identity gate: every core's live sums (and its committed
    /// utilization) must be bit-identical to a fresh [`CoreSums`] rebuild
    /// of its member list in arrival order. Departure refolds make this
    /// hold by construction; the audit rule and the `mcs-exp admit` JSON
    /// gate re-verify it after every churn run.
    #[must_use]
    pub fn state_identical_to_rebuild(&self) -> bool {
        for (m, members) in self.members.iter().enumerate() {
            let mut fresh = CoreSums::new(self.k);
            for id in members {
                fresh.add(&self.engine.row(*id));
            }
            let live = self.engine.core_sums(m);
            if live.task_count() != fresh.task_count() {
                return false;
            }
            for j in 1..=self.k {
                for kk in 1..=j {
                    let (j, kk) = (CritLevel::new(j), CritLevel::new(kk));
                    if live.util_jk(j, kk).to_bits() != fresh.util_jk(j, kk).to_bits() {
                        return false;
                    }
                }
            }
            let expected = if members.is_empty() {
                0.0
            } else {
                let Some(u) = fresh.evaluate_verdict().core_utilization else {
                    return false;
                };
                u
            };
            if self.engine.utils()[m].to_bits() != expected.to_bits() {
                return false;
            }
        }
        true
    }

    /// Flush the inner engine's telemetry tally to the global registry
    /// (call once per batch of lifecycle events, not per event).
    pub fn flush_telemetry(&self) {
        self.engine.flush_telemetry();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_analysis::Theorem1;
    use mcs_gen::{generate_task_set, GenParams};
    use mcs_model::{McTask, TaskBuilder};

    fn task(id: u32, period: u64, level: u8, wcet: &[u64]) -> McTask {
        TaskBuilder::new(TaskId(id)).period(period).level(level).wcet(wcet).build().unwrap()
    }

    fn mixed_set() -> TaskSet {
        TaskSet::new(
            2,
            vec![
                task(0, 1000, 2, &[339, 633]),
                task(1, 1000, 2, &[175, 326]),
                task(2, 500, 1, &[200]),
                task(3, 200, 2, &[30, 70]),
                task(4, 100, 1, &[25]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn policies_resolve_through_the_registry() {
        for name in ["CA-TPA", "FFD", "BFD", "WFD"] {
            let p = AdmissionPolicy::named(name).expect(name);
            assert_eq!(p.name(), name);
        }
        // Offline-only schemes have no online reading.
        for name in ["SA", "DBF-FFD", "FP-DM"] {
            assert!(AdmissionPolicy::named(name).is_none(), "{name}");
        }
        assert!(AdmissionPolicy::named("BOGUS").is_none());
        let all = AdmissionPolicy::all();
        assert!(all.len() >= 4);
    }

    #[test]
    fn admit_depart_churn_keeps_rebuild_identity() {
        let ts = mixed_set();
        let mut engine = AdmissionEngine::new(AdmissionPolicy::catpa());
        engine.reset(&ts, 2);
        for id in 0..5u32 {
            engine.admit(TaskId(id));
            assert!(engine.state_identical_to_rebuild(), "after admit {id}");
        }
        for id in [0u32, 3] {
            if engine.is_resident(TaskId(id)) {
                assert!(engine.depart(TaskId(id)));
                assert!(engine.state_identical_to_rebuild(), "after depart {id}");
            }
        }
        // Re-admission after departure works and stays exact.
        if !engine.is_resident(TaskId(0)) {
            engine.admit(TaskId(0));
            assert!(engine.state_identical_to_rebuild());
        }
        assert!(!engine.depart(TaskId(1000 % 5)) || engine.state_identical_to_rebuild());
    }

    #[test]
    fn admitted_partitions_certify_theorem1() {
        let params = GenParams::default().with_n_range(10, 16).with_cores(3).with_nsu(0.6);
        for seed in 0..10 {
            let ts = generate_task_set(&params, seed);
            let mut engine = AdmissionEngine::new(AdmissionPolicy::catpa());
            engine.reset(&ts, 3);
            for i in 0..ts.len() {
                engine.admit(TaskId(u32::try_from(i).unwrap()));
            }
            let p = engine.partition();
            for t in p.core_tables(&ts) {
                assert!(Theorem1::compute(&t).feasible(), "seed {seed}");
            }
            assert!(engine.state_identical_to_rebuild(), "seed {seed}");
        }
    }

    #[test]
    fn full_stream_admission_matches_catpa_batch_placement() {
        // With no departures and the CA-TPA policy, the admission stream
        // over the task set in contribution order is exactly the batch
        // partitioner's greedy pass — same cores, same commits.
        use crate::contribution::order_by_contribution;
        use crate::{Catpa, Partitioner};
        let params = GenParams::default().with_n_range(8, 14).with_cores(3).with_nsu(0.55);
        for seed in 0..10 {
            let ts = generate_task_set(&params, seed);
            let Ok(batch) = Catpa::default().partition(&ts, 3) else {
                continue;
            };
            let mut engine = AdmissionEngine::new(AdmissionPolicy::catpa()).with_repair_budget(0);
            engine.reset(&ts, 3);
            for id in order_by_contribution(&ts) {
                assert!(engine.admit(id).admitted(), "seed {seed} task {id}");
            }
            let online = engine.partition();
            for t in ts.tasks() {
                assert_eq!(online.core_of(t.id()), batch.core_of(t.id()), "seed {seed}");
            }
        }
    }

    #[test]
    fn rejects_leave_state_unchanged() {
        // A universe where one task can never fit next to the others on a
        // single core: admit everything, count rejects, verify identity.
        let ts = TaskSet::new(
            2,
            vec![task(0, 10, 2, &[6, 9]), task(1, 10, 2, &[6, 9]), task(2, 10, 1, &[9])],
        )
        .unwrap();
        let mut engine = AdmissionEngine::new(AdmissionPolicy::catpa());
        engine.reset(&ts, 1);
        assert!(engine.admit(TaskId(0)).admitted());
        let before = engine.stats();
        assert_eq!(engine.admit(TaskId(1)), Decision::Rejected);
        assert_eq!(engine.stats().rejects, before.rejects + 1);
        assert!(engine.state_identical_to_rebuild());
        assert_eq!(engine.resident_count(), 1);
    }

    #[test]
    fn repair_rescues_a_strandable_stream() {
        // Exact /64 utilizations, 3 cores, first-fit arrival order
        // 0.9375, 0.5, 0.25, 0.125, 0.6875 lands the stream on
        // {0.9375} | {0.5, 0.25, 0.125} | {0.6875}; the final 0.375
        // arrival fits nowhere directly, but relocating the 0.25 task to
        // core 2 vacates exactly enough room on core 1.
        let utils = [60u64, 32, 16, 8, 44, 24];
        let ts = TaskSet::new(
            1,
            utils
                .iter()
                .enumerate()
                .map(|(i, &c)| task(u32::try_from(i).unwrap(), 64, 1, &[c]))
                .collect(),
        )
        .unwrap();
        let mut without =
            AdmissionEngine::new(AdmissionPolicy::named("FFD").unwrap()).with_repair_budget(0);
        without.reset(&ts, 3);
        let mut with = AdmissionEngine::new(AdmissionPolicy::named("FFD").unwrap());
        with.reset(&ts, 3);
        let mut rescued = false;
        for i in 0..ts.len() {
            let id = TaskId(u32::try_from(i).unwrap());
            let a = without.admit(id);
            let b = with.admit(id);
            if !a.admitted() && b.admitted() {
                rescued = true;
            }
        }
        assert!(rescued, "repair never rescued the stranded item");
        assert_eq!(with.stats().repair_moves, 1);
        assert!(with.state_identical_to_rebuild());
        let p = with.partition();
        assert!(p.require_complete(&ts).is_ok());
        for t in p.core_tables(&ts) {
            assert!(Theorem1::compute(&t).feasible());
        }
    }

    /// K = 1 universe on the refold boundary, with exact dyadic
    /// utilizations a = A/2^53, c = C/2^55, s = W/2^54 (tasks 0, 1, 3):
    /// the clamped swap view (a + c) - c rounds one ulp below a, so `s`
    /// passes step (a) with `c` swapped out — fl(fl(a + c) - c) + s ≤
    /// 1 + EPS — while the refold of the survivors (a alone) rejects it:
    /// a + s > 1 + EPS. Task 2 (0.9), first-fit onto core 1, takes `c`
    /// (step (b)) but neither `a` nor `s`.
    fn refold_boundary_set() -> TaskSet {
        let (a, c, w) =
            (7_566_709_939_464_077u64, 100_569_449_642_390u64, 2_880_978_630_571_849u64);
        TaskSet::new(
            1,
            vec![
                task(0, 1 << 53, 1, &[a]),
                task(1, 1 << 55, 1, &[c]),
                task(2, 10, 1, &[9]),
                task(3, 1 << 54, 1, &[w]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn repair_survives_a_swap_view_that_the_refold_rejects() {
        let ts = refold_boundary_set();
        let mut engine = AdmissionEngine::new(AdmissionPolicy::named("FFD").unwrap());
        engine.reset(&ts, 2);
        for (id, core) in [(0u32, 0u16), (1, 0), (2, 1)] {
            let Decision::Admitted { core: got, .. } = engine.admit(TaskId(id)) else {
                panic!("task {id} must fit");
            };
            assert_eq!(got, CoreId(core), "task {id}");
        }
        // The boundary this test exists for: the swap view admits, the
        // refolded survivors do not.
        let stuck = TaskId(3);
        assert!(engine.engine.probe_swap_verdict(0, TaskId(1), stuck).feasible());
        let mut refolded = CoreSums::new(1);
        refolded.add(&engine.engine.row(TaskId(0)));
        assert!(!refolded.probe_verdict(&engine.engine.row(stuck)).feasible());

        let before = engine.partition();
        assert_eq!(engine.admit(stuck), Decision::Rejected);
        assert_eq!(engine.stats().repair_moves, 0);
        assert_eq!(engine.partition(), before, "the rolled-back move left a trace");
        assert_eq!(engine.members[0], [TaskId(0), TaskId(1)], "member order restored");
        assert!(engine.state_identical_to_rebuild());
    }

    #[test]
    #[should_panic(expected = "stuck fits on the vacated core")]
    fn reference_repair_panics_on_the_refold_boundary() {
        // The pre-memo search trusted the swap view: on the same boundary
        // it commits to the move and then fails its `expect`.
        let ts = refold_boundary_set();
        let mut engine =
            AdmissionEngine::new(AdmissionPolicy::named("FFD").unwrap()).with_reference_repair();
        engine.reset(&ts, 2);
        for id in 0..4 {
            engine.admit(TaskId(id));
        }
    }

    #[test]
    fn classical_policies_differ_in_target_choice() {
        let ts = mixed_set();
        // First-fit packs core 0; worst-fit spreads to the emptiest core.
        let mut ff = AdmissionEngine::new(AdmissionPolicy::named("FFD").unwrap());
        ff.reset(&ts, 2);
        let mut wf = AdmissionEngine::new(AdmissionPolicy::named("WFD").unwrap());
        wf.reset(&ts, 2);
        assert_eq!(ff.admit(TaskId(4)), wf.admit(TaskId(4)));
        let Decision::Admitted { core: c_ff, .. } = ff.admit(TaskId(2)) else {
            panic!("first-fit must admit task 2");
        };
        let Decision::Admitted { core: c_wf, .. } = wf.admit(TaskId(2)) else {
            panic!("worst-fit must admit task 2");
        };
        assert_eq!(c_ff, CoreId(0), "first-fit stays on the first core");
        assert_eq!(c_wf, CoreId(1), "worst-fit moves to the empty core");
        assert!(ff.state_identical_to_rebuild());
        assert!(wf.state_identical_to_rebuild());
    }
}
