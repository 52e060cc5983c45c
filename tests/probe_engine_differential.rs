//! Differential tests for the incremental probe engine: the optimized
//! placement paths must be *bit-identical* to the pre-optimization
//! reference loops — same probe values, same partitions, same failures —
//! on randomized task sets and under every interpretation flag the
//! experiment harness exposes (strong/weak baselines, linear/geometric
//! WCET growth, fixed/random system criticality level).

mod common;

use common::arb_task_set;
use proptest::prelude::*;

use mcs::analysis::{
    batch_candidate_fits, batch_probe_candidates, batch_probe_verdicts, CoreBank, CoreSums,
    TaskRow, TaskTable, Theorem1, Verdict,
};
use mcs::gen::{generate_task_set, GenParams, WcetGrowth};
use mcs::model::{LevelUtils, Partition, TaskSet, UtilTable, WithTask};
use mcs::partition::{
    paper_schemes, paper_schemes_weak, reference_paper_schemes, FitTest, Hybrid, PartitionFailure,
    Partitioner, ReferenceBinPacker, ReferenceCatpa, ReferenceHybrid,
};

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

/// Identical observable outcome: equal assignment maps, or the same first
/// stuck task.
fn same_outcome(
    ts: &TaskSet,
    a: &Result<Partition, PartitionFailure>,
    b: &Result<Partition, PartitionFailure>,
) -> Result<(), TestCaseError> {
    match (a, b) {
        (Ok(pa), Ok(pb)) => {
            for t in ts.tasks() {
                prop_assert_eq!(
                    pa.core_of(t.id()),
                    pb.core_of(t.id()),
                    "task {} placed differently",
                    t.id()
                );
            }
        }
        (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
        (a, b) => prop_assert!(false, "outcomes diverge: {a:?} vs {b:?}"),
    }
    Ok(())
}

/// The optimized/reference scheme pairs, in plot order, for one fit test.
type DynScheme = Box<dyn Partitioner + Send + Sync>;

fn scheme_pairs(fit: FitTest) -> Vec<(DynScheme, DynScheme)> {
    use mcs::partition::{BinPacker, Catpa};
    vec![
        (
            Box::new(ReferenceBinPacker::wfd().with_fit(fit)) as DynScheme,
            Box::new(BinPacker::wfd().with_fit(fit)) as DynScheme,
        ),
        (
            Box::new(ReferenceBinPacker::ffd().with_fit(fit)),
            Box::new(BinPacker::ffd().with_fit(fit)),
        ),
        (
            Box::new(ReferenceBinPacker::bfd().with_fit(fit)),
            Box::new(BinPacker::bfd().with_fit(fit)),
        ),
        (
            Box::new(ReferenceBinPacker::nfd().with_fit(fit)),
            Box::new(BinPacker::nfd().with_fit(fit)),
        ),
        (
            Box::new(ReferenceHybrid::default().with_fit(fit)),
            Box::new(Hybrid::default().with_fit(fit)),
        ),
        (Box::new(ReferenceCatpa::default()), Box::new(Catpa::default())),
    ]
}

/// Batch lane vs scalar verdict, bit-for-bit on every observable: the
/// Eq. (4) own-level total (the weak-baseline gate), the Theorem-1
/// utilization (the strong gate), and the monotone slack reading.
fn assert_lane_bits(lane: &Verdict, scalar: &Verdict, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        lane.own_level_total.to_bits(),
        scalar.own_level_total.to_bits(),
        "own_level_total diverges {}",
        ctx
    );
    prop_assert_eq!(
        bits(lane.core_utilization),
        bits(scalar.core_utilization),
        "core_utilization diverges {}",
        ctx
    );
    prop_assert_eq!(
        bits(lane.core_utilization_slack),
        bits(scalar.core_utilization_slack),
        "core_utilization_slack diverges {}",
        ctx
    );
    Ok(())
}

/// Probe every task against every core through both batch axes and the
/// scalar path and compare lanes bitwise: core-axis sweeps (one task ×
/// all cores), candidate-axis sweeps (all tasks × one core, `table` holds
/// the same rows), and the candidate axis's feasibility-bit form.
fn assert_batch_matches_scalar(
    bank: &CoreBank,
    sums: &[CoreSums],
    rows: &[TaskRow],
    table: &TaskTable,
    ctx: &str,
) -> Result<(), TestCaseError> {
    let mut out = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        batch_probe_verdicts(bank, row, &mut out);
        prop_assert_eq!(out.len(), sums.len());
        for (m, lane) in out.iter().enumerate() {
            assert_lane_bits(
                lane,
                &sums[m].probe_verdict(row),
                &format!("{ctx} task {i} core {m}"),
            )?;
        }
    }
    // Candidate axis on at most eight cores spread over the bank: the
    // candidate lanes cross the lane boundary along the task axis, so
    // sampling cores keeps every lane shape while bounding the cost.
    let mut mask = vec![0u64; rows.len().div_ceil(64)];
    for (m, core) in sums.iter().enumerate().step_by(sums.len().div_ceil(8)) {
        batch_probe_candidates(bank, m, table, &mut out);
        batch_candidate_fits(bank, m, table, &mut mask);
        prop_assert_eq!(out.len(), rows.len());
        for (i, (lane, row)) in out.iter().zip(rows).enumerate() {
            let scalar = core.probe_verdict(row);
            assert_lane_bits(lane, &scalar, &format!("{ctx} candidate {i} core {m}"))?;
            prop_assert_eq!(
                mask[i / 64] >> (i % 64) & 1 == 1,
                scalar.feasible(),
                "{} fit bit of candidate {} core {}",
                ctx,
                i,
                m
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The probe kernel's evaluation of a core is bit-equal to
    /// `Theorem1::compute` over the `UtilTable` for the same members, and
    /// every hypothetical probe is bit-equal to the `WithTask` composite.
    #[test]
    fn kernel_is_bit_equal_to_theorem1(ts in arb_task_set(14, 4), split in 0usize..=14) {
        let tasks = ts.tasks();
        let cut = split.min(tasks.len());
        let (resident, probed) = tasks.split_at(cut);

        let table = UtilTable::from_tasks(ts.num_levels(), resident);
        let mut sums = CoreSums::new(ts.num_levels());
        for t in resident {
            sums.add(&TaskRow::new(t));
        }

        let reference = Theorem1::compute(&table);
        let probe = sums.evaluate();
        prop_assert_eq!(probe.feasible(), reference.feasible());
        prop_assert_eq!(bits(probe.core_utilization()), bits(reference.core_utilization()));
        prop_assert_eq!(
            bits(probe.core_utilization_slack()),
            bits(reference.core_utilization_slack())
        );
        prop_assert_eq!(
            probe.own_level_total().to_bits(),
            table.own_level_total().to_bits()
        );

        for t in probed {
            let composite = WithTask::new(&table, t);
            let hypothesis = Theorem1::compute(&composite);
            let row = TaskRow::new(t);
            let probed = sums.probe(&row);
            prop_assert_eq!(probed.feasible(), hypothesis.feasible());
            prop_assert_eq!(
                bits(probed.core_utilization()),
                bits(hypothesis.core_utilization())
            );
            prop_assert_eq!(
                bits(probed.core_utilization_slack()),
                bits(hypothesis.core_utilization_slack())
            );
            prop_assert_eq!(
                probed.own_level_total().to_bits(),
                composite.own_level_total().to_bits()
            );
            // The fused single-sweep verdict — the placement loops' actual
            // hot path — must match the same reference bitwise.
            let verdict = sums.probe_verdict(&row);
            prop_assert_eq!(verdict.feasible(), hypothesis.feasible());
            prop_assert_eq!(
                bits(verdict.core_utilization),
                bits(hypothesis.core_utilization())
            );
            prop_assert_eq!(
                bits(verdict.core_utilization_slack),
                bits(hypothesis.core_utilization_slack())
            );
            prop_assert_eq!(
                verdict.own_level_total.to_bits(),
                composite.own_level_total().to_bits()
            );
        }
    }

    /// On arbitrary (not generator-shaped) task sets, every optimized
    /// scheme emits exactly the partition its reference loop emits, under
    /// both the strong (Theorem-1) and weak (Eq. (4)) fit readings.
    #[test]
    fn optimized_schemes_match_references(ts in arb_task_set(12, 4), cores in 1usize..=4) {
        for fit in [FitTest::default(), FitTest::Simple] {
            for (reference, optimized) in scheme_pairs(fit) {
                same_outcome(
                    &ts,
                    &reference.partition(&ts, cores),
                    &optimized.partition(&ts, cores),
                )?;
            }
        }
    }

    /// On generator-shaped workloads across the four interpretation flags
    /// (strong/weak baselines × linear/geometric growth × fixed/random K),
    /// the paper-scheme families agree pairwise with their references.
    #[test]
    fn paper_scheme_families_match_references_under_all_flags(seed in any::<u64>()) {
        for growth in [WcetGrowth::Linear, WcetGrowth::Geometric] {
            for random_k in [false, true] {
                let mut params = GenParams::default()
                    .with_n_range(20, 40)
                    .with_cores(4)
                    .with_nsu(0.62)
                    .with_growth(growth);
                if random_k {
                    params = params.with_level_range(2, 6);
                }
                let ts = generate_task_set(&params, seed);
                for (schemes, references) in [
                    (paper_schemes(), reference_paper_schemes()),
                ] {
                    prop_assert_eq!(schemes.len(), references.len());
                    for (optimized, reference) in schemes.iter().zip(&references) {
                        same_outcome(
                            &ts,
                            &reference.partition(&ts, params.cores),
                            &optimized.partition(&ts, params.cores),
                        )?;
                    }
                }
                // The weak-baseline reading: references get the same
                // Eq. (4)-only fit test the optimized weak family uses.
                let weak = paper_schemes_weak();
                let weak_refs: Vec<Box<dyn Partitioner + Send + Sync>> = vec![
                    Box::new(ReferenceBinPacker::wfd().with_fit(FitTest::Simple)),
                    Box::new(ReferenceBinPacker::ffd().with_fit(FitTest::Simple)),
                    Box::new(ReferenceBinPacker::bfd().with_fit(FitTest::Simple)),
                    Box::new(ReferenceHybrid::default().with_fit(FitTest::Simple)),
                    Box::new(ReferenceCatpa::default()),
                ];
                for (optimized, reference) in weak.iter().zip(&weak_refs) {
                    same_outcome(
                        &ts,
                        &reference.partition(&ts, params.cores),
                        &optimized.partition(&ts, params.cores),
                    )?;
                }
            }
        }
    }

    /// The SoA batch kernel is bit-equal to the scalar `probe_verdict` on
    /// generator-shaped workloads across K ∈ {2..8} × cores ∈ {2, 8, 128},
    /// and stays bit-equal through the mutation paths the placement loops
    /// exercise: evictions (`remove`) and cross-core swaps. Both the weak
    /// Eq. (4) observable and the strong Theorem-1 observables are compared.
    #[test]
    fn batch_kernel_matches_scalar_across_grid(seed in any::<u64>()) {
        for k in 2u8..=8 {
            for cores in [2usize, 8, 128] {
                // Two tasks per core keeps the grid fast while still
                // filling every lane of every chunk.
                let n = 2 * cores;
                let params = GenParams::default()
                    .with_n_range(n, n)
                    .with_cores(cores)
                    .with_levels(k)
                    .with_nsu(0.6);
                let ts = generate_task_set(&params, seed);
                let rows: Vec<TaskRow> = ts.tasks().iter().map(TaskRow::new).collect();
                let mut table = TaskTable::new();
                table.reset(&ts);

                let mut bank = CoreBank::new();
                bank.reset(k, cores);
                let mut sums = vec![CoreSums::new(k); cores];
                let mut home: Vec<usize> = Vec::with_capacity(rows.len());
                for (i, row) in rows.iter().enumerate() {
                    bank.add(i % cores, row);
                    sums[i % cores].add(row);
                    home.push(i % cores);
                }
                let ctx = format!("K={k} cores={cores}");
                assert_batch_matches_scalar(&bank, &sums, &rows, &table, &format!("{ctx} dealt"))?;

                // Evict every third task from its core.
                for (i, row) in rows.iter().enumerate().filter(|(i, _)| i % 3 == 0) {
                    bank.remove(home[i], row);
                    sums[home[i]].remove(row);
                }
                assert_batch_matches_scalar(&bank, &sums, &rows, &table, &format!("{ctx} evicted"))?;

                // Swap the remaining tasks one core over (remove + add on
                // both sides — the repair/swap path's exact operations).
                for (i, row) in rows.iter().enumerate().filter(|(i, _)| i % 3 != 0) {
                    let from = home[i];
                    let to = (from + 1) % cores;
                    bank.remove(from, row);
                    sums[from].remove(row);
                    bank.add(to, row);
                    sums[to].add(row);
                    home[i] = to;
                }
                assert_batch_matches_scalar(&bank, &sums, &rows, &table, &format!("{ctx} swapped"))?;

                // First-class O(K) swap deltas: replace every resident task
                // with its evicted neighbour on the same core in one
                // operation (the admission engine's `swap_committed` path).
                let resident: Vec<usize> = (0..rows.len()).filter(|i| i % 3 != 0).collect();
                let evicted: Vec<usize> = (0..rows.len()).filter(|i| i % 3 == 0).collect();
                for (&out_i, &in_i) in resident.iter().zip(&evicted) {
                    let m = home[out_i];
                    bank.swap(m, &rows[out_i], &rows[in_i]);
                    sums[m].swap(&rows[out_i], &rows[in_i]);
                    home[in_i] = m;
                }
                assert_batch_matches_scalar(&bank, &sums, &rows, &table, &format!("{ctx} delta-swapped"))?;

                // Departure refold: clear core 0 and re-fold a survivor
                // list in arrival order (the admission engine's
                // exact-departure path). Folding the live bank and a fresh
                // scalar oracle in the same order makes bit-identity the
                // correct expectation — the interesting claim is that
                // `clear_core` leaves no residue in any strided plane.
                let survivors: Vec<usize> = (0..rows.len()).step_by(4).collect();
                bank.clear_core(0);
                let mut fresh = CoreSums::new(k);
                for &i in &survivors {
                    bank.add(0, &rows[i]);
                    fresh.add(&rows[i]);
                }
                sums[0] = fresh;
                assert_batch_matches_scalar(&bank, &sums, &rows, &table, &format!("{ctx} refolded"))?;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Admission-lifecycle churn equivalence: a randomized interleaving of
    /// `admit`/`depart` requests (with repair-on-reject relocations — the
    /// engine's swap path) leaves the engine's live state *bit-identical*
    /// to a from-scratch rebuild of the surviving task set, for every
    /// K ∈ {2..8}. The surviving state is then re-checked through both
    /// probe kernels: the SoA batch sweep and the scalar `CoreSums` oracle
    /// must agree bitwise on every (task, core) probe of the churned state.
    #[test]
    fn admission_churn_is_bit_identical_to_from_scratch_rebuild(seed in any::<u64>()) {
        use mcs::gen::{generate_trace, TraceOp, TraceParams};
        use mcs::partition::{AdmissionEngine, AdmissionPolicy, Decision};

        for k in 2u8..=8 {
            let cores = 3usize;
            let params = GenParams::default()
                .with_n_range(12, 12)
                .with_cores(cores)
                .with_levels(k)
                .with_nsu(0.75); // load high enough that rejects/repairs occur
            let ts = generate_task_set(&params, seed);
            let ops = generate_trace(ts.len(), &TraceParams::default().with_ops(100), seed);

            let mut engine = AdmissionEngine::new(AdmissionPolicy::catpa());
            engine.reset(&ts, cores);
            // Shadow bookkeeping from the engine's observable decisions
            // only: per-core member lists in arrival order.
            let mut members: Vec<Vec<usize>> = vec![Vec::new(); cores];
            for op in &ops {
                match *op {
                    TraceOp::Arrive(id) => {
                        if let Decision::Admitted { core, .. } = engine.admit(id) {
                            members[core.0 as usize].push(id.index());
                        }
                    }
                    TraceOp::Depart(id) => {
                        if engine.depart(id) {
                            for m in &mut members {
                                m.retain(|i| *i != id.index());
                            }
                        }
                    }
                }
            }
            let ctx = format!("K={k} seed={seed}");

            // The engine's own gate: live sums ≡ fresh rebuild, bitwise.
            prop_assert!(
                engine.state_identical_to_rebuild(),
                "{} drifted from the rebuild",
                &ctx
            );

            // Repair moves relocate tasks, so the shadow lists can diverge
            // from the engine's internal member order — but the *set* per
            // core must match the engine's partition exactly.
            let partition = engine.partition();
            let placed: usize = members.iter().map(Vec::len).sum();
            prop_assert_eq!(placed, engine.resident_count(), "{}", &ctx);
            for (m, list) in members.iter().enumerate() {
                for &i in list {
                    // Repair may have moved the task; check against the
                    // engine's placement, not the admission-time core.
                    let id = ts.tasks()[i].id();
                    prop_assert!(partition.core_of(id).is_some(), "{} lost task {}", &ctx, id);
                }
                let _ = m;
            }

            // From-scratch rebuild of the survivors (partition order per
            // core, task-id order within): both kernels must agree bitwise
            // on every probe of the churned state — and every non-empty
            // core must still certify Theorem 1.
            let rows: Vec<TaskRow> = ts.tasks().iter().map(TaskRow::new).collect();
            let mut table = TaskTable::new();
            table.reset(&ts);
            let mut bank = CoreBank::new();
            bank.reset(k, cores);
            let mut sums = vec![CoreSums::new(k); cores];
            for (i, t) in ts.tasks().iter().enumerate() {
                if let Some(core) = partition.core_of(t.id()) {
                    bank.add(core.0 as usize, &rows[i]);
                    sums[core.0 as usize].add(&rows[i]);
                }
            }
            for (m, s) in sums.iter().enumerate() {
                if s.task_count() > 0 {
                    prop_assert!(
                        s.evaluate_verdict().feasible(),
                        "{} core {} infeasible after churn",
                        &ctx,
                        m
                    );
                }
            }
            assert_batch_matches_scalar(&bank, &sums, &rows, &table, &format!("{ctx} churned"))?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Memoized repair search vs the pre-memo reference: saturated
    /// lifecycle traces replayed through an engine on the memoized
    /// `RepairSearch` and one on `reference_repair_move` must produce the
    /// same decision stream (bitwise utilizations), the same lifecycle
    /// statistics and the same partition, both staying bit-identical to a
    /// from-scratch rebuild — over NSU ∈ {1.0, 1.2}, M ∈ {2, 8, 16},
    /// K ∈ {2..8} and depart ratio ∈ {0.05, 0.15}. The repair budget is
    /// unbounded so every reject runs a search; the policy rotates through
    /// every online scheme.
    #[test]
    fn memoized_repair_search_matches_reference(seed in any::<u64>()) {
        use mcs::gen::{generate_trace, TraceOp, TraceParams};
        use mcs::partition::{AdmissionEngine, AdmissionPolicy, Decision};

        let policies = AdmissionPolicy::all();
        let mut searches = 0usize;
        let mut repairs = 0u64;
        for nsu in [1.0, 1.2] {
            for cores in [2usize, 8, 16] {
                for k in 2u8..=8 {
                    for depart_ratio in [0.05, 0.15] {
                        // The generator caps NSU at 1, so the universe is
                        // drawn for twice the cores at half the NSU: the
                        // same total demand, `nsu · cores`.
                        let n = 5 * cores + 4;
                        let params = GenParams::default()
                            .with_n_range(n, n)
                            .with_cores(2 * cores)
                            .with_levels(k)
                            .with_nsu(nsu / 2.0);
                        let ts = generate_task_set(&params, seed);
                        let trace = TraceParams { ops: 3 * n, depart_ratio };
                        let ops = generate_trace(ts.len(), &trace, seed);
                        let policy = policies[usize::from(k) % policies.len()];
                        let mut fast =
                            AdmissionEngine::new(policy).with_repair_budget(usize::MAX);
                        let mut slow = AdmissionEngine::new(policy)
                            .with_repair_budget(usize::MAX)
                            .with_reference_repair();
                        fast.reset(&ts, cores);
                        slow.reset(&ts, cores);
                        let ctx = format!(
                            "{} nsu={nsu} M={cores} K={k} depart={depart_ratio} seed={seed}",
                            policy.name()
                        );
                        for (step, op) in ops.iter().enumerate() {
                            match *op {
                                TraceOp::Arrive(id) => {
                                    let (a, b) = (fast.admit(id), slow.admit(id));
                                    let same = match (a, b) {
                                        (
                                            Decision::Admitted { core: ca, utilization: ua },
                                            Decision::Admitted { core: cb, utilization: ub },
                                        ) => ca == cb && ua.to_bits() == ub.to_bits(),
                                        (Decision::Rejected, Decision::Rejected) => {
                                            searches += 1;
                                            true
                                        }
                                        _ => false,
                                    };
                                    prop_assert!(same, "{} step {}: {:?} vs {:?}", &ctx, step, a, b);
                                }
                                TraceOp::Depart(id) => {
                                    prop_assert_eq!(fast.depart(id), slow.depart(id), "{}", &ctx);
                                }
                            }
                        }
                        prop_assert_eq!(fast.stats(), slow.stats(), "{}", &ctx);
                        prop_assert_eq!(fast.partition(), slow.partition(), "{}", &ctx);
                        prop_assert!(fast.state_identical_to_rebuild(), "{} memoized drifted", &ctx);
                        prop_assert!(slow.state_identical_to_rebuild(), "{} reference drifted", &ctx);
                        repairs += fast.stats().repair_moves;
                    }
                }
            }
        }
        // The grid must actually exercise both outcomes of the search.
        prop_assert!(searches > 0, "no failed searches in the grid");
        prop_assert!(repairs > 0, "no successful repairs in the grid");
    }
}

/// At 128 cores — the fig-1-style acceptance-sweep scale — every optimized
/// scheme (strong and weak families) still emits exactly the partition its
/// pre-optimization reference loop emits.
#[test]
fn scheme_identity_at_128_cores() {
    let params = GenParams::default().with_n_range(1024, 1024).with_cores(128).with_nsu(0.5);
    let ts = generate_task_set(&params, 0xC0FFEE);

    let strong = paper_schemes();
    let strong_refs = reference_paper_schemes();
    assert_eq!(strong.len(), strong_refs.len());
    for (optimized, reference) in strong.iter().zip(&strong_refs) {
        same_outcome(&ts, &reference.partition(&ts, 128), &optimized.partition(&ts, 128))
            .unwrap_or_else(|e| panic!("{} diverges at 128 cores: {e:?}", optimized.name()));
    }

    let weak = paper_schemes_weak();
    let weak_refs: Vec<DynScheme> = vec![
        Box::new(ReferenceBinPacker::wfd().with_fit(FitTest::Simple)),
        Box::new(ReferenceBinPacker::ffd().with_fit(FitTest::Simple)),
        Box::new(ReferenceBinPacker::bfd().with_fit(FitTest::Simple)),
        Box::new(ReferenceHybrid::default().with_fit(FitTest::Simple)),
        Box::new(ReferenceCatpa::default()),
    ];
    for (optimized, reference) in weak.iter().zip(&weak_refs) {
        same_outcome(&ts, &reference.partition(&ts, 128), &optimized.partition(&ts, 128))
            .unwrap_or_else(|e| panic!("weak {} diverges at 128 cores: {e:?}", optimized.name()));
    }
}
