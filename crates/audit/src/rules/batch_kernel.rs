//! Rule `batch-kernel-consistency`: the struct-of-arrays batch probe
//! kernel must agree *bit for bit* with the scalar per-core probe path
//! ([`CoreView::probe_verdict`] and the [`CoreSums`] oracle) on live
//! partitions, along both of its axes: the core axis
//! ([`batch_probe_verdicts`], one candidate × every core) and the
//! candidate axis ([`batch_probe_candidates`] / [`batch_candidate_fits`],
//! every task × one core — the repair search's memo refresh). The
//! placement loops consume the batch verdicts directly, so any lane-wise
//! divergence — masking bugs, reassociated sums, padding leaking into real
//! lanes — silently changes experiment figures.

use mcs_analysis::{
    batch_candidate_fits, batch_probe_candidates, batch_probe_verdicts, CoreBank, CoreSums,
    TaskRow, TaskTable, Verdict,
};
use mcs_model::CoreId;

use crate::diagnostic::{Diagnostic, Subject};
use crate::invariant::{AuditContext, Invariant};
use crate::rules::shapes_match;

/// Stable id of this rule.
pub const ID: &str = "batch-kernel-consistency";

/// Rebuilds the [`TaskTable`] + [`CoreBank`] pair from the partition under
/// audit (task-id order per core, the same order every other rebuild in
/// this crate uses), then cross-checks a stride-sampled subset of candidate
/// tasks: one core-axis sweep per candidate and one candidate-axis sweep
/// per core, every sampled lane compared bitwise against both the strided
/// [`CoreView`] scalar verdict and an independent contiguous [`CoreSums`]
/// verdict for the same (task, core), and every fit bit against the
/// scalar feasibility.
///
/// [`CoreView`]: mcs_analysis::CoreView
pub struct BatchKernelConsistency;

fn opt_bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

/// Bitwise comparison of two fused verdicts on every observable the
/// placement loops consume.
fn verdicts_bit_equal(a: &Verdict, b: &Verdict) -> bool {
    a.feasible() == b.feasible()
        && a.own_level_total.to_bits() == b.own_level_total.to_bits()
        && opt_bits(a.core_utilization) == opt_bits(b.core_utilization)
        && opt_bits(a.core_utilization_slack) == opt_bits(b.core_utilization_slack)
}

fn report_mismatch(
    core: CoreId,
    label: &str,
    oracle: &str,
    batch: &Verdict,
    reference: &Verdict,
    out: &mut Vec<Diagnostic>,
) {
    out.push(Diagnostic::error(
        ID,
        Subject::Core(core),
        format!(
            "{label}: batch lane verdict (feasible={}, own={:.17e}, util={:?}, slack={:?}) \
             is not bit-equal to the {oracle} verdict (feasible={}, own={:.17e}, \
             util={:?}, slack={:?})",
            batch.feasible(),
            batch.own_level_total,
            batch.core_utilization,
            batch.core_utilization_slack,
            reference.feasible(),
            reference.own_level_total,
            reference.core_utilization,
            reference.core_utilization_slack,
        ),
    ));
}

impl Invariant for BatchKernelConsistency {
    fn id(&self) -> &'static str {
        ID
    }

    fn description(&self) -> &'static str {
        "SoA batch probe kernel (core and candidate axes) is bit-identical to the scalar probe path per lane"
    }

    fn check(&self, ctx: &AuditContext<'_>, out: &mut Vec<Diagnostic>) {
        if !shapes_match(ctx) {
            return;
        }
        let cores = ctx.partition.num_cores();
        if cores == 0 || ctx.ts.is_empty() {
            return;
        }

        // Rebuild the SoA state from the partition in task-id order and a
        // contiguous CoreSums oracle in the *same* order, so bit equality
        // is the correct expectation, not a tolerance.
        let mut tasks = TaskTable::new();
        tasks.reset(ctx.ts);
        let mut bank = CoreBank::new();
        bank.reset(ctx.ts.num_levels(), cores);
        let mut oracle: Vec<CoreSums> =
            (0..cores).map(|_| CoreSums::new(ctx.ts.num_levels())).collect();
        for (i, t) in ctx.ts.tasks().iter().enumerate() {
            if let Some(core) = ctx.partition.core_of(t.id()) {
                let row = tasks.row(i);
                bank.add(core.0 as usize, &row);
                oracle[core.0 as usize].add(&TaskRow::new(t));
            }
        }

        // Resident-state cross-check: every strided view must match its
        // contiguous oracle before any probing starts.
        for (m, sums) in oracle.iter().enumerate() {
            let core = CoreId(u16::try_from(m).expect("core index fits u16"));
            let view = bank.view(m);
            if view.task_count() != sums.task_count() {
                out.push(Diagnostic::error(
                    ID,
                    Subject::Core(core),
                    format!(
                        "CoreBank counts {} tasks on the core, CoreSums counts {}",
                        view.task_count(),
                        sums.task_count()
                    ),
                ));
            }
            let strided = view.evaluate_verdict();
            let contiguous = sums.evaluate_verdict();
            if !verdicts_bit_equal(&strided, &contiguous) {
                report_mismatch(core, "resident set", "CoreSums", &strided, &contiguous, out);
            }
        }

        // Stride-sample candidate tasks (deterministically, spread over the
        // id space) and compare every lane of one batch sweep against both
        // scalar paths. Probing every task over every core costs O(N·M)
        // kernel evaluations per audited partition; the proptest
        // differential suite carries the exhaustive version of this claim.
        const MAX_BATCH_CANDIDATES: usize = 16;
        let n = ctx.ts.len();
        let stride = (n / MAX_BATCH_CANDIDATES).max(1);
        let mut batch: Vec<Verdict> = Vec::new();
        for i in (0..n).step_by(stride).take(MAX_BATCH_CANDIDATES) {
            let row = tasks.row(i);
            batch_probe_verdicts(&bank, &row, &mut batch);
            if batch.len() != cores {
                out.push(Diagnostic::error(
                    ID,
                    Subject::System,
                    format!(
                        "batch kernel emitted {} verdicts for {} cores probing task {}",
                        batch.len(),
                        cores,
                        ctx.ts.tasks()[i].id()
                    ),
                ));
                continue;
            }
            for (m, lane) in batch.iter().enumerate() {
                let core = CoreId(u16::try_from(m).expect("core index fits u16"));
                let label = format!("batch probe of task {}", ctx.ts.tasks()[i].id());
                let scalar = bank.view(m).probe_verdict(&row);
                if !verdicts_bit_equal(lane, &scalar) {
                    report_mismatch(core, &label, "CoreView", lane, &scalar, out);
                }
                let reference = oracle[m].probe_verdict(&TaskRow::new(&ctx.ts.tasks()[i]));
                if !verdicts_bit_equal(lane, &reference) {
                    report_mismatch(core, &label, "CoreSums", lane, &reference, out);
                }
            }
        }

        // Candidate axis: one sweep of every task per core, the sampled
        // lanes compared against both scalar paths, every fit bit against
        // the sweep's own verdict.
        let mut mask = vec![0u64; n.div_ceil(64)];
        for (m, sums) in oracle.iter().enumerate() {
            let core = CoreId(u16::try_from(m).expect("core index fits u16"));
            batch_probe_candidates(&bank, m, &tasks, &mut batch);
            batch_candidate_fits(&bank, m, &tasks, &mut mask);
            if batch.len() != n {
                out.push(Diagnostic::error(
                    ID,
                    Subject::Core(core),
                    format!("candidate kernel emitted {} verdicts for {n} tasks", batch.len()),
                ));
                continue;
            }
            for (i, lane) in batch.iter().enumerate() {
                if (mask[i / 64] >> (i % 64) & 1 == 1) != lane.feasible() {
                    out.push(Diagnostic::error(
                        ID,
                        Subject::Core(core),
                        format!(
                            "candidate fit bit of task {} disagrees with its lane verdict",
                            ctx.ts.tasks()[i].id()
                        ),
                    ));
                }
            }
            for i in (0..n).step_by(stride).take(MAX_BATCH_CANDIDATES) {
                let lane = &batch[i];
                let label = format!("candidate-axis probe of task {}", ctx.ts.tasks()[i].id());
                let scalar = bank.view(m).probe_verdict(&tasks.row(i));
                if !verdicts_bit_equal(lane, &scalar) {
                    report_mismatch(core, &label, "CoreView", lane, &scalar, out);
                }
                let reference = sums.probe_verdict(&TaskRow::new(&ctx.ts.tasks()[i]));
                if !verdicts_bit_equal(lane, &reference) {
                    report_mismatch(core, &label, "CoreSums", lane, &reference, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_model::{Partition, TaskBuilder, TaskId, TaskSet};

    fn ts() -> TaskSet {
        let t = |id: u32, p: u64, l: u8, w: &[u64]| {
            TaskBuilder::new(TaskId(id)).period(p).level(l).wcet(w).build().unwrap()
        };
        TaskSet::new(
            3,
            vec![
                t(0, 100, 1, &[20]),
                t(1, 100, 2, &[10, 30]),
                t(2, 50, 3, &[5, 10, 20]),
                t(3, 200, 2, &[40, 80]),
                t(4, 400, 3, &[30, 60, 90]),
                t(5, 80, 1, &[8]),
                t(6, 160, 2, &[16, 24]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn consistent_partition_is_clean() {
        let ts = ts();
        let mut p = Partition::empty(3, 7);
        for i in 0..7u32 {
            p.assign(TaskId(i), CoreId((i % 3) as u16));
        }
        let mut out = Vec::new();
        BatchKernelConsistency.check(&AuditContext::new(&ts, &p, "t"), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn partial_partition_is_clean() {
        let ts = ts();
        let mut p = Partition::empty(2, 7);
        p.assign(TaskId(1), CoreId(0));
        p.assign(TaskId(4), CoreId(1));
        let mut out = Vec::new();
        BatchKernelConsistency.check(&AuditContext::new(&ts, &p, "t"), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn more_cores_than_lanes_is_clean() {
        // Cross the LANES boundary so masked tail lanes are exercised.
        let ts = ts();
        let mut p = Partition::empty(11, 7);
        for i in 0..7u32 {
            p.assign(TaskId(i), CoreId((i % 11) as u16));
        }
        let mut out = Vec::new();
        BatchKernelConsistency.check(&AuditContext::new(&ts, &p, "t"), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn mismatched_verdicts_are_reported() {
        let ts = ts();
        let empty = CoreSums::new(3);
        let mut loaded = CoreSums::new(3);
        for t in ts.tasks() {
            loaded.add(&TaskRow::new(t));
        }
        let a = empty.evaluate_verdict();
        let b = loaded.evaluate_verdict();
        assert!(!verdicts_bit_equal(&a, &b));
        let mut out = Vec::new();
        report_mismatch(CoreId(0), "test", "CoreSums", &a, &b, &mut out);
        assert_eq!(out.len(), 1);
    }
}
