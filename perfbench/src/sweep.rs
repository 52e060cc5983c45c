//! `paper-sweep`: the figure-reproduction hot path. Each trial is one
//! `mcs_exp::sweep::run_point_in` call on a one-worker harness session:
//! generate a default-point task set, partition it with the five paper
//! schemes (WFD, FFD, BFD, Hybrid, CA-TPA) and summarize each partition's
//! quality. The admission engine does no work here.
//!
//! Set-up computes every trial's expected result with the bare schemes:
//! generation, the five partitions and their quality summaries. Every
//! round's trial results must match it bit for bit. The first round also
//! re-derives each trial's partitions, outside the timed call, to check
//! Theorem 1 and a sample against the reference schemes.
//!
//! Untraced rounds pass the bare schemes to `run_point_in`, so the timed
//! call carries no benchmark code. Traced rounds pass [`Observed`]
//! wrappers that time each scheme call. Generation and the quality
//! summary inside `run_point_in` are out of reach; the traced run records
//! them from the set-up, which runs them on the same inputs, and estimates
//! `harness.overhead_s` from that (see `harness_overhead_ns`).

use std::hint::black_box;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use mcs_analysis::Theorem1;
use mcs_exp::sweep::run_point_in;
use mcs_exp::PointResult;
use mcs_gen::{generate_task_set, trial_seed, GenParams};
use mcs_harness::{RunConfig, RunSession};
use mcs_model::{Partition, TaskSet};
use mcs_partition::{
    reference_paper_schemes, PartitionFailure, PartitionQuality, Partitioner, QualityScratch,
    SchemeFlags, SchemeRegistry, PAPER_SET,
};

use crate::spans::Recorder;
use crate::{counts, Bench, Round, SCHEME_SPANS};

/// Trials replayed per round.
pub const TRIALS: usize = 2048;
/// Every `REFERENCE_STRIDE`-th trial of the first round is re-run through
/// the pre-optimization reference schemes.
pub const REFERENCE_STRIDE: usize = 16;

type Scheme = Box<dyn Partitioner + Send + Sync>;

/// Start and end of a scheme's last call.
type Slot = Arc<Mutex<Option<(Instant, Instant)>>>;

/// A paper scheme that remembers when its last call ran, so the traced
/// run can record it as a span after `run_point_in` returns.
struct Observed {
    inner: Scheme,
    slot: Slot,
}

impl Partitioner for Observed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn partition(&self, ts: &TaskSet, cores: usize) -> Result<Partition, PartitionFailure> {
        let start = Instant::now();
        let result = self.inner.partition(ts, cores);
        let end = Instant::now();
        *self.slot.lock().unwrap_or_else(PoisonError::into_inner) = Some((start, end));
        result
    }

    fn certifies_theorem1(&self) -> bool {
        self.inner.certifies_theorem1()
    }
}

/// One scheme's result on one trial: whether it partitioned the set and,
/// if so, the bits of its quality summary (`U_sys`, `U_avg`, `Λ`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct SchemeOutcome {
    schedulable: bool,
    quality: Option<[u64; 3]>,
}

impl SchemeOutcome {
    /// The outcome a one-trial `run_point_in` reports for a scheme.
    fn of(point: &PointResult) -> Self {
        let schedulable = point.schedulable == 1;
        let bits = [point.u_sys.to_bits(), point.u_avg.to_bits(), point.imbalance.to_bits()];
        Self { schedulable, quality: schedulable.then_some(bits) }
    }
}

type Expected = [SchemeOutcome; SCHEME_SPANS.len()];

/// Set-up inputs of the sweep workload.
pub struct SweepBench {
    params: GenParams,
    /// Pool base seed: trial `i` runs with `trial_seed(base, i)`.
    base: u64,
    /// Expected result of every trial.
    expected: Vec<Expected>,
    /// Tasks generated over the pool.
    tasks: u64,
    /// The bare paper schemes: untraced rounds and the output checks.
    schemes: Vec<Scheme>,
    /// The same schemes behind [`Observed`]: traced rounds.
    observed: Vec<Scheme>,
    slots: Vec<Slot>,
    reference: Vec<Scheme>,
}

impl SweepBench {
    /// Build both scheme line-ups and compute the expected result of every
    /// trial of the pool (default [`TRIALS`]).
    pub fn setup(base: u64, pool: Option<usize>, mut rec: Option<&mut Recorder>) -> Self {
        let params = GenParams::default();
        let registry = SchemeRegistry::standard();
        let flags = SchemeFlags::default();
        let schemes = registry.build_set(&PAPER_SET, &flags);
        let slots: Vec<Slot> = PAPER_SET.iter().map(|_| Slot::default()).collect();
        let observed = registry
            .build_set(&PAPER_SET, &flags)
            .into_iter()
            .zip(&slots)
            .map(|(inner, slot)| Box::new(Observed { inner, slot: Arc::clone(slot) }) as Scheme)
            .collect();
        let mut scratch = QualityScratch::new();
        let mut tasks = 0;
        let expected = (0..pool.unwrap_or(TRIALS))
            .map(|i| {
                let t0 = Instant::now();
                let ts = generate_task_set(&params, trial_seed(base, i));
                if let Some(rec) = rec.as_deref_mut() {
                    rec.push("gen.task_set", i, None, t0, Instant::now());
                }
                tasks += ts.len() as u64;
                let mut row = Expected::default();
                for (outcome, scheme) in row.iter_mut().zip(&schemes) {
                    let Ok(p) = scheme.partition(&ts, params.cores) else { continue };
                    let q0 = Instant::now();
                    let quality = PartitionQuality::summarize(&ts, &p, &mut scratch);
                    if let Some(rec) = rec.as_deref_mut() {
                        rec.push("partition.quality", i, None, q0, Instant::now());
                    }
                    *outcome = SchemeOutcome {
                        schedulable: true,
                        quality: quality
                            .map(|q| [q.u_sys.to_bits(), q.u_avg.to_bits(), q.imbalance.to_bits()]),
                    };
                }
                row
            })
            .collect();
        Self {
            params,
            base,
            expected,
            tasks,
            schemes,
            observed,
            slots,
            reference: reference_paper_schemes(),
        }
    }

    /// Deep checks of trial `i`, outside the timed call: each scheme's
    /// partition agrees with the expected schedulability, passes Theorem 1
    /// again and, on every [`REFERENCE_STRIDE`]-th trial, equals the
    /// reference scheme's. Returns (checked, failed).
    fn deep_check(&self, i: usize) -> (u64, u64) {
        let ts = generate_task_set(&self.params, trial_seed(self.base, i));
        let (mut checked, mut failed) = (0, 0);
        for (j, scheme) in self.schemes.iter().enumerate() {
            checked += 1;
            let partition = scheme.partition(&ts, self.params.cores).ok();
            let ok = partition.is_some() == self.expected[i][j].schedulable
                && partition.as_ref().is_none_or(|p| {
                    p.core_tables(&ts).iter().all(|t| Theorem1::compute(t).feasible())
                })
                && (!i.is_multiple_of(REFERENCE_STRIDE)
                    || self.reference[j].partition(&ts, self.params.cores).ok() == partition);
            failed += u64::from(!ok);
        }
        (checked, failed)
    }
}

/// One trial: a one-trial, one-worker session seeded so that it runs
/// exactly trial `seed` of the sweep.
fn trial(params: &GenParams, schemes: &[Scheme], seed: u64) -> Vec<PointResult> {
    let mut session = RunSession::new(RunConfig { trials: 1, threads: 1, seed });
    run_point_in(&mut session, "trial", params, schemes)
}

impl Bench for SweepBench {
    fn round(&mut self, first: bool, mut rec: Option<&mut Recorder>) -> Round {
        let mut r = Round::default();
        let mut schedulable = [0u64; SCHEME_SPANS.len()];
        let line_up = if rec.is_some() { &self.observed } else { &self.schemes };
        for (i, expected) in self.expected.iter().enumerate() {
            let start = Instant::now();
            let points = black_box(trial(&self.params, line_up, trial_seed(self.base, i)));
            let end = Instant::now();
            let ns = (end - start).as_nanos() as u64;
            r.op_ns.push(ns);
            r.busy_ns += ns;
            r.work += 1;

            if let Some(rec) = rec.as_deref_mut() {
                let root = rec.push("harness.trial", i, None, start, end);
                for (slot, (_, span)) in self.slots.iter().zip(SCHEME_SPANS) {
                    r.attempted += 1;
                    match slot.lock().unwrap_or_else(PoisonError::into_inner).take() {
                        Some((s, e)) => {
                            rec.push(span, i, Some(root), s, e);
                        }
                        None => r.failed += 1,
                    }
                }
            }
            r.attempted += 1;
            let names_ok = points.iter().map(|p| p.scheme).eq(SCHEME_SPANS.map(|(s, _)| s));
            let got: Vec<SchemeOutcome> = points.iter().map(SchemeOutcome::of).collect();
            r.failed += u64::from(!names_ok || got != expected);
            for (n, o) in schedulable.iter_mut().zip(&got) {
                *n += u64::from(o.schedulable);
            }
            if first {
                let (checked, failed) = self.deep_check(i);
                r.attempted += checked;
                r.failed += failed;
            }
        }
        r.counts = counts([("trials", self.expected.len() as u64), ("tasks", self.tasks)]);
        r.counts.extend(
            SCHEME_SPANS.iter().zip(schedulable).map(|((s, _), n)| (format!("{s}.schedulable"), n)),
        );
        r
    }
}
