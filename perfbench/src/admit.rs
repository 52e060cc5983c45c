//! `admit-churn` and `admit-saturated`: one closed-loop client replaying
//! generated lifecycle traces through `AdmissionEngine` (CA-TPA policy).
//! Each op is issued when the previous call returns and the engine has no
//! queue, so an op's latency is its service time.

use std::hint::black_box;
use std::time::Instant;

use mcs_analysis::Theorem1;
use mcs_gen::{generate_task_set, generate_trace, trial_seed, GenParams, TraceOp, TraceParams};
use mcs_model::{TaskId, TaskSet};
use mcs_partition::{AdmissionEngine, AdmissionPolicy, Decision};

use crate::spans::Recorder;
use crate::{counts, Bench, Round};

/// Shape of one admission workload.
#[derive(Clone, Copy, Debug)]
pub struct AdmitShape {
    /// Normalized system utilization of each generated universe.
    pub nsu: f64,
    /// Lifecycle ops per trace.
    pub ops: usize,
    /// Probability that an op departs a resident task.
    pub depart_ratio: f64,
    /// Traces replayed per round.
    pub traces: usize,
}

/// `admit-churn`: default point, short traces, most arrivals admitted
/// directly.
pub const CHURN: AdmitShape = AdmitShape { nsu: 0.6, ops: 256, depart_ratio: 0.4, traces: 1024 };

/// `admit-saturated`: resident demand past capacity, so about a third of
/// the arrivals run (and fail) the repair search before being rejected.
pub const SATURATED: AdmitShape =
    AdmitShape { nsu: 1.0, ops: 512, depart_ratio: 0.15, traces: 512 };

/// One generated trace with its universe and engine.
struct Lane {
    universe: TaskSet,
    ops: Vec<TraceOp>,
    engine: AdmissionEngine,
}

/// Set-up inputs of an admission workload.
pub struct AdmitBench {
    cores: usize,
    lanes: Vec<Lane>,
    /// Which universe tasks the replay believes resident.
    resident: Vec<bool>,
}

impl AdmitBench {
    /// Generate `pool` (default `shape.traces`) universes and traces at
    /// the default point with `shape`'s NSU; trace `i` uses seed
    /// `trial_seed(base, i)` for both, as `mcs-exp admit` does.
    pub fn setup(
        shape: &AdmitShape,
        base: u64,
        pool: Option<usize>,
        mut rec: Option<&mut Recorder>,
    ) -> Self {
        let params = GenParams::default().with_nsu(shape.nsu);
        let trace_params = TraceParams { ops: shape.ops, depart_ratio: shape.depart_ratio };
        let lanes = (0..pool.unwrap_or(shape.traces))
            .map(|i| {
                let s = trial_seed(base, i);
                let t0 = Instant::now();
                let universe = generate_task_set(&params, s);
                let t1 = Instant::now();
                let ops = generate_trace(universe.len(), &trace_params, s);
                let t2 = Instant::now();
                if let Some(rec) = rec.as_deref_mut() {
                    rec.push("gen.task_set", i, None, t0, t1);
                    rec.push("gen.trace", i, None, t1, t2);
                }
                Lane { universe, ops, engine: AdmissionEngine::new(AdmissionPolicy::catpa()) }
            })
            .collect();
        Self { cores: params.cores, lanes, resident: Vec::new() }
    }
}

impl Bench for AdmitBench {
    fn round(&mut self, _first: bool, mut rec: Option<&mut Recorder>) -> Round {
        let mut r = Round::default();
        let (mut arrivals, mut admits, mut rejects, mut repairs, mut searches, mut departs) =
            (0, 0, 0, 0, 0, 0);
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let engine = &mut lane.engine;
            self.resident.clear();
            self.resident.resize(lane.universe.len(), false);
            let mut bad_ops = 0;
            let start = Instant::now();
            let root = rec.as_deref_mut().map(|rec| rec.push("bench.trace", i, None, start, start));
            engine.reset(&lane.universe, self.cores);
            if let Some(rec) = rec.as_deref_mut() {
                rec.push("partition.reset", i, root, start, Instant::now());
            }
            for op in &lane.ops {
                match *op {
                    TraceOp::Arrive(id) => {
                        let repairs_before = engine.stats().repair_moves;
                        let s = Instant::now();
                        let decision = black_box(engine.admit(id));
                        let e = Instant::now();
                        r.op_ns.push((e - s).as_nanos() as u64);
                        arrivals += 1;
                        let repaired = engine.stats().repair_moves > repairs_before;
                        let kind = match decision {
                            Decision::Admitted { core, utilization } => {
                                admits += 1;
                                if repaired {
                                    repairs += 1;
                                    searches += 1;
                                }
                                self.resident[id.index()] = true;
                                if core.index() >= self.cores
                                    || !utilization.is_finite()
                                    || utilization > 1.0
                                {
                                    bad_ops += 1;
                                }
                                if repaired {
                                    "partition.admit.repaired"
                                } else {
                                    "partition.admit.direct"
                                }
                            }
                            Decision::Rejected => {
                                rejects += 1;
                                // The search runs while the per-reset repair
                                // budget (decremented per success) lasts.
                                if engine.stats().repair_moves
                                    < AdmissionEngine::DEFAULT_REPAIR_BUDGET as u64
                                {
                                    searches += 1;
                                }
                                "partition.admit.rejected"
                            }
                        };
                        if let Some(rec) = rec.as_deref_mut() {
                            rec.push(kind, i, root, s, e);
                        }
                    }
                    TraceOp::Depart(id) => {
                        let s = Instant::now();
                        let removed = black_box(engine.depart(id));
                        let e = Instant::now();
                        r.depart_ns.push((e - s).as_nanos() as u64);
                        departs += u64::from(removed);
                        if removed != self.resident[id.index()] {
                            bad_ops += 1;
                        }
                        self.resident[id.index()] = false;
                        if let Some(rec) = rec.as_deref_mut() {
                            rec.push("partition.depart", i, root, s, e);
                        }
                    }
                }
            }
            let end = Instant::now();
            r.busy_ns += (end - start).as_nanos() as u64;
            if let (Some(rec), Some(root)) = (rec.as_deref_mut(), root) {
                rec.set_end(root, end);
            }
            let ops = lane.ops.len() as u64;
            r.work += ops;
            r.attempted += ops;
            r.failed +=
                if trace_state_ok(engine, &lane.universe, &self.resident) { bad_ops } else { ops };
        }
        r.counts = counts([
            ("arrivals", arrivals),
            ("admits", admits),
            ("rejects", rejects),
            ("repairs", repairs),
            ("repair_searches", searches),
            ("departs", departs),
        ]);
        r
    }

    fn flush_telemetry(&self) {
        for lane in &self.lanes {
            lane.engine.flush_telemetry();
        }
    }
}

/// End-of-trace checks: the live sums equal a rebuild, every core passes
/// Theorem 1 again, and the placement holds exactly the tasks the replay
/// saw admitted and not departed.
fn trace_state_ok(engine: &AdmissionEngine, universe: &TaskSet, resident: &[bool]) -> bool {
    if !engine.state_identical_to_rebuild() {
        return false;
    }
    let partition = engine.partition();
    let placed_match = resident.iter().enumerate().all(|(i, r)| {
        let id = TaskId(u32::try_from(i).expect("universe index fits u32"));
        partition.core_of(id).is_some() == *r && engine.is_resident(id) == *r
    });
    placed_match && partition.core_tables(universe).iter().all(|t| Theorem1::compute(t).feasible())
}
