//! `sim-soak`: the only workload where `mcs-sim` does the work. Set-up
//! partitions default-point task sets with CA-TPA; each round simulates
//! every partition under EDF-VD on the event engine once per behaviour
//! level b = 1..=K (`LevelCap::new(b)`), at the derived horizon of 20
//! max-periods. b = 1 is the nominal steady path; b ≥ 2 overruns and
//! exercises mode switches and drops.
//!
//! Work is counted in simulated jobs. A run's length depends on its task
//! set's periods, so run latencies mostly measure the input; the op
//! latency percentiles are taken over each run's mean time per job.

use std::hint::black_box;
use std::time::Instant;

use mcs_gen::{generate_task_set, trial_seed, GenParams};
use mcs_model::{CritLevel, Partition, TaskSet};
use mcs_partition::{Catpa, Partitioner};
use mcs_sim::{
    simulate_partition_with, LevelCap, SimConfig, SimEngine, SimReport, SystemScheduler,
};

use crate::spans::Recorder;
use crate::{counts, Bench, Round, SIM_LEVEL_SPANS};

/// CA-TPA partitions simulated per round.
pub const SETS: usize = 64;
/// Every `TICK_STRIDE`-th simulation of the first round is re-run on the
/// tick-loop oracle engine, which must give an identical report.
pub const TICK_STRIDE: usize = 16;

/// Set-up inputs of the soak workload.
pub struct SoakBench {
    sets: Vec<(TaskSet, Partition)>,
    config: SimConfig,
}

impl SoakBench {
    /// Partition `pool` (default [`SETS`]) default-point task sets with
    /// CA-TPA. Seeds whose set CA-TPA cannot partition are skipped, so
    /// every simulation has an EDF-VD partition to run.
    pub fn setup(base: u64, pool: Option<usize>, mut rec: Option<&mut Recorder>) -> Self {
        let params = GenParams::default();
        let want = pool.unwrap_or(SETS);
        let mut sets = Vec::with_capacity(want);
        for i in 0.. {
            if sets.len() == want {
                break;
            }
            let t0 = Instant::now();
            let ts = generate_task_set(&params, trial_seed(base, i));
            let t1 = Instant::now();
            let partition = Catpa::default().partition(&ts, params.cores);
            let t2 = Instant::now();
            if let Some(rec) = rec.as_deref_mut() {
                rec.push("gen.task_set", i, None, t0, t1);
                rec.push("partition.catpa_setup", i, None, t1, t2);
            }
            if let Ok(p) = partition {
                sets.push((ts, p));
            }
        }
        Self { sets, config: SimConfig::default() }
    }

    fn simulate(&self, set: usize, level: u8, engine: SimEngine) -> Option<SimReport> {
        let (ts, p) = &self.sets[set];
        simulate_partition_with(ts, p, SystemScheduler::EdfVd, &self.config, engine, |_| {
            LevelCap::new(level)
        })
        .ok()
        .map(|(report, _)| report)
    }
}

impl Bench for SoakBench {
    fn round(&mut self, first: bool, mut rec: Option<&mut Recorder>) -> Round {
        let mut r = Round::default();
        let (mut mode_switches, mut drops) = (0, 0);
        let mut run = 0;
        for set in 0..self.sets.len() {
            let k = self.sets[set].0.num_levels();
            let root = rec.as_deref_mut().map(|rec| {
                let now = Instant::now();
                rec.push("bench.soak", set, None, now, now)
            });
            for level in 1..=k {
                let s = Instant::now();
                let report = black_box(self.simulate(set, level, SimEngine::Event));
                let e = Instant::now();
                let ns = (e - s).as_nanos() as u64;
                r.busy_ns += ns;
                if let Some(rec) = rec.as_deref_mut() {
                    rec.push(SIM_LEVEL_SPANS[usize::from(level) - 1], set, root, s, e);
                }
                r.attempted += 1;
                let Some(report) = report else {
                    r.failed += 1;
                    continue;
                };
                let total = report.total();
                r.work += total.released;
                // The op is one simulated job: jobs cannot be timed one by
                // one, so each run contributes its mean time per job.
                r.op_ns.push(ns / total.released.max(1));
                mode_switches += total.mode_switches;
                drops += total.dropped;
                let mut ok = report.guarantee_held(CritLevel::new(level));
                if first && run % TICK_STRIDE == 0 {
                    ok &= self.simulate(set, level, SimEngine::Tick).as_ref() == Some(&report);
                }
                r.failed += u64::from(!ok);
                run += 1;
            }
            if let (Some(rec), Some(root)) = (rec.as_deref_mut(), root) {
                rec.set_end(root, Instant::now());
            }
        }
        r.counts = counts([
            ("runs", run as u64),
            ("jobs", r.work),
            ("mode_switches", mode_switches),
            ("drops", drops),
        ]);
        r
    }
}
