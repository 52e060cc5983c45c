//! The repository benchmark: four named workloads that drive the CA-TPA
//! layers through their public functions, check every output, and report
//! end-to-end metrics (untraced run) or per-layer metrics (traced run).
//!
//! A run builds its inputs from the seed ([`Bench`] set-up, timed as
//! `setup_s`), then replays the same input pool round after round until
//! the time budget is spent; the set-up is repeated at even points of the
//! budget and `setup_s` is the median. Every round does identical work, so the
//! spread between rounds is host noise; each end-to-end metric is the
//! median over rounds. The traced run alternates untraced and traced
//! rounds: the traced ones record a span around every call into a layer
//! and read the `mcs-obs` counters around the round, and the gap between
//! the two kinds of round is reported as `obs.trace_overhead_pct`.
//! README.md in this directory explains how to run and read it.

pub mod admit;
pub mod soak;
pub mod spans;
pub mod stats;
pub mod sweep;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use mcs_obs::{Counter, Snapshot};

use crate::spans::{LayerTable, Recorder};
use crate::stats::{median, percentile, Hist};

/// Set-ups per run, spread over the budget; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop admission churn at NSU 0.6 (fast path).
    AdmitChurn,
    /// Closed-loop admission past capacity at NSU 1.0 (repair path).
    AdmitSaturated,
    /// The figure sweep: five paper schemes per generated set.
    PaperSweep,
    /// EDF-VD simulation of CA-TPA partitions at every behaviour level.
    SimSoak,
}

impl Workload {
    /// Every workload, in BENCHMARK.json order.
    pub const ALL: [Workload; 4] =
        [Workload::AdmitChurn, Workload::AdmitSaturated, Workload::PaperSweep, Workload::SimSoak];

    /// Command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::AdmitChurn => "admit-churn",
            Workload::AdmitSaturated => "admit-saturated",
            Workload::PaperSweep => "paper-sweep",
            Workload::SimSoak => "sim-soak",
        }
    }

    /// Inverse of [`Workload::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed; every input is derived from it.
    pub seed: u64,
    /// Run length, set-ups included.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Input pool size per round; `None` selects the workload's own.
    pub pool: Option<usize>,
}

/// What one replay of the input pool measured and checked.
#[derive(Debug, Default)]
pub struct Round {
    /// Units of work completed (lifecycle ops, trials or simulated jobs).
    pub work: u64,
    /// Time inside the measured calls, output checks excluded.
    pub busy_ns: u64,
    /// Latency of every measured op: an admit call, a trial, or a
    /// simulation run's mean time per job.
    pub op_ns: Vec<u64>,
    /// Latency of every `depart()` call (admission workloads only).
    pub depart_ns: Vec<u64>,
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that failed a check.
    pub failed: u64,
    /// Exact counts of the round; must repeat on every round of a run.
    pub counts: Vec<(String, u64)>,
}

/// Named exact counts.
fn counts<const N: usize>(pairs: [(&str, u64); N]) -> Vec<(String, u64)> {
    pairs.into_iter().map(|(name, v)| (name.to_string(), v)).collect()
}

fn count_of(counts: &[(String, u64)], name: &str) -> u64 {
    counts.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
}

/// A workload after set-up.
pub trait Bench {
    /// Replay the input pool once. `first` is true on the run's first
    /// round (the sampled differential checks run there). With a
    /// recorder, time every call into a layer as a span.
    fn round(&mut self, first: bool, rec: Option<&mut Recorder>) -> Round;

    /// Flush telemetry the workload's engines tally locally.
    fn flush_telemetry(&self) {}
}

/// One reported figure.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.to_string(), value, unit }
}

/// Everything a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// The run's configuration.
    pub config: Config,
    /// End-to-end metrics (BENCHMARK.json `end_to_end`, every workload).
    pub end_to_end: Vec<Metric>,
    /// The workload's own end-to-end figures under their descriptive
    /// names (`admit_ops_per_s`, `reject_ratio`, `error_ratio`, …).
    pub named: Vec<Metric>,
    /// Per-layer metrics (BENCHMARK.json `per_layer`, traced run only).
    pub per_layer: Vec<Metric>,
    /// Exact counts of one round.
    pub counts: Vec<(String, u64)>,
    /// Other human-readable lines (sample counts, tails, self-time table).
    pub notes: Vec<String>,
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that failed a check.
    pub failed: u64,
}

impl Outcome {
    /// Whether every output check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The reported metrics of this run: end-to-end when untraced,
    /// per-layer when traced.
    #[must_use]
    pub fn reported(&self) -> &[Metric] {
        if self.config.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The human-readable report followed by the one-line JSON result.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let c = &self.config;
        let _ = writeln!(
            out,
            "workload {} seed {} seconds {} trace {}",
            c.workload.name(),
            c.seed,
            c.seconds,
            u8::from(c.trace)
        );
        for (name, v) in &self.counts {
            let _ = writeln!(out, "count {name} {v}");
        }
        for line in &self.notes {
            let _ = writeln!(out, "{line}");
        }
        let shown =
            if c.trace { vec![&self.per_layer] } else { vec![&self.named, &self.end_to_end] };
        for m in shown.into_iter().flatten() {
            let _ = writeln!(out, "metric {} {} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .reported()
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

/// Run one workload.
///
/// # Errors
/// When a reported value is not finite or peak memory cannot be read.
pub fn run(config: &Config) -> Result<Outcome, String> {
    let seed = pool_base(config.seed);
    let pool = config.pool;
    match config.workload {
        Workload::AdmitChurn => {
            drive(config, |rec| admit::AdmitBench::setup(&admit::CHURN, seed, pool, rec))
        }
        Workload::AdmitSaturated => {
            drive(config, |rec| admit::AdmitBench::setup(&admit::SATURATED, seed, pool, rec))
        }
        Workload::PaperSweep => drive(config, |rec| sweep::SweepBench::setup(seed, pool, rec)),
        Workload::SimSoak => drive(config, |rec| soak::SoakBench::setup(seed, pool, rec)),
    }
}

/// First generator seed of a run's input pool; item `i` of the pool uses
/// `mcs_gen::trial_seed(pool_base(seed), i)`. The SplitMix64 finalizer
/// spreads consecutive benchmark seeds apart, so their pools do not share
/// items the way `trial_seed(seed, i)` and `trial_seed(seed + 1, i - 1)`
/// would.
#[must_use]
pub fn pool_base(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-round figures kept after the round's samples are dropped.
#[derive(Clone, Copy, Debug)]
struct Summary {
    rate: f64,
    p50_ns: f64,
    p99_ns: f64,
    depart_p99_ns: f64,
}

fn summarize(round: &mut Round) -> Summary {
    round.op_ns.sort_unstable();
    round.depart_ns.sort_unstable();
    Summary {
        rate: round.work as f64 / (round.busy_ns.max(1) as f64 * 1e-9),
        p50_ns: percentile(&round.op_ns, 0.50) as f64,
        p99_ns: percentile(&round.op_ns, 0.99) as f64,
        depart_p99_ns: percentile(&round.depart_ns, 0.99) as f64,
    }
}

fn drive<B: Bench>(
    config: &Config,
    setup: impl Fn(Option<&mut Recorder>) -> B,
) -> Result<Outcome, String> {
    let origin = Instant::now();
    let mut setup_rec = Recorder::new(origin);
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut bench = None;
    let mut plain: Vec<Summary> = Vec::new();
    let mut traced: Vec<Summary> = Vec::new();
    let mut op_hist = Hist::default();
    let mut depart_hist = Hist::default();
    let mut table = LayerTable::default();
    let mut counters = vec![0u64; Counter::COUNT];
    let mut first_spans: Option<Recorder> = None;
    let mut counts: Option<Vec<(String, u64)>> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let budget = Duration::from_secs_f64(config.seconds);
    let start = Instant::now();
    loop {
        let have_both = !plain.is_empty() && (!config.trace || !traced.is_empty());
        let elapsed = start.elapsed();
        if have_both && setup_s.len() == SETUP_REPEATS && elapsed >= budget {
            break;
        }
        // Set-up repeat k runs once k/SETUP_REPEATS of the budget has
        // passed, so `setup_s`, like the round figures, samples the whole
        // run rather than one moment of it. The traced run records the
        // spans of the last set-up, which is not the process's first.
        if setup_s.len() < SETUP_REPEATS
            && elapsed >= budget.mul_f64(setup_s.len() as f64 / SETUP_REPEATS as f64)
        {
            // Drop the previous inputs first so memory reflects one set-up.
            drop(bench.take());
            let rec =
                (config.trace && setup_s.len() + 1 == SETUP_REPEATS).then_some(&mut setup_rec);
            let t = Instant::now();
            bench = Some(setup(rec));
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let Some(bench) = bench.as_mut() else { unreachable!("the first pass sets up") };
        let tracing = config.trace && traced.len() < plain.len();
        let first = plain.is_empty() && traced.is_empty();
        let mut round = if tracing {
            bench.flush_telemetry();
            let before = Snapshot::capture();
            let mut rec = Recorder::new(origin);
            let round = bench.round(first, Some(&mut rec));
            bench.flush_telemetry();
            for (c, v) in Snapshot::capture().delta_since(&before).counters() {
                counters[c as usize] += v;
            }
            rec.fold_into(&mut table);
            first_spans.get_or_insert(rec);
            round
        } else {
            bench.round(first, None)
        };
        attempted += round.attempted;
        failed += round.failed;
        // Replays of one pool must repeat their exact counts.
        match &counts {
            None => counts = Some(round.counts.clone()),
            Some(c) if *c != round.counts => failed += round.attempted,
            Some(_) => {}
        }
        if tracing {
            traced.push(summarize(&mut round));
        } else {
            round.op_ns.iter().for_each(|v| op_hist.add(*v));
            round.depart_ns.iter().for_each(|v| depart_hist.add(*v));
            plain.push(summarize(&mut round));
        }
    }
    let counts = counts.unwrap_or_default();
    let med = |f: fn(&Summary) -> f64, rounds: &[Summary]| {
        median(&rounds.iter().map(f).collect::<Vec<_>>())
    };
    let ops_per_s = med(|s| s.rate, &plain);
    let op_p50_us = med(|s| s.p50_ns, &plain) / 1e3;
    let op_p99_us = med(|s| s.p99_ns, &plain) / 1e3;
    let end_to_end = vec![
        metric("ops_per_s", ops_per_s, "1/s"),
        metric("op_p50_us", op_p50_us, "us"),
        metric("op_p99_us", op_p99_us, "us"),
        metric("setup_s", median(&setup_s), "s"),
        metric("peak_rss_mb", stats::peak_rss_mb()?, "MB"),
    ];

    let mut named = Vec::new();
    let mut notes = vec![format!(
        "rounds untraced {} traced {} setup repeats {SETUP_REPEATS}",
        plain.len(),
        traced.len()
    )];
    let op_label = match config.workload {
        Workload::AdmitChurn | Workload::AdmitSaturated => {
            named.push(metric("admit_ops_per_s", ops_per_s, "1/s"));
            named.push(metric("admit_p50_us", op_p50_us, "us"));
            named.push(metric("admit_p99_us", op_p99_us, "us"));
            named.push(metric("depart_p99_us", med(|s| s.depart_p99_ns, &plain) / 1e3, "us"));
            let arrivals = count_of(&counts, "arrivals");
            let rejects = count_of(&counts, "rejects");
            named.push(metric("reject_ratio", ratio(rejects as f64, arrivals as f64), "ratio"));
            let (label, ns) = depart_hist.deepest_tail();
            notes.push(format!(
                "samples depart {} (tail {label} {} us, pooled)",
                depart_hist.len(),
                ns as f64 / 1e3
            ));
            "admit"
        }
        Workload::PaperSweep => {
            named.push(metric("sweep_trials_per_s", ops_per_s, "1/s"));
            "trial"
        }
        Workload::SimSoak => {
            named.push(metric("sim_jobs_per_s", ops_per_s, "1/s"));
            "job_mean"
        }
    };
    let (label, ns) = op_hist.deepest_tail();
    notes.push(format!(
        "samples {op_label} {} (tail {label} {} us, pooled; not a gated metric)",
        op_hist.len(),
        ns as f64 / 1e3
    ));
    named.push(metric("error_ratio", ratio(failed as f64, attempted as f64), "ratio"));

    let mut per_layer = Vec::new();
    if config.trace {
        let overhead_pct = (ops_per_s / med(|s| s.rate, &traced) - 1.0) * 100.0;
        let n = traced.len() as f64;
        let counters: Vec<f64> = counters.iter().map(|c| *c as f64 / n).collect();
        per_layer = layer_metrics(&setup_rec, &table, n, &counters, &counts, overhead_pct);
        notes.extend(self_time_table(&setup_rec, &table, n));
        if let Some(rec) = &first_spans {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
                "spans-{}-seed{}.jsonl",
                config.workload.name(),
                config.seed
            ));
            rec.write_jsonl(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
            notes.push(format!("spans of the first traced round written to {}", path.display()));
        }
    }
    for m in end_to_end.iter().chain(&named).chain(&per_layer) {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
    }
    Ok(Outcome {
        config: config.clone(),
        end_to_end,
        named,
        per_layer,
        counts,
        notes,
        attempted,
        failed,
    })
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Span names of the five paper schemes, in `PAPER_SET` order.
pub const SCHEME_SPANS: [(&str, &str); 5] = [
    ("WFD", "partition.wfd"),
    ("FFD", "partition.ffd"),
    ("BFD", "partition.bfd"),
    ("Hybrid", "partition.hybrid"),
    ("CA-TPA", "partition.catpa"),
];

/// Span names of the simulation runs, by behaviour level 1..=4.
pub const SIM_LEVEL_SPANS: [&str; 4] = ["sim.level1", "sim.level2", "sim.level3", "sim.level4"];

/// Layers (span-name prefixes) whose self time is reported as
/// `self.<layer>_s`; the harness layer's is `harness.overhead_s`.
const LAYERS: [&str; 4] = ["bench", "gen", "partition", "sim"];

/// Every per-layer metric, for every workload (a layer the workload does
/// not reach reports 0). Span figures are per round, plus set-up spans
/// once; counters are `mcs-obs` deltas per traced round.
fn layer_metrics(
    setup: &Recorder,
    rounds: &LayerTable,
    n: f64,
    counters: &[f64],
    counts: &[(String, u64)],
    overhead_pct: f64,
) -> Vec<Metric> {
    let mut setup_table = LayerTable::default();
    setup.fold_into(&mut setup_table);
    let busy = |name: &str| {
        (setup_table.get(name).total_ns as f64 + rounds.get(name).total_ns as f64 / n) * 1e-9
    };
    let calls = |name: &str| setup_table.get(name).calls as f64 + rounds.get(name).calls as f64 / n;
    let ctr = |c: Counter| counters[c as usize];
    let count = |name: &str| count_of(counts, name) as f64;

    let mut m = vec![
        metric("gen.task_set_busy_s", busy("gen.task_set"), "s"),
        metric("gen.trace_busy_s", busy("gen.trace"), "s"),
    ];
    for kind in ["direct", "repaired", "rejected"] {
        let span = format!("partition.admit.{kind}");
        m.push(metric(&format!("{span}.calls"), calls(&span), "count"));
        m.push(metric(&format!("{span}.busy_s"), busy(&span), "s"));
    }
    m.push(metric(
        "partition.repair.useful_ratio",
        ratio(count("repairs"), count("repair_searches")),
        "ratio",
    ));
    m.push(metric("partition.depart.calls", calls("partition.depart"), "count"));
    m.push(metric("partition.depart.busy_s", busy("partition.depart"), "s"));
    m.push(metric("partition.reset.busy_s", busy("partition.reset"), "s"));
    let probes = ctr(Counter::EngineProbesIssued);
    m.push(metric("analysis.probes", probes, "count"));
    m.push(metric(
        "analysis.probes_per_admit",
        ratio(probes, ctr(Counter::PlacementAttempts)),
        "ratio",
    ));
    m.push(metric(
        "analysis.probe_feasible_ratio",
        ratio(ctr(Counter::EngineProbesFeasible), probes),
        "ratio",
    ));
    let batches = ctr(Counter::EngineBatchCalls);
    m.push(metric("analysis.batch_calls", batches, "count"));
    m.push(metric(
        "analysis.lanes_per_batch",
        ratio(ctr(Counter::EngineBatchLaneSlots), batches),
        "ratio",
    ));
    for (scheme, span) in SCHEME_SPANS {
        m.push(metric(&format!("{span}.busy_s"), busy(span), "s"));
        m.push(metric(
            &format!("{span}.schedulable"),
            count(&format!("{scheme}.schedulable")),
            "count",
        ));
    }
    m.push(metric("partition.quality.busy_s", busy("partition.quality"), "s"));
    m.push(metric("partition.alpha_fallbacks", ctr(Counter::AlphaFallbacks), "count"));
    m.push(metric("partition.catpa_setup_s", busy("partition.catpa_setup"), "s"));
    m.push(metric("harness.trials", ctr(Counter::HarnessTrialsComputed), "count"));
    m.push(metric("harness.overhead_s", harness_overhead_ns(&setup_table, rounds, n) * 1e-9, "s"));
    for span in SIM_LEVEL_SPANS {
        m.push(metric(&format!("{span}.busy_s"), busy(span), "s"));
    }
    let jobs = ctr(Counter::SimReleases);
    m.push(metric("sim.jobs", jobs, "count"));
    m.push(metric("sim.mode_switches", ctr(Counter::SimModeSwitches), "count"));
    m.push(metric("sim.drops", ctr(Counter::SimDrops), "count"));
    m.push(metric("sim.events_popped", ctr(Counter::SimEventsPopped), "count"));
    m.push(metric("sim.heap_pushes_per_job", ratio(ctr(Counter::SimHeapPushes), jobs), "ratio"));
    m.push(metric("obs.trace_overhead_pct", overhead_pct, "%"));
    for layer in LAYERS {
        let ns = setup_table.layer_self_ns(layer) as f64 + rounds.layer_self_ns(layer) as f64 / n;
        m.push(metric(&format!("self.{layer}_s"), ns * 1e-9, "s"));
    }
    m
}

/// Per-round estimate of what a sweep trial costs beyond generation, the
/// five schemes and their quality summaries: the trial spans' self time
/// (their duration minus the scheme spans) minus the set-up's generation
/// and quality spans, which run the same calls on the same inputs outside
/// the trial. Those are one-off runs in set-up rather than the calls
/// inside the trial, on other cache contents, so the estimate carries
/// their difference; it is signed, not clamped, and 0 on workloads
/// without trial spans.
fn harness_overhead_ns(setup: &LayerTable, rounds: &LayerTable, n: f64) -> f64 {
    let trial = rounds.get("harness.trial");
    if trial.calls == 0 {
        return 0.0;
    }
    trial.self_ns as f64 / n
        - setup.get("gen.task_set").total_ns as f64
        - setup.get("partition.quality").total_ns as f64
}

/// The per-span self-time table of the traced run (per round; set-up
/// spans once).
fn self_time_table(setup: &Recorder, rounds: &LayerTable, n: f64) -> Vec<String> {
    let mut setup_table = LayerTable::default();
    setup.fold_into(&mut setup_table);
    let mut lines = vec![format!(
        "{:<28} {:>12} {:>12} {:>12}  (per round)",
        "span", "calls", "total_s", "self_s"
    )];
    for (label, table, div) in [("set-up", &setup_table, 1.0), ("round", rounds, n)] {
        for (name, a) in &table.0 {
            lines.push(format!(
                "{:<28} {:>12.1} {:>12.6} {:>12.6}  {label}",
                name,
                a.calls as f64 / div,
                a.total_ns as f64 / div * 1e-9,
                a.self_ns as f64 / div * 1e-9
            ));
        }
    }
    lines
}
