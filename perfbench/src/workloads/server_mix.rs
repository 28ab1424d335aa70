//! `server_mix`: admission, queueing and the shared fit cache under an
//! open-loop arrival stream.
//!
//! Two tenants submit POP studies on CIFAR (8 configurations x 20 epochs,
//! `PredictorConfig::test()`, 2 machines) from one generator thread that
//! follows a due-time schedule, on a fixed ladder of arrival rates, 100
//! studies per step; half the studies in a step repeat an earlier study of
//! the same step, so `SharedFitCache` answers reads while it takes writes.
//! A study's latency runs from when it was due: generator lateness +
//! `queue_latency` + `run_duration`. A last step submits 100 studies at
//! once and measures how fast the server drains them. The server has
//! shards = fit threads = available parallelism.

use std::time::{Duration, Instant};

use hyperdrive_core::PopConfig;
use hyperdrive_curve::{PredictorConfig, SharedFitCache};
use hyperdrive_framework::{ExperimentSpec, ExperimentWorkload};
use hyperdrive_server::{
    derive_study_seed, run_study_standalone, Server, ServerConfig, StudyOutcome, StudySpec,
};
use hyperdrive_types::SimTime;
use hyperdrive_workload::CifarWorkload;

use super::{report_trace, timed_setup};
use crate::report::Report;
use crate::{digest, stats, Args};

/// Arrival rates of the paced steps, studies per second. The first is the
/// nominal step whose latency the end-to-end metric reports.
const LADDER: &[f64] = &[10.0, 20.0, 30.0];
/// Studies per step: p90 then has ten samples beyond it.
const STEP_STUDIES: usize = 100;
/// The latency limit on a step's p90, in seconds.
pub const SLO_P90_S: f64 = 0.5;
const CONFIGS: usize = 8;
const EPOCHS: u32 = 20;
const TENANTS: usize = 2;
/// Every n-th distinct study is byte-compared against a standalone run.
const STANDALONE_EVERY: usize = 10;
const SETUP_REPS: usize = 40;

/// The studies of every step, ladder steps first, then the burst step.
fn studies(seed: u64) -> Vec<Vec<StudySpec>> {
    let w = CifarWorkload::new().with_max_epochs(EPOCHS);
    let steps = LADDER.len() + 1;
    (0..steps)
        .map(|step| {
            let mut originals: Vec<u64> = Vec::new();
            (0..STEP_STUDIES)
                .map(|i| {
                    let draw = derive_study_seed(seed, (step * STEP_STUDIES + i) as u64);
                    // Half the studies repeat an earlier study of the step.
                    let study_seed = if draw % 2 == 1 && !originals.is_empty() {
                        originals[(draw / 2) as usize % originals.len()]
                    } else {
                        originals.push(draw);
                        draw
                    };
                    StudySpec {
                        tenant: format!("tenant-{}", i % TENANTS),
                        workload: ExperimentWorkload::from_workload(&w, CONFIGS, study_seed),
                        spec: ExperimentSpec::new(2)
                            .with_stop_on_target(false)
                            .with_tmax(SimTime::from_hours(48.0)),
                        policy: PopConfig {
                            predictor: PredictorConfig::test(),
                            fit_threads: 1,
                            ..Default::default()
                        },
                        seed: study_seed,
                    }
                })
                .collect()
        })
        .collect()
}

fn shards() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn start_server() -> Server {
    let n = shards();
    Server::with_cache(
        ServerConfig {
            shards: n,
            fit_threads: n,
            // A whole burst step fits in one shard's queue, so no study
            // is refused for want of room on any host.
            queue_capacity: STEP_STUDIES,
            tenant_quota: STEP_STUDIES,
            ..ServerConfig::default()
        },
        Some(SharedFitCache::in_memory()),
    )
}

/// One step's measurements.
#[derive(Debug, Default)]
struct Step {
    /// Achieved arrival rate (studies over the send window), per second.
    rate: f64,
    latency: Vec<f64>,
    queue_wait: Vec<f64>,
    run: Vec<f64>,
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
    rejected: u64,
    /// From the first due time to the last outcome, in seconds.
    span: f64,
    epochs: u64,
    /// Generator time submitting, sleeping and waiting for outcomes.
    submit_s: f64,
    sleep_s: f64,
    wait_s: f64,
}

/// Sends `specs` on a due-time schedule at `rate` per second (all at once
/// when `rate` is infinite), then collects every outcome.
fn step<'a>(
    server: &Server,
    specs: &'a [StudySpec],
    rate: f64,
    outcomes: &mut Vec<(&'a StudySpec, StudyOutcome)>,
    report: &mut Report,
) -> Step {
    let mut s = Step::default();
    let start = Instant::now();
    let mut tickets = Vec::with_capacity(specs.len());
    let (mut first_sent, mut last_sent) = (None, start);
    for (i, spec) in specs.iter().enumerate() {
        let due =
            start + Duration::from_secs_f64(if rate.is_finite() { i as f64 / rate } else { 0.0 });
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
            s.sleep_s += (Instant::now() - now).as_secs_f64();
        }
        let t = Instant::now();
        first_sent.get_or_insert(t);
        last_sent = t;
        let late = t.saturating_duration_since(due).as_secs_f64();
        let submitted = server.submit(spec.clone());
        let took = t.elapsed().as_secs_f64();
        s.submit_s += took;
        s.submit_us.push(took * 1e6);
        s.late_ms.push(late * 1e3);
        report.attempted += 1;
        match submitted {
            Ok(ticket) => tickets.push((spec, due, late, ticket)),
            Err(e) => {
                // Refused: failed, and a miss of the latency limit.
                s.rejected += 1;
                s.latency.push(f64::INFINITY);
                report.fail(format!("submission refused: {e}"));
            }
        }
    }
    // Achieved rate: the gaps between the first and the last send.
    let window = first_sent.map_or(0.0, |first| (last_sent - first).as_secs_f64());
    s.rate = if window > 0.0 { (specs.len() - 1) as f64 / window } else { f64::INFINITY };
    let t = Instant::now();
    let mut end = 0.0f64;
    for (spec, due, late, ticket) in tickets {
        let outcome = ticket.wait();
        let latency =
            late + outcome.queue_latency.as_secs_f64() + outcome.run_duration.as_secs_f64();
        end = end.max((due - start).as_secs_f64() + latency);
        s.latency.push(latency);
        s.queue_wait.push(outcome.queue_latency.as_secs_f64());
        s.run.push(outcome.run_duration.as_secs_f64());
        s.epochs += outcome.total_epochs;
        outcomes.push((spec, outcome));
    }
    s.wait_s = t.elapsed().as_secs_f64();
    s.span = end;
    s
}

/// One pass over the ladder and the burst step on a fresh server.
struct Ladder<'a> {
    steps: Vec<Step>,
    wall: f64,
    digest: u64,
    /// Every study with its outcome, in submission order.
    outcomes: Vec<(&'a StudySpec, StudyOutcome)>,
    cache: hyperdrive_curve::CacheStatsSnapshot,
    pool: hyperdrive_curve::FitPoolStats,
}

fn ladder<'a>(all: &'a [Vec<StudySpec>], report: &mut Report) -> Ladder<'a> {
    let server = start_server();
    let mut outcomes = Vec::new();
    let t = Instant::now();
    let steps: Vec<Step> = all
        .iter()
        .zip(LADDER.iter().copied().chain([f64::INFINITY]))
        .map(|(specs, rate)| step(&server, specs, rate, &mut outcomes, report))
        .collect();
    let wall = t.elapsed().as_secs_f64();
    let digest = digest::combine(outcomes.iter().map(|(_, o)| digest::text(&o.trace)));
    Ladder {
        steps,
        wall,
        digest,
        cache: server.cache_snapshot(),
        pool: server.pool().stats(),
        outcomes,
    }
}

/// The highest achieved paced rate whose p90 latency met the limit, or 0.
fn max_rate_in_slo(steps: &[Step]) -> f64 {
    steps[..LADDER.len()]
        .iter()
        .filter(|s| s.rejected == 0 && stats::quantile(&s.latency, 0.9) <= SLO_P90_S)
        .map(|s| s.rate)
        .fold(0.0, f64::max)
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new("mem");
    let (specs, setup_s) = timed_setup(SETUP_REPS, || {
        let specs = studies(args.seed);
        drop(start_server());
        specs
    });

    let plain = ladder(&specs, &mut report);
    report.check_digest("server ladder", plain.digest);
    let traced = args.trace.then(|| {
        let l = ladder(&specs, &mut report);
        report.check_digest("traced server ladder", l.digest);
        l
    });

    // Byte-compare a sample of distinct studies against standalone runs.
    let mut seen = std::collections::BTreeSet::new();
    let distinct = plain.outcomes.iter().filter(|(s, _)| seen.insert(s.seed));
    for (spec, outcome) in distinct.step_by(STANDALONE_EVERY) {
        let alone = run_study_standalone(spec);
        if alone.trace != outcome.trace || alone.posterior_digest != outcome.posterior_digest {
            report.fail(format!("study seed {} differs from its standalone run", spec.seed));
        }
    }

    let nominal = &plain.steps[0];
    let burst = plain.steps.last().expect("the burst step");
    // Capacity: studies per second of shard busy time, over every study.
    let shard_s = plain.outcomes.iter().map(|(_, o)| o.run_duration.as_secs_f64()).sum::<f64>()
        / shards() as f64;
    let epochs: u64 = plain.outcomes.iter().map(|(_, o)| o.total_epochs).sum();
    report.e2e("setup_s", setup_s);
    report.e2e("studies_per_s", plain.outcomes.len() as f64 / shard_s);
    report.e2e("events_per_s", epochs as f64 / shard_s);
    report.e2e("latency_s", stats::quantile(&nominal.latency, 0.9));
    report.extra("latency_p50_s", stats::median(&nominal.latency), "s");
    report.extra("max_rate_in_slo", max_rate_in_slo(&plain.steps), "studies/s");
    report.extra("burst_drain_per_s", STEP_STUDIES as f64 / burst.span, "studies/s");
    for (s, rate) in plain.steps.iter().zip(LADDER) {
        report.extra(
            &format!("step_{rate}_per_s.latency_p90_s"),
            stats::quantile(&s.latency, 0.9),
            "s",
        );
    }

    if let Some(l) = traced {
        report.layer("workload.gen_s", timed_setup(SETUP_REPS, || studies(args.seed)).1);
        let nominal = &l.steps[0];
        let paced = &l.steps[..LADDER.len()];
        let submit_us: Vec<f64> = l.steps.iter().flat_map(|s| s.submit_us.clone()).collect();
        let late_max = paced.iter().flat_map(|s| s.late_ms.iter().copied()).fold(0.0, f64::max);
        report.layer("server.submit_us_p99", stats::quantile(&submit_us, 0.99));
        report.layer("server.rejected", l.steps.iter().map(|s| s.rejected as f64).sum());
        report.layer("server.queue_wait_s_p50", stats::median(&nominal.queue_wait));
        report.layer("server.queue_wait_s_p90", stats::quantile(&nominal.queue_wait, 0.9));
        report.layer("server.run_s_p50", stats::median(&nominal.run));
        report.layer("server.gen_late_ms_max", late_max);
        report.layer("server.latency_p90_s", stats::quantile(&nominal.latency, 0.9));
        report.layer("server.max_rate_in_slo", max_rate_in_slo(&l.steps));
        let sum = |f: fn(&hyperdrive_framework::FitCacheSnapshot) -> u64| {
            l.outcomes.iter().filter_map(|(_, o)| o.fit_cache.as_ref()).map(f).sum::<u64>() as f64
        };
        let completions = (l.pool.demand_completions + l.pool.speculative_completions) as f64;
        report.layer("curve.fits", sum(|f| f.fits));
        report.layer("curve.local_hits", sum(|f| f.local_hits));
        report.layer("curve.stall_s", l.pool.stall_secs);
        report.layer("curve.busy_s", l.pool.busy_secs);
        report.layer(
            "curve.fit_ms_mean",
            if completions > 0.0 { l.pool.busy_secs / completions * 1e3 } else { 0.0 },
        );
        report.layer("curve.pool_idle_frac", l.pool.idle_fraction());
        report.layer(
            "curve.spec_wasted",
            l.outcomes.iter().map(|(_, o)| o.spec_stats.wasted() as f64).sum(),
        );
        report.layer("cache.lookups", l.cache.lookups as f64);
        report.layer("cache.hits", l.cache.shared_hits as f64);
        report.layer("cache.inserts", l.cache.inserts as f64);
        report.layer("cache.hit_rate", l.cache.hit_rate());
        let self_sum: f64 = l.steps.iter().map(|s| s.submit_s + s.sleep_s + s.wait_s).sum();
        report_trace(&mut report, &[l.wall], &[plain.wall], self_sum);
    }
    report
}
