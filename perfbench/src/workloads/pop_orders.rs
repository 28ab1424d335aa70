//! `pop_orders`: the fig12c path.
//!
//! The CIFAR trace set fig12c replays (100 configurations, trace seed 7),
//! in fig12c's first [`ORDERS`] configuration orders. Each order runs POP,
//! Bandit, EarlyTerm and Default on 5 machines with a 48 h `Tmax`,
//! stop-on-target, `PredictorConfig::fast()`, an in-memory shared fit
//! cache per repetition and one fit thread, sequentially on one thread.
//! The workload seed sets each policy's prediction seed and the executor
//! seed. The orders stay fixed: which configurations lead an order sets
//! how soon the target falls, and drawing orders from the seed made the
//! work per run vary threefold between seeds.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use hyperdrive_core::{AllocationSnapshot, PopConfig, PopPolicy};
use hyperdrive_curve::{PredictorConfig, SharedFitCache};
use hyperdrive_framework::{DefaultPolicy, ExperimentSpec, ExperimentWorkload, SchedulingPolicy};
use hyperdrive_policies::{BanditPolicy, EarlyTermConfig, EarlyTermPolicy};
use hyperdrive_server::derive_study_seed;
use hyperdrive_sim::run_sim;
use hyperdrive_types::SimTime;
use hyperdrive_workload::{CifarWorkload, TraceSet, Workload};

use super::{timed_setup, Budget, SimLayers};
use crate::layers::{drive, engine_inputs, TracedPolicy};
use crate::report::{Report, POLICIES};
use crate::{digest, stats, Args};

const CONFIGS: usize = 100;
const TRACE_SEED: u64 = 7;
const ORDERS: u64 = 8;
const MACHINES: usize = 5;
const TMAX_HOURS: f64 = 48.0;
const SETUP_REPS: usize = 60;

/// One built policy, kept concrete so POP's telemetry stays reachable.
enum Built {
    Pop(Box<PopPolicy>),
    Bandit(BanditPolicy),
    EarlyTerm(EarlyTermPolicy),
    Default(DefaultPolicy),
}

impl Built {
    /// Builds the policy a `POLICIES` entry names.
    fn new(name: &str, seed: u64, cache: &Arc<SharedFitCache>) -> Built {
        let predictor = PredictorConfig::fast();
        match name {
            "pop" => Built::Pop(Box::new(PopPolicy::with_config_and_cache(
                PopConfig { predictor, seed, fit_threads: 1, ..Default::default() },
                Some(Arc::clone(cache)),
            ))),
            "bandit" => Built::Bandit(BanditPolicy::new()),
            "earlyterm" => Built::EarlyTerm(EarlyTermPolicy::with_config_and_cache(
                EarlyTermConfig { predictor, seed, ..Default::default() },
                Some(Arc::clone(cache)),
            )),
            _ => Built::Default(DefaultPolicy::new()),
        }
    }

    fn policy(&mut self) -> &mut dyn SchedulingPolicy {
        match self {
            Built::Pop(p) => p.as_mut(),
            Built::Bandit(p) => p,
            Built::EarlyTerm(p) => p,
            Built::Default(p) => p,
        }
    }

    fn timeline(&self) -> &[AllocationSnapshot] {
        match self {
            Built::Pop(p) => p.timeline(),
            _ => &[],
        }
    }
}

fn setup() -> Vec<ExperimentWorkload> {
    let w = CifarWorkload::new();
    let traces = TraceSet::generate(&w, CONFIGS, TRACE_SEED);
    (0..ORDERS)
        .map(|order| {
            ExperimentWorkload::from_traces(
                &traces.permuted(order),
                w.domain_knowledge(),
                w.eval_boundary(),
                w.default_target(),
                w.suspend_model(),
            )
        })
        .collect()
}

/// Counters from the curve layer, summed over a repetition.
#[derive(Debug, Default, Clone, Copy)]
struct CurveCounters {
    fits: u64,
    warm_fits: u64,
    batched_fits: u64,
    local_hits: u64,
    busy_s: f64,
    capacity_s: f64,
    completions: u64,
    spec_wasted: u64,
    lookups: u64,
    hits: u64,
    inserts: u64,
}

struct Rep {
    wall: f64,
    studies: u64,
    events: u64,
    digest: u64,
    ttt_h: Vec<f64>,
    curve: CurveCounters,
}

/// Runs every order under every policy once, through `run_sim` or, with
/// `traced`, through the timed bench loop and policy wrapper.
fn rep(
    experiments: &[ExperimentWorkload],
    seed: u64,
    mut traced: Option<&mut SimLayers>,
    report: &mut Report,
) -> Rep {
    let spec =
        ExperimentSpec::new(MACHINES).with_tmax(SimTime::from_hours(TMAX_HOURS)).with_seed(seed);
    let mut out = Rep {
        wall: 0.0,
        studies: 0,
        events: 0,
        digest: 0,
        ttt_h: Vec::new(),
        curve: CurveCounters::default(),
    };
    let mut digests = Vec::new();
    for (order, experiment) in experiments.iter().enumerate() {
        let cache = SharedFitCache::in_memory();
        let policy_seed = derive_study_seed(seed, order as u64);
        for name in POLICIES {
            let mut built = Built::new(name, policy_seed, &cache);
            report.attempted += 1;
            let t = Instant::now();
            let run = catch_unwind(AssertUnwindSafe(|| match traced.as_deref_mut() {
                Some(layers) => {
                    let before = layers.sim.events;
                    let mut wrapper = TracedPolicy::new(built.policy());
                    let result = drive(&mut wrapper, experiment, spec, &mut layers.sim);
                    layers.policies.entry(name).or_default().absorb(&wrapper.tally);
                    (result, Some(layers.sim.events - before))
                }
                None => (run_sim(built.policy(), experiment, spec), None),
            }));
            let took = t.elapsed().as_secs_f64();
            let Ok((result, popped)) = run else {
                report.fail(format!("order {order}: {name} panicked"));
                continue;
            };
            out.wall += took;
            out.studies += 1;
            out.events += engine_inputs(&result);
            if popped.is_some_and(|n| n != engine_inputs(&result)) {
                report.fail(format!("order {order}: {name}: bench loop event count mismatch"));
            }
            digests.push(digest::study(&result, built.timeline()));
            if let Built::Pop(pop) = &built {
                out.ttt_h.push(result.time_to_target.map_or(TMAX_HOURS, |t| t.as_hours()));
                let (fit, pool) = (pop.fit_stats(), pop.pool_stats());
                let c = &mut out.curve;
                c.fits += fit.fits;
                c.warm_fits += fit.warm_fits;
                c.batched_fits += fit.batched_fits;
                c.local_hits += fit.cache_hits;
                c.busy_s += pool.busy_secs;
                c.capacity_s += pool.uptime_secs * pool.threads as f64;
                c.completions += pool.demand_completions + pool.speculative_completions;
                c.spec_wasted += pop.spec_stats().wasted();
                if let Some(layers) = traced.as_deref_mut() {
                    *layers.stall_s.entry("pop").or_default() += pool.stall_secs;
                }
            } else if let Some(snapshot) = built.policy().fit_cache_snapshot() {
                out.curve.fits += snapshot.fits;
            }
        }
        let snapshot = cache.snapshot();
        out.curve.lookups += snapshot.lookups;
        out.curve.hits += snapshot.shared_hits;
        out.curve.inserts += snapshot.inserts;
    }
    out.digest = digest::combine(digests);
    out
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new("mem");
    let (experiments, setup_s) = timed_setup(SETUP_REPS, || {
        let experiments = setup();
        // Users of the figure path also pay for the cache and a fit pool.
        let cache = SharedFitCache::in_memory();
        drop(Built::new("pop", 0, &cache));
        experiments
    });

    let budget = Budget::new(args.seconds);
    let mut untraced: Vec<Rep> = Vec::new();
    let mut layers = SimLayers::default();
    let mut traced: Vec<Rep> = Vec::new();
    while budget.more(untraced.len()) || (args.trace && traced.is_empty()) {
        let r = rep(&experiments, args.seed, None, &mut report);
        report.check_digest("untraced repetition", r.digest);
        layers.untraced_wall.push(r.wall);
        untraced.push(r);
        if args.trace {
            let r = rep(&experiments, args.seed, Some(&mut layers), &mut report);
            report.check_digest("traced repetition", r.digest);
            layers.reps += 1;
            layers.traced_wall.push(r.wall);
            traced.push(r);
        }
    }

    let wall: f64 = untraced.iter().map(|r| r.wall).sum();
    let studies: u64 = untraced.iter().map(|r| r.studies).sum();
    let events: u64 = untraced.iter().map(|r| r.events).sum();
    let first = &untraced[0];
    report.e2e("setup_s", setup_s);
    report.e2e("studies_per_s", studies as f64 / wall);
    report.e2e("events_per_s", events as f64 / wall);
    // The orders are fixed and differ threefold in cost, so their median
    // is an arbitrary pick; the mean time per order is the figure's cost.
    report.e2e("latency_s", wall / (untraced.len() as u64 * ORDERS) as f64);
    let ttt_p50 = stats::median(&first.ttt_h);
    let ttt_max = first.ttt_h.iter().copied().fold(0.0, f64::max);
    report.extra("pop.ttt_h_p50", ttt_p50, "h");
    report.extra("pop.ttt_h_max", ttt_max, "h");

    if args.trace {
        layers.report(&mut report);
        report.layer("workload.gen_s", timed_setup(SETUP_REPS, setup).1);
        report.layer("pop.ttt_h_p50", ttt_p50);
        report.layer("pop.ttt_h_max", ttt_max);
        let n = traced.len() as f64;
        let sum =
            |f: fn(&CurveCounters) -> f64| traced.iter().map(|r| f(&r.curve)).sum::<f64>() / n;
        let busy = sum(|c| c.busy_s);
        let capacity = sum(|c| c.capacity_s);
        let completions = sum(|c| c.completions as f64);
        let lookups = sum(|c| c.lookups as f64);
        let hits = sum(|c| c.hits as f64);
        report.layer("curve.fits", sum(|c| c.fits as f64));
        report.layer("curve.warm_fits", sum(|c| c.warm_fits as f64));
        report.layer("curve.batched_fits", sum(|c| c.batched_fits as f64));
        report.layer("curve.local_hits", sum(|c| c.local_hits as f64));
        report.layer("curve.stall_s", layers.stall_s.get("pop").copied().unwrap_or(0.0) / n);
        report.layer("curve.busy_s", busy);
        report.layer(
            "curve.fit_ms_mean",
            if completions > 0.0 { busy / completions * 1e3 } else { 0.0 },
        );
        report.layer(
            "curve.pool_idle_frac",
            if capacity > 0.0 { 1.0 - busy / capacity } else { 0.0 },
        );
        report.layer("curve.spec_wasted", sum(|c| c.spec_wasted as f64));
        report.layer("cache.lookups", lookups);
        report.layer("cache.hits", hits);
        report.layer("cache.inserts", sum(|c| c.inserts as f64));
        report.layer("cache.hit_rate", if lookups > 0.0 { hits / lookups } else { 0.0 });
    }
    report
}
