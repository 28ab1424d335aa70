//! Speculative fit-prefetch equivalence: prefetch changes *when* a fit
//! computes, never *what* it computes.
//!
//! The proptest sweeps the full configuration cube — prefetch on/off ×
//! fit threads {1, 4} × shared cache {off, mem} × batch_fit on/off — and
//! asserts every cell renders byte-identical event logs and identical
//! posterior digests. A companion test proves the sweep is non-vacuous
//! (speculations actually fire and get adopted), a kill-at-every-event
//! run shows crash recovery stays byte-identical with prefetch enabled,
//! and a window-lead check pins that every hint's predicted curve is
//! exactly the curve its boundary decision sees.

use std::collections::HashMap;

use proptest::prelude::*;

use hyperdrive::curve::{PredictorConfig, SharedFitCache, SpecStats};
use hyperdrive::framework::{
    ExperimentSpec, ExperimentWorkload, FitCacheSnapshot, JobDecision, JobEvent, PrefetchHint,
    SchedulerContext, SchedulingPolicy,
};
use hyperdrive::policies::{EarlyTermConfig, EarlyTermPolicy};
use hyperdrive::pop::{PopConfig, PopPolicy};
use hyperdrive::sim::{kill_at_every_event, run_sim};
use hyperdrive::types::CurvePoint;
use hyperdrive::workload::{CifarWorkload, LunarWorkload, Workload};
use hyperdrive::{JobId, LearningCurve, SimTime};

/// One cell of the configuration cube.
#[derive(Debug, Clone, Copy)]
struct Cell {
    prefetch: bool,
    fit_threads: usize,
    mem_cache: bool,
    batch_fit: bool,
}

/// Every combination the determinism contract must hold across.
fn cube() -> Vec<Cell> {
    let mut cells = Vec::with_capacity(16);
    for &prefetch in &[false, true] {
        for &fit_threads in &[1usize, 4] {
            for &mem_cache in &[false, true] {
                for &batch_fit in &[false, true] {
                    cells.push(Cell { prefetch, fit_threads, mem_cache, batch_fit });
                }
            }
        }
    }
    cells
}

fn workload(n_jobs: usize, epochs: u32, seed: u64) -> ExperimentWorkload {
    let w = CifarWorkload::new().with_max_epochs(epochs);
    ExperimentWorkload::from_workload(&w, n_jobs, seed)
}

fn policy_for(cell: Cell, seed: u64, cache: Option<std::sync::Arc<SharedFitCache>>) -> PopPolicy {
    // batch_fit requires the fast-math likelihood; warm starts ride along
    // so the sweep also covers the warm-refit fingerprint path.
    let predictor = PredictorConfig::test()
        .with_warm_start(cell.batch_fit)
        .with_fast_math(cell.batch_fit)
        .with_batch_fit(cell.batch_fit);
    let config = PopConfig {
        predictor,
        boundary: Some(2),
        fit_threads: cell.fit_threads,
        fit_prefetch: cell.prefetch,
        seed,
        ..PopConfig::default()
    };
    match cache {
        Some(cache) => PopPolicy::with_config_and_cache(config, Some(cache)),
        None => PopPolicy::with_config(config),
    }
}

/// Runs one cell and returns (event-log bytes, posterior digest,
/// predictions made, speculation counters).
fn run_cell(cell: Cell, n_jobs: usize, epochs: u32, seed: u64) -> (Vec<u8>, u64, u64, SpecStats) {
    let ew = workload(n_jobs, epochs, seed);
    let spec = ExperimentSpec::new(2)
        .with_tmax(SimTime::from_hours(100.0))
        .with_stop_on_target(false)
        .with_seed(seed);
    let cache = cell.mem_cache.then(SharedFitCache::in_memory);
    let mut pop = policy_for(cell, seed, cache);
    let result = run_sim(&mut pop, &ew, spec);
    let mut csv = Vec::new();
    result.events.write_csv(&mut csv).expect("writing to a Vec cannot fail");
    (csv, pop.posterior_digest(), pop.predictions_made(), pop.spec_stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The full cube agrees byte-for-byte: prefetch, thread count, shared
    /// caching, and batched fitting each change only the execution
    /// schedule of fits, never the rendered run.
    #[test]
    fn prefetch_cube_is_byte_identical(
        seed in 0u64..200,
        n_jobs in 3usize..6,
    ) {
        let baseline = Cell { prefetch: false, fit_threads: 1, mem_cache: false, batch_fit: false };
        let (csv0, digest0, preds0, _) = run_cell(baseline, n_jobs, 8, seed);
        prop_assert!(preds0 > 0, "boundaries must actually fire");
        // batch_fit changes the predictor configuration (fast-math path),
        // so cells are compared within their batch_fit half; the prefetch /
        // thread / cache axes must all collapse onto one trace per half.
        let (csv_b, digest_b, preds_b, _) =
            run_cell(Cell { batch_fit: true, ..baseline }, n_jobs, 8, seed);
        for cell in cube() {
            let (csv, digest, preds, spec) = run_cell(cell, n_jobs, 8, seed);
            let (want_csv, want_digest, want_preds) = if cell.batch_fit {
                (&csv_b, digest_b, preds_b)
            } else {
                (&csv0, digest0, preds0)
            };
            prop_assert_eq!(&csv, want_csv, "event log diverged for {:?}", cell);
            prop_assert_eq!(digest, want_digest, "posterior digest diverged for {:?}", cell);
            prop_assert_eq!(preds, want_preds, "prediction count diverged for {:?}", cell);
            if !cell.prefetch {
                prop_assert_eq!(spec.speculated, 0, "prefetch off must not speculate");
            }
        }
    }
}

/// The cube is non-vacuous: on a deterministic case, prefetch-on cells
/// really speculate and adopt, rather than silently falling back to
/// demand fits.
#[test]
fn prefetch_cells_actually_speculate() {
    for fit_threads in [1usize, 4] {
        let cell = Cell { prefetch: true, fit_threads, mem_cache: false, batch_fit: false };
        let (_, _, _, spec) = run_cell(cell, 5, 8, 42);
        assert!(spec.speculated > 0, "no speculation at {fit_threads} fit threads");
        assert!(spec.adopted > 0, "no adoption at {fit_threads} fit threads");
    }
}

/// Kill-anywhere recovery with prefetch enabled: crashing after every
/// journaled input and replaying through a fresh prefetching policy must
/// reproduce the uninterrupted trace byte-for-byte. Hints are never
/// journaled — replay re-derives them from the same issue-time state.
#[test]
fn kill_at_every_event_with_prefetch_enabled() {
    let ew = workload(4, 6, 17);
    let spec = ExperimentSpec::new(2).with_stop_on_target(false).with_seed(17);
    let plan = hyperdrive::framework::FaultPlan::none();
    let cache = SharedFitCache::in_memory();
    let make = move || -> Box<dyn SchedulingPolicy> {
        let predictor = PredictorConfig::test().with_warm_start(true).with_fast_math(true);
        let config = PopConfig {
            predictor,
            boundary: Some(2),
            fit_threads: 2,
            fit_prefetch: true,
            ..PopConfig::default()
        };
        Box::new(PopPolicy::with_config_and_cache(config, Some(cache.clone())))
    };
    let report = kill_at_every_event(make, &ew, spec, &plan).unwrap();
    assert!(report.positions > 0);
    assert_eq!(report.failures, Vec::<String>::new());
    assert_eq!(report.passes, report.positions);
}

/// Delegates to `inner`, remembering each hint's predicted curve and
/// comparing it bit for bit with the curve the hinted boundary decision
/// actually sees.
struct HintAudit<'a> {
    inner: &'a mut dyn SchedulingPolicy,
    predicted: HashMap<(JobId, u32), Vec<CurvePoint>>,
    hints: u64,
    checked: u64,
    diverged: Vec<String>,
}

impl<'a> HintAudit<'a> {
    fn new(inner: &'a mut dyn SchedulingPolicy) -> Self {
        HintAudit { inner, predicted: HashMap::new(), hints: 0, checked: 0, diverged: Vec::new() }
    }
}

fn same_bits(a: &[CurvePoint], b: &[CurvePoint]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(p, q)| {
            p.epoch == q.epoch
                && p.time.as_secs().to_bits() == q.time.as_secs().to_bits()
                && p.value.to_bits() == q.value.to_bits()
        })
}

impl SchedulingPolicy for HintAudit<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn allocate_jobs(&mut self, ctx: &mut dyn SchedulerContext) {
        self.inner.allocate_jobs(ctx);
    }
    fn application_stat(&mut self, event: &JobEvent, ctx: &mut dyn SchedulerContext) {
        self.inner.application_stat(event, ctx);
    }
    fn on_iteration_finish(
        &mut self,
        event: &JobEvent,
        ctx: &mut dyn SchedulerContext,
    ) -> JobDecision {
        if let Some(predicted) = self.predicted.remove(&(event.job, event.epoch)) {
            let seen = ctx.curve(event.job).expect("a deciding job has a curve");
            self.checked += 1;
            if !same_bits(&predicted, seen.points()) {
                self.diverged.push(format!("{:?}@{}", event.job, event.epoch));
            }
        }
        self.inner.on_iteration_finish(event, ctx)
    }
    fn take_decision_overhead(&mut self) -> SimTime {
        self.inner.take_decision_overhead()
    }
    fn prefetch_boundary(&self, default_boundary: u32) -> Option<u32> {
        self.inner.prefetch_boundary(default_boundary)
    }
    fn prefetch_hint(&mut self, hint: &PrefetchHint, curve: &LearningCurve) {
        self.hints += 1;
        self.predicted.insert((hint.job, hint.epoch), curve.points().to_vec());
        self.inner.prefetch_hint(hint, curve);
    }
    fn fit_cache_snapshot(&self) -> Option<FitCacheSnapshot> {
        self.inner.fit_cache_snapshot()
    }
}

/// The window lead is exact in simulation: for POP and EarlyTerm on the
/// CIFAR and Lunar golden setups (no faults), every hinted boundary sees
/// precisely the predicted curve — epochs, time bits and value bits — so
/// no speculation ever mismatches.
#[test]
fn window_hints_predict_the_boundary_curve_exactly() {
    let cifar = CifarWorkload::new().with_max_epochs(40);
    let lunar = LunarWorkload::new().with_max_blocks(60);
    let setups: [(&str, &dyn Workload, usize, u64, usize, SimTime); 2] = [
        ("cifar", &cifar, 12, 7, 4, SimTime::from_hours(48.0)),
        ("lunar", &lunar, 10, 11, 3, SimTime::from_hours(200.0)),
    ];
    for (name, w, configs, seed, machines, tmax) in setups {
        let ew = ExperimentWorkload::from_workload(w, configs, seed);
        let spec = ExperimentSpec::new(machines).with_stop_on_target(false).with_tmax(tmax);
        let mut pop = PopPolicy::with_config_and_cache(
            PopConfig {
                predictor: PredictorConfig::test(),
                fit_threads: 2,
                seed,
                ..Default::default()
            },
            None,
        );
        let mut et = EarlyTermPolicy::with_config_and_cache(
            EarlyTermConfig { predictor: PredictorConfig::test(), seed, ..Default::default() },
            None,
        );
        for policy in [&mut pop as &mut dyn SchedulingPolicy, &mut et] {
            let label = format!("{name}/{}", policy.name());
            let mut audit = HintAudit::new(policy);
            run_sim(&mut audit, &ew, spec);
            assert!(audit.hints > 0, "{label}: no hints fired");
            assert!(audit.checked > 0, "{label}: no hinted boundary was reached");
            assert_eq!(audit.diverged, Vec::<String>::new(), "{label}: predicted curves diverged");
        }
        for (label, stats) in [("pop", pop.spec_stats()), ("earlyterm", et.spec_stats())] {
            assert!(stats.speculated > 0, "{name}/{label}: nothing speculated ({stats:?})");
            assert!(stats.adopted > 0, "{name}/{label}: nothing adopted ({stats:?})");
            assert_eq!(stats.mismatched, 0, "{name}/{label}: a speculation mismatched ({stats:?})");
        }
    }
}
