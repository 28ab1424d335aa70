//! Crash-consistent simulation: journaled runs and kill-anywhere recovery.
//!
//! [`run_sim_journaled`] drives [`Simulation::with_journal`]: every engine
//! input goes to an explicit write-ahead [`Journal`], and an optional
//! simulated process crash stops the run dead once the engine has
//! journaled `crash_after` inputs — no seal, no result — exactly as if the
//! scheduler process had been killed. [`resume_sim_journaled`] is the
//! other half: [`Simulation::resume`] replays the journal through a fresh
//! engine and policy, rebuilds the future-event queue from the regenerated
//! command batches, verifies the already-consumed prefix against the
//! journal, and the same step loop runs the experiment to completion. The
//! recovered trace is byte-identical to an uninterrupted run —
//! [`kill_at_every_event`] proves it by crashing at *every* journal
//! position.
//!
//! [`run_sim_with_recovery`] honours
//! [`FaultKind::EngineCrash`] events in a fault plan: each one kills and
//! recovers the in-process scheduler at its journal position, chaining
//! through multiple crashes in one call.

use hyperdrive_framework::{
    ExperimentResult, ExperimentSpec, ExperimentWorkload, FaultKind, FaultPlan, FaultStats,
    Journal, RecoveredJournal, SchedulingPolicy,
};
use hyperdrive_types::{Result, SimTime};

use crate::Simulation;

/// What a journaled simulation produced.
#[derive(Debug)]
pub struct SimRunOutcome {
    /// The completed experiment — `None` if the simulated crash fired
    /// first and the run died mid-flight.
    pub result: Option<ExperimentResult>,
    /// Engine inputs journaled before the run ended. This is the
    /// coordinate space of crash positions: killing at position `k` means
    /// dying right after the engine consumed its `k`-th input.
    pub inputs: u64,
}

/// Steps a simulation until it stops or its simulated crash fires.
fn drive(mut sim: Simulation<'_, '_>) -> SimRunOutcome {
    while sim.step().is_some() {}
    sim.into_outcome()
}

/// Runs one experiment on the virtual clock, writing every engine input to
/// `journal`, optionally dying (without sealing) once `crash_after` inputs
/// have been journaled.
///
/// With [`Journal::disabled`] and `crash_after: None` this is exactly
/// [`run_sim_with_faults`](crate::run_sim_with_faults); with an enabled
/// journal the trace is still byte-identical (journaling is pure output).
pub fn run_sim_journaled(
    policy: &mut dyn SchedulingPolicy,
    workload: &ExperimentWorkload,
    spec: ExperimentSpec,
    plan: &FaultPlan,
    journal: Journal,
    crash_after: Option<u64>,
) -> SimRunOutcome {
    drive(Simulation::with_journal(policy, workload, spec, plan, journal, crash_after))
}

/// Resumes a crashed journaled run to completion.
///
/// `policy` must be a *fresh* instance of the same policy the dead process
/// ran — replay drives it through every historical up-call, rebuilding its
/// internal state alongside the engine's.
///
/// # Errors
///
/// [`Error::JournalDiverged`](hyperdrive_types::Error::JournalDiverged) if
/// replay regenerates different records than the journal holds, or if the
/// rebuilt event queue disagrees with the journaled input order (wrong
/// policy, workload, spec, or plan).
pub fn resume_sim_journaled(
    policy: &mut dyn SchedulingPolicy,
    workload: &ExperimentWorkload,
    spec: ExperimentSpec,
    plan: &FaultPlan,
    recovered: RecoveredJournal,
) -> Result<ExperimentResult> {
    let mut sim = Simulation::resume(policy, workload, spec, plan, recovered, None)?;
    while sim.step().is_some() {}
    Ok(sim.finish())
}

/// Runs an experiment whose fault plan may contain
/// [`FaultKind::EngineCrash`] events: the in-process scheduler is killed
/// at each crash position and recovered from its journal, chaining through
/// as many crashes as the plan schedules.
///
/// `make_policy` must build a fresh instance of the same policy each time
/// it is called — one per process lifetime (initial run plus one per
/// recovery).
///
/// # Errors
///
/// [`Error::JournalDiverged`](hyperdrive_types::Error::JournalDiverged) if any recovery leg disagrees with the
/// journal (non-deterministic policy).
pub fn run_sim_with_recovery<F>(
    mut make_policy: F,
    workload: &ExperimentWorkload,
    spec: ExperimentSpec,
    plan: &FaultPlan,
) -> Result<ExperimentResult>
where
    F: FnMut() -> Box<dyn SchedulingPolicy>,
{
    let mut crashes: Vec<u64> = plan
        .events
        .iter()
        .filter_map(|e| match e.kind {
            FaultKind::EngineCrash { at_event } => Some(at_event),
            _ => None,
        })
        .filter(|&k| k > 0)
        .collect();
    crashes.sort_unstable();
    crashes.dedup();
    let mut crash_iter = crashes.into_iter();

    let mut policy = make_policy();
    let meta = hyperdrive_framework::run_meta(policy.name(), workload, &spec, plan);
    let journal = Journal::in_memory(meta);
    let next_crash = crash_iter.next();
    let mut outcome =
        run_sim_journaled(policy.as_mut(), workload, spec, plan, journal.clone(), next_crash);
    drop(policy);
    while outcome.result.is_none() {
        // Arm the next crash strictly past the inputs already consumed;
        // stale positions can never fire again.
        let reached = outcome.inputs;
        let next_crash = crash_iter.find(|&k| k > reached);
        let recovered = journal.reopen()?;
        let mut policy = make_policy();
        outcome = drive(Simulation::resume(
            policy.as_mut(),
            workload,
            spec,
            plan,
            recovered,
            next_crash,
        )?);
    }
    Ok(outcome.result.expect("loop exits only with a result"))
}

/// What [`kill_at_every_event`] measured.
#[derive(Debug)]
pub struct KillAnywhereReport {
    /// Journal inputs in the uninterrupted run — the number of crash
    /// positions exercised.
    pub positions: u64,
    /// Positions whose recovered trace was byte-identical to the
    /// uninterrupted run.
    pub passes: u64,
    /// Human-readable descriptions of every failing position (empty on a
    /// clean sweep).
    pub failures: Vec<String>,
}

/// The everything-proof: runs the experiment once uninterrupted, then — for
/// every journal position `k` — reruns it with a simulated process kill at
/// `k`, recovers from the journal with a fresh policy, and compares the
/// completed trace bytes (event CSV), end time, epoch count, and fault
/// stats against the uninterrupted run.
///
/// # Errors
///
/// Propagates journal recovery errors
/// ([`Error::JournalDiverged`](hyperdrive_types::Error::JournalDiverged) and
/// friends); per-position mismatches are collected in the report instead.
pub fn kill_at_every_event<F>(
    mut make_policy: F,
    workload: &ExperimentWorkload,
    spec: ExperimentSpec,
    plan: &FaultPlan,
) -> Result<KillAnywhereReport>
where
    F: FnMut() -> Box<dyn SchedulingPolicy>,
{
    let mut baseline_policy = make_policy();
    let meta = hyperdrive_framework::run_meta(baseline_policy.name(), workload, &spec, plan);
    let outcome = run_sim_journaled(
        baseline_policy.as_mut(),
        workload,
        spec,
        plan,
        Journal::in_memory(meta),
        None,
    );
    drop(baseline_policy);
    let baseline = outcome.result.expect("uninterrupted run completes");
    let baseline_sig = signature(&baseline);
    let positions = outcome.inputs;

    let mut passes = 0;
    let mut failures = Vec::new();
    for k in 1..=positions {
        let journal = Journal::in_memory(meta);
        let mut victim = make_policy();
        let crashed =
            run_sim_journaled(victim.as_mut(), workload, spec, plan, journal.clone(), Some(k));
        drop(victim);
        if crashed.result.is_some() {
            failures.push(format!("position {k}: run completed before the crash fired"));
            continue;
        }
        let recovered = journal.reopen()?;
        let mut fresh = make_policy();
        match resume_sim_journaled(fresh.as_mut(), workload, spec, plan, recovered) {
            Ok(result) if signature(&result) == baseline_sig => passes += 1,
            Ok(_) => failures
                .push(format!("position {k}: recovered trace differs from the uninterrupted run")),
            Err(e) => failures.push(format!("position {k}: recovery failed: {e}")),
        }
    }
    Ok(KillAnywhereReport { positions, passes, failures })
}

/// Everything that must match for two runs to count as identical.
fn signature(result: &ExperimentResult) -> (Vec<u8>, SimTime, u64, FaultStats) {
    let mut csv = Vec::new();
    result.events.write_csv(&mut csv).expect("writing to a Vec cannot fail");
    (csv, result.end_time, result.total_epochs, result.faults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_sim, run_sim_with_faults};
    use hyperdrive_core::{PopConfig, PopPolicy};
    use hyperdrive_curve::{PredictorConfig, SharedFitCache};
    use hyperdrive_framework::{DefaultPolicy, FaultConfig, FaultEvent};
    use hyperdrive_types::{Error, MachineId};
    use hyperdrive_workload::CifarWorkload;
    use proptest::prelude::*;

    fn experiment(n: usize, epochs: u32, seed: u64) -> ExperimentWorkload {
        let w = CifarWorkload::new().with_max_epochs(epochs);
        ExperimentWorkload::from_workload(&w, n, seed)
    }

    fn default_policy() -> Box<dyn SchedulingPolicy> {
        Box::new(DefaultPolicy::new())
    }

    fn fault_plan(seed: u64, intensity: f64) -> FaultPlan {
        FaultPlan::generate(
            2,
            &FaultConfig::with_intensity(seed, SimTime::from_hours(8.0), intensity),
        )
    }

    #[test]
    fn journaling_is_pure_output() {
        // An enabled journal must not perturb the run: same trace bytes as
        // the unjournaled simulators.
        let ew = experiment(5, 4, 3);
        let spec = ExperimentSpec::new(2).with_stop_on_target(false).with_seed(3);
        let plan = FaultPlan::none();
        let mut p_plain = DefaultPolicy::new();
        let plain = run_sim(&mut p_plain, &ew, spec);
        let mut p_journaled = DefaultPolicy::new();
        let meta = hyperdrive_framework::run_meta(p_journaled.name(), &ew, &spec, &plan);
        let outcome =
            run_sim_journaled(&mut p_journaled, &ew, spec, &plan, Journal::in_memory(meta), None);
        let journaled = outcome.result.unwrap();
        assert_eq!(signature(&plain), signature(&journaled));
        assert!(outcome.inputs > 0, "inputs were journaled");
    }

    #[test]
    fn kill_at_every_event_with_default_policy_under_faults() {
        let ew = experiment(4, 3, 7);
        let spec = ExperimentSpec::new(2).with_stop_on_target(false).with_seed(7);
        let plan = fault_plan(11, 12.0);
        assert!(!plan.is_empty(), "plan must inject faults");
        let report = kill_at_every_event(default_policy, &ew, spec, &plan).unwrap();
        assert!(report.positions > 0);
        assert_eq!(report.failures, Vec::<String>::new());
        assert_eq!(report.passes, report.positions);
    }

    #[test]
    fn kill_at_every_event_with_pop_policy_and_shared_cache() {
        // POP with warm starts, fast math, cross-curve batched fitting,
        // and a shared fit cache — the most stateful policy configuration
        // we have. A fresh policy per recovery plus replay must still land
        // byte-identical.
        let ew = experiment(4, 4, 13);
        let spec = ExperimentSpec::new(2).with_stop_on_target(false).with_seed(13);
        let plan = FaultPlan::none();
        let cache = SharedFitCache::in_memory();
        let make = move || -> Box<dyn SchedulingPolicy> {
            let predictor = PredictorConfig::test()
                .with_warm_start(true)
                .with_fast_math(true)
                .with_batch_fit(true);
            let config = PopConfig { predictor, fit_threads: 2, ..PopConfig::default() };
            Box::new(PopPolicy::with_config_and_cache(config, Some(cache.clone())))
        };
        let report = kill_at_every_event(make, &ew, spec, &plan).unwrap();
        assert!(report.positions > 0);
        assert_eq!(report.failures, Vec::<String>::new());
        assert_eq!(report.passes, report.positions);
    }

    #[test]
    fn engine_crash_events_in_a_plan_recover_transparently() {
        // EngineCrash events kill and recover the scheduler mid-run; the
        // completed trace must match a run without the process crashes.
        let ew = experiment(5, 4, 19);
        let spec = ExperimentSpec::new(2).with_stop_on_target(false).with_seed(19);
        let mut plan = fault_plan(23, 8.0);
        for at_event in [3, 9, 20] {
            plan.events.push(FaultEvent {
                at: SimTime::ZERO,
                machine: MachineId::new(0),
                kind: FaultKind::EngineCrash { at_event },
            });
        }
        let mut p_baseline = DefaultPolicy::new();
        let baseline = run_sim_with_faults(&mut p_baseline, &ew, spec, &plan);
        let recovered = run_sim_with_recovery(default_policy, &ew, spec, &plan).unwrap();
        assert_eq!(signature(&baseline), signature(&recovered));
    }

    #[test]
    fn resuming_with_wrong_parameters_is_a_typed_divergence() {
        let ew = experiment(4, 3, 5);
        let spec = ExperimentSpec::new(2).with_stop_on_target(false).with_seed(5);
        let plan = FaultPlan::none();
        let mut policy = DefaultPolicy::new();
        let meta = hyperdrive_framework::run_meta(policy.name(), &ew, &spec, &plan);
        let journal = Journal::in_memory(meta);
        let outcome = run_sim_journaled(&mut policy, &ew, spec, &plan, journal.clone(), Some(6));
        assert!(outcome.result.is_none(), "crash fired");
        // Resume against a different workload seed: replay regenerates
        // different records and must fail loudly, not silently corrupt.
        let wrong = experiment(4, 3, 6);
        let recovered = journal.reopen().unwrap();
        let mut fresh = DefaultPolicy::new();
        let err = resume_sim_journaled(&mut fresh, &wrong, spec, &plan, recovered).unwrap_err();
        assert!(
            matches!(err, Error::JournalDiverged { .. }),
            "expected JournalDiverged, got {err:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        // Crash at a random position under a random fault plan: recovery
        // is byte-identical to the uninterrupted run.
        #[test]
        fn random_crash_positions_recover_byte_identically(
            seed in 0u64..200,
            intensity in 0.0f64..15.0,
            frac in 0.0f64..1.0,
        ) {
            let ew = experiment(4, 3, seed);
            let spec = ExperimentSpec::new(2).with_stop_on_target(false).with_seed(seed);
            let plan = fault_plan(seed ^ 0xC4A5, intensity);
            let mut p0 = DefaultPolicy::new();
            let meta = hyperdrive_framework::run_meta(p0.name(), &ew, &spec, &plan);
            let outcome = run_sim_journaled(
                &mut p0, &ew, spec, &plan, Journal::in_memory(meta), None,
            );
            let baseline = outcome.result.unwrap();
            let k = 1 + (frac * (outcome.inputs.saturating_sub(1)) as f64) as u64;
            let journal = Journal::in_memory(meta);
            let mut victim = DefaultPolicy::new();
            let crashed = run_sim_journaled(
                &mut victim, &ew, spec, &plan, journal.clone(), Some(k),
            );
            prop_assert!(crashed.result.is_none());
            let mut fresh = DefaultPolicy::new();
            let result = resume_sim_journaled(
                &mut fresh, &ew, spec, &plan, journal.reopen().unwrap(),
            ).unwrap();
            prop_assert_eq!(signature(&baseline), signature(&result));
        }
    }
}
