//! Fault injection for the simulator.
//!
//! [`run_sim_with_faults`] replays a
//! [`FaultPlan`](hyperdrive_framework::FaultPlan) against an experiment in
//! virtual time through [`Simulation::with_faults`]: machine crash/recovery
//! events are scheduled alongside the engine's own completions, agent
//! stalls swallow the next completion report from their machine (the
//! engine learns of the loss only when the scheduled detection timeout
//! fires), and reply delays postpone a report without losing it.
//! Probabilistic faults (suspend failure, snapshot corruption) are
//! evaluated inside the engine from the plan's seeded RNG stream.
//!
//! Running with [`FaultPlan::none`](hyperdrive_framework::FaultPlan::none)
//! is byte-identical to [`run_sim`](crate::run_sim) — the property tests
//! below pin that down.

use std::collections::{HashMap, VecDeque};

use hyperdrive_framework::{
    ExperimentResult, ExperimentSpec, ExperimentWorkload, FaultKind, FaultPlan, SchedulingPolicy,
};
use hyperdrive_types::{MachineId, SimTime};

use crate::Simulation;

/// Per-machine queues of pending stall/delay faults, consumed in time
/// order as replies would pass through them.
pub(crate) struct ReplyFaults {
    /// `(fault time, detection latency)` — the next reply due at or after
    /// the fault time is lost; the scheduler notices `detection` later.
    stalls: HashMap<MachineId, VecDeque<(SimTime, SimTime)>>,
    /// `(fault time, extra latency)` — the next reply due at or after the
    /// fault time arrives late.
    delays: HashMap<MachineId, VecDeque<(SimTime, SimTime)>>,
}

impl ReplyFaults {
    /// The plan's stall and delay faults, or `None` if it has neither.
    pub(crate) fn from_plan(plan: &FaultPlan) -> Option<Self> {
        let mut stalls: HashMap<MachineId, VecDeque<(SimTime, SimTime)>> = HashMap::new();
        let mut delays: HashMap<MachineId, VecDeque<(SimTime, SimTime)>> = HashMap::new();
        for event in &plan.events {
            match event.kind {
                FaultKind::AgentStall { detection } => {
                    stalls.entry(event.machine).or_default().push_back((event.at, detection));
                }
                FaultKind::ReplyDelay { delay } => {
                    delays.entry(event.machine).or_default().push_back((event.at, delay));
                }
                FaultKind::MachineCrash
                | FaultKind::MachineRecover
                | FaultKind::EngineCrash { .. } => {}
            }
        }
        (!stalls.is_empty() || !delays.is_empty()).then_some(ReplyFaults { stalls, delays })
    }

    /// Routes one completion report due at `due` from `machine`: either it
    /// is swallowed by a stall (returns the detection time), postponed by a
    /// delay (returns the late arrival time), or passes through untouched.
    pub(crate) fn route(&mut self, machine: MachineId, due: SimTime) -> ReplyFate {
        if let Some(queue) = self.stalls.get_mut(&machine) {
            if let Some(&(at, detection)) = queue.front() {
                if at <= due {
                    queue.pop_front();
                    return ReplyFate::Lost { detected_at: due + detection };
                }
            }
        }
        if let Some(queue) = self.delays.get_mut(&machine) {
            if let Some(&(at, delay)) = queue.front() {
                if at <= due {
                    queue.pop_front();
                    return ReplyFate::Delayed { arrives_at: due + delay };
                }
            }
        }
        ReplyFate::OnTime
    }
}

pub(crate) enum ReplyFate {
    OnTime,
    Delayed { arrives_at: SimTime },
    Lost { detected_at: SimTime },
}

/// Runs one experiment to completion on the virtual clock while injecting
/// the faults scheduled in `plan`.
///
/// With an empty plan this is byte-identical to [`run_sim`](crate::run_sim):
/// same event log, same result, zero extra RNG draws. Under faults, every
/// interrupted job is rolled back to its last snapshot and re-run (capped
/// by the plan's retry policy), crashed machines rejoin the cluster at
/// their scheduled recovery times, and the run ends when the engine stops,
/// every job reaches a terminal state, or the event queue drains.
pub fn run_sim_with_faults(
    policy: &mut dyn SchedulingPolicy,
    workload: &ExperimentWorkload,
    spec: ExperimentSpec,
    plan: &FaultPlan,
) -> ExperimentResult {
    let mut sim = Simulation::with_faults(policy, workload, spec, plan);
    while sim.step().is_some() {}
    sim.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_sim;
    use hyperdrive_framework::{DefaultPolicy, FaultConfig, FaultStats, JobEnd, RetryPolicy};
    use hyperdrive_workload::CifarWorkload;
    use proptest::prelude::*;

    fn experiment(n: usize, epochs: u32, seed: u64) -> ExperimentWorkload {
        let w = CifarWorkload::new().with_max_epochs(epochs);
        ExperimentWorkload::from_workload(&w, n, seed)
    }

    fn event_csv(result: &ExperimentResult) -> Vec<u8> {
        let mut buf = Vec::new();
        result.events.write_csv(&mut buf).unwrap();
        buf
    }

    /// `total_epochs` counts every executed epoch; completed epochs either
    /// survive in a job's final count or were rolled back and re-run.
    fn assert_epoch_accounting(result: &ExperimentResult) {
        let surviving: u64 = result.outcomes.iter().map(|o| u64::from(o.epochs)).sum();
        assert_eq!(
            result.total_epochs,
            surviving + result.faults.lost_epochs,
            "epoch accounting: {} executed vs {} surviving + {} lost",
            result.total_epochs,
            surviving,
            result.faults.lost_epochs
        );
    }

    #[test]
    fn crashes_recover_and_all_jobs_finish() {
        let ew = experiment(8, 6, 5);
        let spec = ExperimentSpec::new(3).with_stop_on_target(false).with_seed(5);
        let plan = FaultPlan::generate(
            3,
            &FaultConfig::with_intensity(17, SimTime::from_hours(12.0), 20.0),
        );
        assert!(!plan.is_empty(), "intensity 20 must inject faults");
        let mut policy = DefaultPolicy::new();
        let result = run_sim_with_faults(&mut policy, &ew, spec, &plan);
        assert!(result.faults.interruptions > 0, "faults actually struck");
        // The run may finish before the last scheduled recoveries fire;
        // the books must still balance.
        assert!(result.faults.machine_recoveries <= result.faults.machine_crashes);
        assert_eq!(
            result.faults.dead_machines_at_end,
            result.faults.machine_crashes - result.faults.machine_recoveries,
            "unrecovered crashes are exactly the machines dead at the end"
        );
        assert!(
            result
                .outcomes
                .iter()
                .all(|o| matches!(o.end, JobEnd::Completed | JobEnd::Terminated | JobEnd::Failed)),
            "no job left dangling: {:?}",
            result.outcomes.iter().map(|o| o.end).collect::<Vec<_>>()
        );
        assert_epoch_accounting(&result);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let ew = experiment(6, 5, 9);
        let spec = ExperimentSpec::new(2).with_stop_on_target(false).with_seed(9);
        let plan = FaultPlan::generate(
            2,
            &FaultConfig::with_intensity(3, SimTime::from_hours(12.0), 15.0),
        );
        let mut p1 = DefaultPolicy::new();
        let r1 = run_sim_with_faults(&mut p1, &ew, spec, &plan);
        let mut p2 = DefaultPolicy::new();
        let r2 = run_sim_with_faults(&mut p2, &ew, spec, &plan);
        assert_eq!(r1.end_time, r2.end_time);
        assert_eq!(r1.total_epochs, r2.total_epochs);
        assert_eq!(r1.faults, r2.faults);
        assert_eq!(event_csv(&r1), event_csv(&r2), "identical event logs");
    }

    #[test]
    fn zero_retries_fail_jobs_instead_of_hanging() {
        let ew = experiment(4, 6, 2);
        let spec = ExperimentSpec::new(2).with_stop_on_target(false).with_seed(2);
        let mut config = FaultConfig::with_intensity(8, SimTime::from_hours(12.0), 30.0);
        config.retry = RetryPolicy { max_retries: 0, ..RetryPolicy::default() };
        let plan = FaultPlan::generate(2, &config);
        let mut policy = DefaultPolicy::new();
        let result = run_sim_with_faults(&mut policy, &ew, spec, &plan);
        assert!(result.faults.failed_jobs > 0, "first interruption fails a job");
        assert_eq!(result.faults.failed_jobs, result.failed_jobs() as u64);
        assert_epoch_accounting(&result);
    }

    #[test]
    fn delayed_replies_lose_no_work() {
        let ew = experiment(4, 4, 3);
        let spec = ExperimentSpec::new(2).with_stop_on_target(false).with_seed(3);
        let mut config = FaultConfig::with_intensity(5, SimTime::from_hours(12.0), 10.0);
        // Delays only: no crashes, stalls, or probabilistic faults.
        config.crash_rate_per_hour = 0.0;
        config.stall_rate_per_hour = 0.0;
        config.suspend_fail_prob = 0.0;
        config.snapshot_corrupt_prob = 0.0;
        let plan = FaultPlan::generate(2, &config);
        assert!(!plan.is_empty());
        let mut policy = DefaultPolicy::new();
        let faulty = run_sim_with_faults(&mut policy, &ew, spec, &plan);
        let mut baseline_policy = DefaultPolicy::new();
        let baseline = run_sim(&mut baseline_policy, &ew, spec);
        assert_eq!(faulty.faults.lost_epochs, 0, "delays lose nothing");
        assert_eq!(faulty.total_epochs, baseline.total_epochs);
        assert!(faulty.end_time >= baseline.end_time, "late reports can only lengthen the run");
        assert_epoch_accounting(&faulty);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        // The zero-cost guarantee: an empty fault plan leaves the run
        // byte-identical to the plain simulator — same event log bytes,
        // same clock, same epoch counts, zero fault stats.
        #[test]
        fn empty_plan_is_byte_identical_to_plain_sim(
            seed in 0u64..1000,
            n_jobs in 2usize..8,
            machines in 1usize..4,
            epochs in 2u32..6,
        ) {
            let ew = experiment(n_jobs, epochs, seed);
            let spec = ExperimentSpec::new(machines)
                .with_stop_on_target(false)
                .with_seed(seed);
            let mut p_plain = DefaultPolicy::new();
            let plain = run_sim(&mut p_plain, &ew, spec);
            let mut p_faulty = DefaultPolicy::new();
            let faulty = run_sim_with_faults(&mut p_faulty, &ew, spec, &FaultPlan::none());
            prop_assert_eq!(plain.end_time, faulty.end_time);
            prop_assert_eq!(plain.total_epochs, faulty.total_epochs);
            prop_assert_eq!(plain.time_to_target, faulty.time_to_target);
            prop_assert_eq!(event_csv(&plain), event_csv(&faulty));
            prop_assert_eq!(faulty.faults, FaultStats::default());
        }

        // Determinism under arbitrary generated plans: same seed, same
        // plan, same run — twice.
        #[test]
        fn seeded_fault_runs_replay_exactly(
            seed in 0u64..500,
            intensity in 0.0f64..25.0,
        ) {
            let ew = experiment(4, 4, seed);
            let spec = ExperimentSpec::new(2).with_stop_on_target(false).with_seed(seed);
            let plan = FaultPlan::generate(
                2,
                &FaultConfig::with_intensity(seed, SimTime::from_hours(8.0), intensity),
            );
            let mut p1 = DefaultPolicy::new();
            let r1 = run_sim_with_faults(&mut p1, &ew, spec, &plan);
            let mut p2 = DefaultPolicy::new();
            let r2 = run_sim_with_faults(&mut p2, &ew, spec, &plan);
            prop_assert_eq!(r1.end_time, r2.end_time);
            prop_assert_eq!(r1.faults, r2.faults);
            prop_assert_eq!(event_csv(&r1), event_csv(&r2));
        }
    }
}
