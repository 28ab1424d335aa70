//! Executor agreement. Live vs simulator (the Fig. 12a property at test
//! scale): the same policy on the same experiment must produce closely
//! matching virtual end times on both executors. Simulator entry points
//! among themselves: every one of them must produce byte-identical output
//! for every policy.

use hyperdrive::curve::PredictorConfig;
use hyperdrive::framework::{
    run_live, DefaultPolicy, ExperimentResult, ExperimentSpec, ExperimentWorkload, FaultPlan,
    Journal, SchedulingPolicy,
};
use hyperdrive::policies::{BanditPolicy, EarlyTermConfig, EarlyTermPolicy, HyperbandPolicy};
use hyperdrive::pop::{PopConfig, PopPolicy};
use hyperdrive::sim::{run_sim, run_sim_journaled, run_sim_with_faults, Simulation};
use hyperdrive::workload::{CifarWorkload, LunarWorkload};
use hyperdrive::SimTime;

/// Everything two runs must share to count as the same run: event-log CSV
/// bytes, end time bits, epoch count and time to target.
fn signature(result: &ExperimentResult) -> (Vec<u8>, u64, u64, Option<SimTime>) {
    let mut csv = Vec::new();
    result.events.write_csv(&mut csv).unwrap();
    (csv, result.end_time.as_secs().to_bits(), result.total_epochs, result.time_to_target)
}

fn fresh_policy(name: &str) -> Box<dyn SchedulingPolicy> {
    let predictor = PredictorConfig::test();
    match name {
        "default" => Box::new(DefaultPolicy::new()),
        "pop" => Box::new(PopPolicy::with_config(PopConfig { predictor, ..Default::default() })),
        "earlyterm" => Box::new(EarlyTermPolicy::with_config(EarlyTermConfig {
            predictor,
            ..Default::default()
        })),
        "bandit" => Box::new(BanditPolicy::new()),
        "hyperband" => Box::new(HyperbandPolicy::new()),
        _ => unreachable!("unknown policy {name}"),
    }
}

#[test]
fn every_sim_entry_point_agrees_for_every_policy() {
    let workload = CifarWorkload::new().with_max_epochs(12);
    for seed in [3u64, 8] {
        let experiment = ExperimentWorkload::from_workload(&workload, 8, seed);
        for machines in [1usize, 3, 8] {
            for stop_on_target in [false, true] {
                let spec = ExperimentSpec::new(machines)
                    .with_seed(seed)
                    .with_stop_on_target(stop_on_target);
                for name in ["default", "pop", "earlyterm", "bandit", "hyperband"] {
                    let case =
                        format!("{name} seed {seed} machines {machines} stop {stop_on_target}");
                    let plain = signature(&run_sim(fresh_policy(name).as_mut(), &experiment, spec));

                    let mut policy = fresh_policy(name);
                    let mut sim = Simulation::new(policy.as_mut(), &experiment, spec);
                    while sim.step().is_some() {}
                    assert_eq!(signature(&sim.finish()), plain, "{case}: Simulation::step");

                    let faulty = run_sim_with_faults(
                        fresh_policy(name).as_mut(),
                        &experiment,
                        spec,
                        &FaultPlan::none(),
                    );
                    assert_eq!(signature(&faulty), plain, "{case}: run_sim_with_faults");

                    let journaled = run_sim_journaled(
                        fresh_policy(name).as_mut(),
                        &experiment,
                        spec,
                        &FaultPlan::none(),
                        Journal::disabled(),
                        None,
                    );
                    let journaled = journaled.result.expect("no kill armed");
                    assert_eq!(signature(&journaled), plain, "{case}: run_sim_journaled");
                }
            }
        }
    }
}

#[test]
fn default_policy_agrees_across_executors() {
    let workload = CifarWorkload::new().with_max_epochs(5);
    let experiment = ExperimentWorkload::from_workload(&workload, 8, 21);
    let spec = ExperimentSpec::new(3).with_stop_on_target(false);

    let mut sim_policy = DefaultPolicy::new();
    let sim = run_sim(&mut sim_policy, &experiment, spec);
    let mut live_policy = DefaultPolicy::new();
    let live = run_live(&mut live_policy, &experiment, spec, 6_000.0);

    assert_eq!(sim.total_epochs, live.total_epochs);
    // Generous bound: on a loaded single-core machine sleep overshoot can
    // stretch the live run; the Fig. 12a binary measures the tight case.
    let err = (sim.end_time.as_secs() - live.end_time.as_secs()).abs() / sim.end_time.as_secs();
    assert!(err < 0.15, "sim {} vs live {} ({err:.3})", sim.end_time, live.end_time);
}

#[test]
fn pop_agrees_across_executors_on_time_to_target() {
    // A modest RL experiment where POP reaches the solved condition. The
    // live executor's deadline-based node agents keep training time exact
    // even while the scheduler computes predictions, so agreement should
    // be well within the paper's 13% validation bound.
    let workload = LunarWorkload::new().with_max_blocks(80);
    let experiment = ExperimentWorkload::from_workload(&workload, 20, 5);
    let spec = ExperimentSpec::new(6).with_tmax(SimTime::from_hours(12.0)).with_seed(5);
    let config = PopConfig { predictor: PredictorConfig::test(), ..Default::default() };

    let mut sim_policy = PopPolicy::with_config(config);
    let sim = run_sim(&mut sim_policy, &experiment, spec);
    let mut live_policy = PopPolicy::with_config(config);
    let live = run_live(&mut live_policy, &experiment, spec, 300.0);

    let sim_t = sim.time_to_target.unwrap_or(sim.end_time).as_mins();
    let live_t = live.time_to_target.unwrap_or(live.end_time).as_mins();
    let err = (sim_t - live_t).abs() / sim_t.max(1e-9);
    assert!(err < 0.25, "sim {sim_t:.1}min vs live {live_t:.1}min ({err:.3})");
}

#[test]
fn live_executor_handles_single_machine_cluster() {
    let workload = CifarWorkload::new().with_max_epochs(3);
    let experiment = ExperimentWorkload::from_workload(&workload, 3, 1);
    let spec = ExperimentSpec::new(1).with_stop_on_target(false);
    let mut policy = DefaultPolicy::new();
    let result = run_live(&mut policy, &experiment, spec, 60_000.0);
    assert_eq!(result.total_epochs, 9);
}

#[test]
fn live_executor_survives_many_machines_and_few_jobs() {
    let workload = CifarWorkload::new().with_max_epochs(2);
    let experiment = ExperimentWorkload::from_workload(&workload, 2, 1);
    let spec = ExperimentSpec::new(16).with_stop_on_target(false);
    let mut policy = DefaultPolicy::new();
    let result = run_live(&mut policy, &experiment, spec, 60_000.0);
    assert_eq!(result.total_epochs, 4);
}
