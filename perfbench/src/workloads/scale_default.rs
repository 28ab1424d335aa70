//! `scale_default`: the event spine at cluster scale.
//!
//! The Default policy, which fits nothing, runs 10k machines x 4 CIFAR
//! jobs each x 16 epochs through plain `run_sim` (about 640k engine
//! inputs). Queue and engine are the whole cost, and generating the 40k
//! job profiles is a large share of the wall time, so `setup_s` moves
//! here. The curve layer is never reached.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use hyperdrive_framework::{DefaultPolicy, ExperimentSpec, ExperimentWorkload};
use hyperdrive_sim::run_sim;
use hyperdrive_workload::CifarWorkload;

use super::{timed_setup, Budget, SimLayers};
use crate::layers::{drive, engine_inputs, TracedPolicy};
use crate::report::Report;
use crate::{digest, Args};

const MACHINES: usize = 10_000;
const JOBS_PER_MACHINE: usize = 4;
const EPOCHS: u32 = 16;
const SETUP_REPS: usize = 8;

pub(super) fn cluster(machines: usize, seed: u64) -> (ExperimentWorkload, ExperimentSpec) {
    let w = CifarWorkload::new().with_max_epochs(EPOCHS);
    let experiment = ExperimentWorkload::from_workload(&w, machines * JOBS_PER_MACHINE, seed);
    (experiment, ExperimentSpec::new(machines).with_stop_on_target(false).with_seed(seed))
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new("off");
    let ((experiment, spec), setup_s) = timed_setup(SETUP_REPS, || cluster(MACHINES, args.seed));

    let budget = Budget::new(args.seconds);
    let mut layers = SimLayers::default();
    let (mut walls, mut events) = (Vec::new(), 0u64);
    while budget.more(walls.len()) || (args.trace && layers.reps == 0) {
        for traced in [false, true] {
            if traced && !args.trace {
                continue;
            }
            let mut policy = DefaultPolicy::new();
            report.attempted += 1;
            let t = Instant::now();
            let run = catch_unwind(AssertUnwindSafe(|| {
                if traced {
                    let mut wrapper = TracedPolicy::new(&mut policy);
                    let result = drive(&mut wrapper, &experiment, spec, &mut layers.sim);
                    layers.policies.entry("default").or_default().absorb(&wrapper.tally);
                    result
                } else {
                    run_sim(&mut policy, &experiment, spec)
                }
            }));
            let took = t.elapsed().as_secs_f64();
            let Ok(result) = run else {
                report.fail("run panicked");
                continue;
            };
            report.check_digest(
                if traced { "traced run" } else { "run" },
                digest::study(&result, &[]),
            );
            if traced {
                layers.reps += 1;
                layers.traced_wall.push(took);
                if layers.sim.events != layers.reps as u64 * engine_inputs(&result) {
                    report.fail("bench loop event count differs from the result's");
                }
            } else {
                events += engine_inputs(&result);
                walls.push(took);
                layers.untraced_wall.push(took);
            }
        }
    }

    // Every repetition does the same work, so rates come from the median
    // repetition, which a burst of host noise does not move.
    let wall = crate::stats::median(&walls);
    report.e2e("setup_s", setup_s);
    report.e2e("studies_per_s", 1.0 / wall);
    report.e2e("events_per_s", events as f64 / walls.len() as f64 / wall);
    report.e2e("latency_s", wall);
    if args.trace {
        layers.report(&mut report);
        report.layer("workload.gen_s", setup_s);
    }
    report
}
