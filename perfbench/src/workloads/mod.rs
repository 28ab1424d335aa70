//! The four workloads and the measurement protocol they share.
//!
//! Every workload sets up its inputs several times and reports the median
//! as `setup_s`, then repeats one deterministic unit of work until the
//! `--seconds` budget is spent (at least once) and reports medians or
//! totals over the repetitions. Each repetition's output digest must equal
//! the first one's. A traced run alternates untraced and traced
//! repetitions, so its tracing overhead is measured on the same inputs in
//! the same process.

mod durable_chaos;
mod pop_orders;
mod scale_default;
mod server_mix;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::layers::{PolicyTally, SimTally};
use crate::report::Report;
use crate::stats;
use crate::Args;

/// Workload names, as `--workload` takes them.
pub const NAMES: &[&str] = &["pop_orders", "scale_default", "durable_chaos", "server_mix"];

pub fn run(args: &Args) -> Report {
    match args.workload {
        "pop_orders" => pop_orders::run(args),
        "scale_default" => scale_default::run(args),
        "durable_chaos" => durable_chaos::run(args),
        "server_mix" => server_mix::run(args),
        other => unreachable!("argument parsing admits only known workloads, got {other}"),
    }
}

/// Runs `setup` `reps` times, returning the last result and the median
/// wall time in seconds.
fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one setup ran"), stats::median(&times))
}

/// The measurement budget: repeat until it is spent, at least once.
struct Budget {
    started: Instant,
    seconds: f64,
}

impl Budget {
    fn new(seconds: f64) -> Self {
        Budget { started: Instant::now(), seconds }
    }

    fn more(&self, reps_done: usize) -> bool {
        reps_done == 0 || self.started.elapsed().as_secs_f64() < self.seconds
    }
}

/// Layer tallies of the traced repetitions through the simulator path.
#[derive(Debug, Default)]
struct SimLayers {
    reps: usize,
    sim: SimTally,
    policies: BTreeMap<&'static str, PolicyTally>,
    /// Seconds policies spent blocked on their fit pools.
    stall_s: BTreeMap<&'static str, f64>,
    /// Traced and untraced repetition walls, in seconds.
    traced_wall: Vec<f64>,
    untraced_wall: Vec<f64>,
}

impl SimLayers {
    /// Writes the `sim`, `engine`, `policy` and `trace` metrics, each per
    /// traced repetition.
    fn report(&self, report: &mut Report) {
        let reps = self.reps.max(1) as f64;
        let secs = |d: Duration| d.as_secs_f64() / reps;
        let policy_busy: Duration = self.policies.values().map(|p| p.busy).sum();
        let engine_self = secs(self.sim.engine.saturating_sub(policy_busy));
        let events = self.sim.events as f64 / reps;
        report.layer("sim.events", events);
        report.layer("sim.queue_s", secs(self.sim.queue));
        report.layer("engine.self_s", engine_self);
        report.layer(
            "engine.ns_per_event",
            if events > 0.0 { engine_self / events * 1e9 } else { 0.0 },
        );
        report.layer("engine.finish_s", secs(self.sim.finish));
        let mut self_sum = secs(self.sim.queue) + engine_self + secs(self.sim.finish);
        for (name, tally) in &self.policies {
            let stall = self.stall_s.get(name).copied().unwrap_or(0.0) / reps;
            let policy_self = (secs(tally.busy) - stall).max(0.0);
            self_sum += policy_self + stall;
            report.layer(&format!("policy.{name}.upcalls"), tally.upcalls as f64 / reps);
            report.layer(&format!("policy.{name}.self_s"), policy_self);
            report.layer(
                &format!("policy.{name}.boundary_ms_p50"),
                stats::quantile(&tally.boundary_ms, 0.5),
            );
            report.layer(
                &format!("policy.{name}.boundary_ms_p99"),
                stats::quantile(&tally.boundary_ms, 0.99),
            );
        }
        report_trace(report, &self.traced_wall, &self.untraced_wall, self_sum);
    }
}

/// Writes the `trace.*` metrics: the traced wall time, its untraced twin,
/// the difference (tracing overhead), the sum of layer self times and the
/// part of the traced wall no layer claims.
fn report_trace(report: &mut Report, traced: &[f64], untraced: &[f64], self_sum: f64) {
    let wall = stats::median(traced);
    let plain = stats::median(untraced);
    report.layer("trace.wall_s", wall);
    report.layer("trace.untraced_wall_s", plain);
    report.layer("trace.overhead_s", wall - plain);
    report.layer("trace.self_sum_s", self_sum);
    report.layer("trace.unaccounted_s", wall - self_sum);
}
