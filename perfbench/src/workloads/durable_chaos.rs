//! `durable_chaos`: the engine as a journal writer, under faults.
//!
//! The `scale_default` cluster shape at half the size (5k machines x 4
//! jobs x 16 epochs) runs under an intensity-1 `FaultPlan` (crashes,
//! stalls, delayed reports), journaled to a file. Each repetition runs it
//! once uncrashed, then again killed at a fixed input (half the uncrashed
//! run's inputs) and recovered with `Journal::recover` and
//! `resume_sim_journaled`; the recovered result must equal the uncrashed
//! one. Recovery time is what a user of durability waits for, so it is
//! this workload's `latency_p50_s`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use hyperdrive_framework::{
    run_meta, DefaultPolicy, ExperimentResult, ExperimentSpec, ExperimentWorkload, FaultConfig,
    FaultPlan, Journal, SchedulingPolicy,
};
use hyperdrive_sim::{resume_sim_journaled, run_sim_journaled};
use hyperdrive_types::SimTime;

use super::{report_trace, scale_default::cluster, timed_setup, Budget};
use crate::layers::TracedPolicy;
use crate::report::Report;
use crate::{digest, stats, Args};

const MACHINES: usize = 5_000;
const FAULT_INTENSITY: f64 = 1.0;
const FAULT_HORIZON_HOURS: f64 = 8.0;
const SETUP_REPS: usize = 10;

struct Inputs {
    experiment: ExperimentWorkload,
    spec: ExperimentSpec,
    plan: FaultPlan,
    meta: u64,
}

fn setup(seed: u64) -> Inputs {
    let (experiment, spec) = cluster(MACHINES, seed);
    let faults = FaultConfig::with_intensity(
        seed,
        SimTime::from_hours(FAULT_HORIZON_HOURS),
        FAULT_INTENSITY,
    );
    let plan = FaultPlan::generate(MACHINES, &faults);
    let meta = run_meta(DefaultPolicy::new().name(), &experiment, &spec, &plan);
    Inputs { experiment, spec, plan, meta }
}

/// Layer times of one repetition, in seconds, with the policy's up-call
/// time already taken out of each.
#[derive(Debug, Default, Clone, Copy)]
struct Split {
    run: f64,
    crashed_run: f64,
    open: f64,
    resume: f64,
    policy: f64,
    upcalls: u64,
}

/// Runs `f` on a fresh Default policy, wrapped in the timing wrapper when
/// `traced`; returns the result and the up-call time and count.
fn with_policy<T>(traced: bool, f: impl FnOnce(&mut dyn SchedulingPolicy) -> T) -> (T, f64, u64) {
    let mut policy = DefaultPolicy::new();
    if traced {
        let mut wrapper = TracedPolicy::new(&mut policy);
        let out = f(&mut wrapper);
        (out, wrapper.tally.busy.as_secs_f64(), wrapper.tally.upcalls)
    } else {
        (f(&mut policy), 0.0, 0)
    }
}

struct Rep {
    wall: f64,
    run_s: f64,
    recovery_s: f64,
    inputs: u64,
    digest: u64,
    split: Split,
    journal: (u64, u64, u64),
    faults: (u64, u64),
}

/// One uncrashed journaled run, one crashed run and its recovery.
fn rep(
    inputs: &Inputs,
    dir: &Path,
    crash_after: Option<u64>,
    traced: bool,
    report: &mut Report,
) -> Result<Rep, String> {
    let Inputs { experiment, spec, plan, meta } = inputs;
    let (full_path, crash_path) = (dir.join("full.wal"), dir.join("crashed.wal"));
    let mut split = Split::default();

    let journal = Journal::create(&full_path, *meta).map_err(|e| e.to_string())?;
    let kept = journal.clone();
    let t = Instant::now();
    let (outcome, policy_s, upcalls) =
        with_policy(traced, |p| run_sim_journaled(p, experiment, *spec, plan, journal, None));
    let run_s = t.elapsed().as_secs_f64();
    split.run = run_s - policy_s;
    split.policy += policy_s;
    split.upcalls += upcalls;
    let full: ExperimentResult = outcome.result.ok_or("uncrashed journaled run stopped early")?;
    let bytes = std::fs::metadata(&full_path).map_err(|e| e.to_string())?.len();
    let journal_counts = (kept.inputs_appended(), kept.records_appended(), bytes);
    let crash_at = crash_after.unwrap_or(outcome.inputs / 2);

    let journal = Journal::create(&crash_path, *meta).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let (crashed, policy_s, upcalls) = with_policy(traced, |p| {
        run_sim_journaled(p, experiment, *spec, plan, journal, Some(crash_at))
    });
    let crashed_s = t.elapsed().as_secs_f64();
    split.crashed_run = crashed_s - policy_s;
    split.policy += policy_s;
    split.upcalls += upcalls;
    if crashed.result.is_some() {
        return Err(format!("run armed to crash at input {crash_at} completed instead"));
    }

    let t = Instant::now();
    let recovered = Journal::recover(&crash_path, *meta).map_err(|e| format!("recover: {e}"))?;
    split.open = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (resumed, policy_s, upcalls) =
        with_policy(traced, |p| resume_sim_journaled(p, experiment, *spec, plan, recovered));
    let resume_s = t.elapsed().as_secs_f64();
    split.resume = resume_s - policy_s;
    split.policy += policy_s;
    split.upcalls += upcalls;
    let resumed = resumed.map_err(|e| format!("resume: {e}"))?;

    let full_digest = digest::study(&full, &[]);
    if digest::study(&resumed, &[]) != full_digest {
        report.fail(format!(
            "recovery after a crash at input {crash_at} diverged from the uncrashed run"
        ));
    }
    Ok(Rep {
        wall: run_s + crashed_s + split.open + resume_s,
        run_s,
        recovery_s: split.open + resume_s,
        inputs: outcome.inputs,
        digest: full_digest,
        split,
        journal: journal_counts,
        faults: (full.faults.interruptions, full.faults.lost_epochs),
    })
}

/// A directory for the journals, in the working directory, private to this
/// process.
fn journal_dir() -> PathBuf {
    Path::new(".perfbench_tmp").join(format!("durable_chaos-{}", std::process::id()))
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new("off");
    let (inputs, setup_s) = timed_setup(SETUP_REPS, || setup(args.seed));
    let dir = journal_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        report.fail(format!("create {}: {e}", dir.display()));
        return report;
    }

    let budget = Budget::new(args.seconds);
    let (mut untraced, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    let mut crash_after = None;
    while budget.more(untraced.len()) || (args.trace && traced.is_empty()) {
        for tracing in [false, true] {
            if tracing && !args.trace {
                continue;
            }
            // The uncrashed study and the crashed-then-recovered one.
            report.attempted += 2;
            let r = catch_unwind(AssertUnwindSafe(|| {
                rep(&inputs, &dir, crash_after, tracing, &mut report)
            }));
            match r {
                Ok(Ok(r)) => {
                    crash_after.get_or_insert(r.inputs / 2);
                    report.check_digest("journaled run", r.digest);
                    if tracing {
                        traced.push(r)
                    } else {
                        untraced.push(r)
                    }
                }
                Ok(Err(e)) => report.fail(e),
                Err(_) => report.fail("durable run panicked"),
            }
        }
        if report.failures.len() > 3 {
            break;
        }
    }
    // The benchmark leaves nothing behind in the checkout.
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    if untraced.is_empty() {
        return report;
    }

    // Medians over repetitions, which a burst of host noise does not move.
    let per_rep = |f: fn(&Rep) -> f64| stats::median(&untraced.iter().map(f).collect::<Vec<_>>());
    let recoveries: Vec<f64> = untraced.iter().map(|r| r.recovery_s).collect();
    report.e2e("setup_s", setup_s);
    report.e2e("studies_per_s", per_rep(|r| 2.0 / r.wall));
    report.e2e("events_per_s", per_rep(|r| r.inputs as f64 / r.run_s));
    report.e2e("latency_s", stats::median(&recoveries));
    report.extra("recovery_s", stats::median(&recoveries), "s");

    if args.trace && !traced.is_empty() {
        let n = traced.len() as f64;
        let mean = |f: fn(&Rep) -> f64| traced.iter().map(f).sum::<f64>() / n;
        let first = &traced[0];
        report.layer("workload.gen_s", setup_s);
        report.layer("journal.inputs", first.journal.0 as f64);
        report.layer("journal.records", first.journal.1 as f64);
        report.layer("journal.bytes", first.journal.2 as f64);
        report.layer("journal.run_s", mean(|r| r.split.run));
        report.layer("journal.open_s", mean(|r| r.split.open));
        report.layer("journal.resume_s", mean(|r| r.split.resume));
        report.layer("fault.interruptions", first.faults.0 as f64);
        report.layer("fault.lost_epochs", first.faults.1 as f64);
        report.layer("policy.default.upcalls", mean(|r| r.split.upcalls as f64));
        report.layer("policy.default.self_s", mean(|r| r.split.policy));
        let self_sum = mean(|r| {
            r.split.run + r.split.crashed_run + r.split.open + r.split.resume + r.split.policy
        });
        let traced_walls: Vec<f64> = traced.iter().map(|r| r.wall).collect();
        let plain_walls: Vec<f64> = untraced.iter().map(|r| r.wall).collect();
        report_trace(&mut report, &traced_walls, &plain_walls, self_sum);
    }
    report
}
