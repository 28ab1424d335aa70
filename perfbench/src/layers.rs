//! Layer boundaries timed from outside the program.
//!
//! Two pieces give the per-layer breakdown without touching the library
//! crates: [`TracedPolicy`], a `SchedulingPolicy` that delegates every
//! up-call to the real policy and times it, and [`drive`], a bench-owned
//! copy of `run_sim`'s loop over `EventQueue` and the engine's `*_into`
//! API that times the queue, the engine and the final `into_result`
//! separately. Its output must be byte-identical to `run_sim`'s; the tests
//! below and every traced run check that.

use std::time::{Duration, Instant};

use hyperdrive_framework::{
    Command, EngineEvent, ExperimentEngine, ExperimentResult, ExperimentSpec, ExperimentWorkload,
    FitCacheSnapshot, JobDecision, JobEvent, PrefetchHint, SchedulerContext, SchedulingPolicy,
};
use hyperdrive_sim::EventQueue;
use hyperdrive_types::{LearningCurve, SimTime};

/// Time spent inside one policy's up-calls.
#[derive(Debug, Default, Clone)]
pub struct PolicyTally {
    /// Up-calls delegated.
    pub upcalls: u64,
    /// Wall time inside them, fits included.
    pub busy: Duration,
    /// Wall time of each up-call across which the policy's fit-batch
    /// counter advanced (a decision boundary), in milliseconds.
    pub boundary_ms: Vec<f64>,
}

impl PolicyTally {
    pub fn absorb(&mut self, other: &PolicyTally) {
        self.upcalls += other.upcalls;
        self.busy += other.busy;
        self.boundary_ms.extend_from_slice(&other.boundary_ms);
    }
}

/// A transparent timing wrapper around a scheduling policy.
pub struct TracedPolicy<'a> {
    inner: &'a mut dyn SchedulingPolicy,
    pub tally: PolicyTally,
}

impl<'a> TracedPolicy<'a> {
    pub fn new(inner: &'a mut dyn SchedulingPolicy) -> Self {
        TracedPolicy { inner, tally: PolicyTally::default() }
    }

    fn batches(&self) -> u64 {
        self.inner.fit_cache_snapshot().map_or(0, |s| s.batches)
    }

    fn record(&mut self, started: Instant) -> Duration {
        let took = started.elapsed();
        self.tally.upcalls += 1;
        self.tally.busy += took;
        took
    }
}

impl SchedulingPolicy for TracedPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn allocate_jobs(&mut self, ctx: &mut dyn SchedulerContext) {
        let t = Instant::now();
        self.inner.allocate_jobs(ctx);
        self.record(t);
    }

    fn application_stat(&mut self, event: &JobEvent, ctx: &mut dyn SchedulerContext) {
        let t = Instant::now();
        self.inner.application_stat(event, ctx);
        self.record(t);
    }

    fn on_iteration_finish(
        &mut self,
        event: &JobEvent,
        ctx: &mut dyn SchedulerContext,
    ) -> JobDecision {
        let before = self.batches();
        let t = Instant::now();
        let decision = self.inner.on_iteration_finish(event, ctx);
        let took = self.record(t);
        if self.batches() != before {
            self.tally.boundary_ms.push(took.as_secs_f64() * 1e3);
        }
        decision
    }

    fn take_decision_overhead(&mut self) -> SimTime {
        let t = Instant::now();
        let overhead = self.inner.take_decision_overhead();
        self.record(t);
        overhead
    }

    fn prefetch_boundary(&self, default_boundary: u32) -> Option<u32> {
        self.inner.prefetch_boundary(default_boundary)
    }

    fn prefetch_hint(&mut self, hint: &PrefetchHint, curve: &LearningCurve) {
        let t = Instant::now();
        self.inner.prefetch_hint(hint, curve);
        self.record(t);
    }

    fn fit_cache_snapshot(&self) -> Option<FitCacheSnapshot> {
        self.inner.fit_cache_snapshot()
    }
}

/// Time spent in the simulator's queue and the engine by [`drive`].
#[derive(Debug, Default, Clone, Copy)]
pub struct SimTally {
    /// Events popped off the queue and handed to the engine.
    pub events: u64,
    /// `EventQueue::pop` and `EventQueue::schedule`.
    pub queue: Duration,
    /// Engine construction, `start_into` and `handle_into`, including the
    /// policy up-calls they make.
    pub engine: Duration,
    /// `ExperimentEngine::into_result`.
    pub finish: Duration,
}

/// `run_sim` with every layer boundary timed into `tally`.
pub fn drive(
    policy: &mut dyn SchedulingPolicy,
    workload: &ExperimentWorkload,
    spec: ExperimentSpec,
    tally: &mut SimTally,
) -> ExperimentResult {
    let t = Instant::now();
    let mut engine = ExperimentEngine::new(policy, workload, spec);
    let mut cmds = Vec::new();
    engine.start_into(&mut cmds);
    tally.engine += t.elapsed();

    let t = Instant::now();
    let mut queue: EventQueue<EngineEvent> = EventQueue::with_capacity(workload.len() + 1);
    let mut now = SimTime::ZERO;
    let mut stopping = schedule(&cmds, now, &mut queue);
    tally.queue += t.elapsed();
    while !stopping {
        let t0 = Instant::now();
        let Some((at, event)) = queue.pop() else {
            tally.queue += t0.elapsed();
            break;
        };
        let t1 = Instant::now();
        now = at;
        engine.handle_into(event, now, &mut cmds);
        let t2 = Instant::now();
        stopping = schedule(&cmds, now, &mut queue) || engine.stopped();
        let t3 = Instant::now();
        tally.queue += (t1 - t0) + (t3 - t2);
        tally.engine += t2 - t1;
        tally.events += 1;
    }
    let t = Instant::now();
    let result = engine.into_result(now);
    tally.finish += t.elapsed();
    result
}

/// Turns engine commands into future completion events, echoing each
/// command's token, and reports whether a `Stop` was among them: the
/// simulator's translation, which is private to `hyperdrive-sim`.
fn schedule(cmds: &[Command], now: SimTime, queue: &mut EventQueue<EngineEvent>) -> bool {
    let mut stop = false;
    for cmd in cmds {
        match *cmd {
            Command::RunEpoch { job, duration, token, .. } => {
                queue.schedule(now + duration, EngineEvent::EpochDone { job, token });
            }
            Command::Suspend { job, latency, token, .. } => {
                queue.schedule(now + latency, EngineEvent::SuspendDone { job, token });
            }
            Command::Stop => stop = true,
        }
    }
    stop
}

/// Engine inputs a fault-free run handled: one per epoch and one per
/// suspend completion. Lets untraced runs report events without owning
/// the loop; traced runs check it against [`SimTally::events`].
pub fn engine_inputs(result: &ExperimentResult) -> u64 {
    result.total_epochs + result.suspend_events.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest;
    use hyperdrive_core::{PopConfig, PopPolicy};
    use hyperdrive_curve::PredictorConfig;
    use hyperdrive_framework::DefaultPolicy;
    use hyperdrive_sim::run_sim;
    use hyperdrive_workload::CifarWorkload;

    fn small_study() -> (ExperimentWorkload, ExperimentSpec) {
        let w = CifarWorkload::new().with_max_epochs(12);
        (ExperimentWorkload::from_workload(&w, 10, 5), ExperimentSpec::new(3).with_seed(2))
    }

    fn pop() -> PopPolicy {
        PopPolicy::with_config_and_cache(
            PopConfig {
                predictor: PredictorConfig::test(),
                fit_threads: 1,
                seed: 9,
                ..Default::default()
            },
            None,
        )
    }

    #[test]
    fn bench_loop_equals_run_sim_under_default_and_pop() {
        let (ew, spec) = small_study();
        let mut a = DefaultPolicy::new();
        let mut b = DefaultPolicy::new();
        let reference = run_sim(&mut a, &ew, spec);
        let mut tally = SimTally::default();
        let driven = drive(&mut b, &ew, spec, &mut tally);
        assert_eq!(digest::study(&reference, &[]), digest::study(&driven, &[]));
        assert_eq!(tally.events, engine_inputs(&driven));

        let (mut a, mut b) = (pop(), pop());
        let reference = run_sim(&mut a, &ew, spec);
        let mut tally = SimTally::default();
        let driven = drive(&mut b, &ew, spec, &mut tally);
        assert!(!a.timeline().is_empty(), "POP made boundary decisions");
        assert_eq!(digest::study(&reference, a.timeline()), digest::study(&driven, b.timeline()));
        assert_eq!(tally.events, engine_inputs(&driven));
    }

    #[test]
    fn policy_wrapper_is_transparent() {
        let (ew, spec) = small_study();
        let (mut plain, mut inner) = (pop(), pop());
        let reference = run_sim(&mut plain, &ew, spec);
        let mut traced = TracedPolicy::new(&mut inner);
        let wrapped = run_sim(&mut traced, &ew, spec);
        let tally = traced.tally;
        assert!(tally.upcalls > 0 && !tally.boundary_ms.is_empty());
        assert_eq!(
            digest::study(&reference, plain.timeline()),
            digest::study(&wrapped, inner.timeline())
        );
        assert_eq!(reference.fit_cache, wrapped.fit_cache);
    }
}
