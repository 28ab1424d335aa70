//! The simulator's one driver loop.
//!
//! [`Simulation`] owns the engine, the future-event queue, the fault plan's
//! reply routing and an optional simulated process kill, and
//! [`Simulation::step`] is the only place an event is popped and handed to
//! the engine. Every `run_*` entry point in this crate is a constructor
//! plus `while sim.step().is_some() {}`. Stepping by hand lets callers
//! inspect scheduler state between events — for debugging policies,
//! teaching, recording custom telemetry, or embedding the simulator in an
//! outer control loop.
//!
//! # Example
//!
//! ```
//! use hyperdrive_framework::{DefaultPolicy, ExperimentSpec, ExperimentWorkload};
//! use hyperdrive_sim::Simulation;
//! use hyperdrive_workload::CifarWorkload;
//!
//! let workload = CifarWorkload::new().with_max_epochs(3);
//! let experiment = ExperimentWorkload::from_workload(&workload, 4, 1);
//! let mut policy = DefaultPolicy::new();
//! let mut sim = Simulation::new(
//!     &mut policy,
//!     &experiment,
//!     ExperimentSpec::new(2).with_stop_on_target(false),
//! );
//! let mut steps: u64 = 0;
//! while sim.step().is_some() {
//!     steps += 1;
//! }
//! let result = sim.finish();
//! assert_eq!(u64::from(steps), result.total_epochs);
//! ```

use hyperdrive_framework::{
    Command, EngineEvent, ExperimentEngine, ExperimentResult, ExperimentSpec, ExperimentWorkload,
    FaultKind, FaultPlan, Journal, RecoveredJournal, ReplayInput, SchedulingPolicy,
};
use hyperdrive_types::{Error, MachineId, Result, SimTime};

use crate::faults::{ReplyFate, ReplyFaults};
use crate::queue::EventQueue;
use crate::recovery::SimRunOutcome;

/// Everything that can happen on the simulator's virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// A completion report reaching the scheduler.
    Engine(EngineEvent),
    /// A scheduled machine crash.
    Crash(MachineId),
    /// A scheduled machine recovery.
    Recover(MachineId),
    /// The heartbeat timeout for a swallowed report fires.
    StallDetected(MachineId),
}

/// What one [`Simulation::step`] processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// The event that was delivered to the engine.
    pub event: SimEvent,
    /// The virtual time at which it occurred.
    pub time: SimTime,
}

/// A resumable, inspectable discrete-event simulation of one experiment.
pub struct Simulation<'w, 'p> {
    engine: ExperimentEngine<'w, 'p>,
    queue: EventQueue<SimEvent>,
    /// The plan's pending stall/delay faults; `None` when it has none, so
    /// fault-free runs route no replies.
    reply_faults: Option<ReplyFaults>,
    /// Reusable command buffer: the engine writes each event's follow-up
    /// batch here, so the steady-state step path allocates nothing.
    cmds: Vec<Command>,
    now: SimTime,
    stopping: bool,
    /// Simulated process kill: the run dies, unsealed and without a
    /// result, once the engine has journaled this many inputs.
    crash_after: Option<u64>,
    crashed: bool,
}

impl<'w, 'p> Simulation<'w, 'p> {
    /// Sets up a fault-free simulation and schedules the initial job
    /// starts.
    pub fn new(
        policy: &'p mut dyn SchedulingPolicy,
        workload: &'w ExperimentWorkload,
        spec: ExperimentSpec,
    ) -> Self {
        Self::with_faults(policy, workload, spec, &FaultPlan::none())
    }

    /// Sets up a simulation that injects the faults scheduled in `plan`.
    /// With [`FaultPlan::none`] this is exactly [`Simulation::new`].
    pub(crate) fn with_faults(
        policy: &'p mut dyn SchedulingPolicy,
        workload: &'w ExperimentWorkload,
        spec: ExperimentSpec,
        plan: &FaultPlan,
    ) -> Self {
        let engine = ExperimentEngine::with_fault_injection(policy, workload, spec, plan);
        Self::assemble(engine, workload, plan, None).started()
    }

    /// Sets up a simulation that writes every engine input to `journal`
    /// and, with `crash_after: Some(k)`, dies once `k` inputs have been
    /// journaled, exactly as if the scheduler process had been killed.
    pub(crate) fn with_journal(
        policy: &'p mut dyn SchedulingPolicy,
        workload: &'w ExperimentWorkload,
        spec: ExperimentSpec,
        plan: &FaultPlan,
        journal: Journal,
        crash_after: Option<u64>,
    ) -> Self {
        let engine = ExperimentEngine::with_journal(policy, workload, spec, plan, journal);
        Self::assemble(engine, workload, plan, crash_after).started()
    }

    /// Resumes a crashed journaled run where it died.
    ///
    /// The journal is replayed through a fresh engine and `policy` (which
    /// must be a new instance of the policy the dead process ran). The
    /// future-event queue is then rebuilt by re-scheduling every
    /// regenerated command batch: the events the dead process already
    /// consumed come off the front in their original order and are
    /// checked against the journal without reaching the engine. The
    /// interrupted turn's batch is scheduled last, as the dead process
    /// would have done, and `crash_after` may arm a further kill.
    ///
    /// # Errors
    ///
    /// [`Error::JournalDiverged`] if replay regenerates different records
    /// than the journal holds, or if the rebuilt event queue disagrees with
    /// the journaled input order (wrong policy, workload, spec, or plan).
    pub(crate) fn resume(
        policy: &'p mut dyn SchedulingPolicy,
        workload: &'w ExperimentWorkload,
        spec: ExperimentSpec,
        plan: &FaultPlan,
        recovered: RecoveredJournal,
        crash_after: Option<u64>,
    ) -> Result<Self> {
        let (engine, run) = ExperimentEngine::recover(policy, workload, spec, plan, recovered)?;
        let mut sim = Self::assemble(engine, workload, plan, crash_after);
        let Some(((_, last), earlier)) = run.batches.split_last() else {
            // Header-only journal: the process died before `start` was
            // recorded, so this is simply a fresh journaled run.
            return Ok(sim.started());
        };
        for (at, batch) in earlier {
            schedule(batch, *at, &mut sim.queue, &mut sim.reply_faults);
        }
        // The queue's (time, seq) order is deterministic, so the consumed
        // events pop as an exact prefix; `inputs[0]` is `Start`.
        for (i, input) in run.inputs.iter().enumerate().skip(1) {
            let Some((t, ev)) = sim.queue.pop() else {
                return Err(Error::JournalDiverged {
                    record: i as u64,
                    detail: "rebuilt event queue ran dry before the journaled inputs were consumed"
                        .into(),
                });
            };
            if !input_matches(input, t, ev) {
                return Err(Error::JournalDiverged {
                    record: i as u64,
                    detail: format!(
                        "rebuilt event queue produced {ev:?} at {t:?} where the journal \
                         recorded {input:?}"
                    ),
                });
            }
        }
        sim.now = run.now;
        sim.cmds.extend_from_slice(last);
        sim.end_turn();
        Ok(sim)
    }

    /// A simulation with its queue sized and the plan's timed machine
    /// faults scheduled, before the engine has been started.
    fn assemble(
        engine: ExperimentEngine<'w, 'p>,
        workload: &ExperimentWorkload,
        plan: &FaultPlan,
        crash_after: Option<u64>,
    ) -> Self {
        let mut queue = EventQueue::with_capacity(queue_capacity(workload, plan));
        for event in &plan.events {
            match event.kind {
                FaultKind::MachineCrash => queue.schedule(event.at, SimEvent::Crash(event.machine)),
                FaultKind::MachineRecover => {
                    queue.schedule(event.at, SimEvent::Recover(event.machine));
                }
                FaultKind::AgentStall { .. }
                | FaultKind::ReplyDelay { .. }
                | FaultKind::EngineCrash { .. } => {}
            }
        }
        Simulation {
            engine,
            queue,
            reply_faults: ReplyFaults::from_plan(plan),
            cmds: Vec::new(),
            now: SimTime::ZERO,
            stopping: false,
            crash_after,
            crashed: false,
        }
    }

    /// Starts the engine and schedules its first batch (unless the kill is
    /// armed at input 0).
    fn started(mut self) -> Self {
        if self.crash_after == Some(0) {
            self.crashed = true;
            self.stopping = true;
        } else {
            self.engine.start_into(&mut self.cmds);
            self.end_turn();
        }
        self
    }

    /// Processes the next pending event. Returns `None` once the
    /// experiment has stopped (goal, `Tmax`, all work drained, or the
    /// simulated process kill).
    pub fn step(&mut self) -> Option<StepOutcome> {
        if self.stopping {
            return None;
        }
        let (t, event) = self.queue.pop()?;
        self.now = t;
        let out = &mut self.cmds;
        match event {
            SimEvent::Engine(event) => self.engine.handle_into(event, t, out),
            SimEvent::Crash(machine) => self.engine.inject_machine_crash_into(machine, t, out),
            SimEvent::Recover(machine) => self.engine.inject_machine_recovery_into(machine, t, out),
            SimEvent::StallDetected(machine) => {
                self.engine.inject_agent_stall_into(machine, t, out)
            }
        }
        self.end_turn();
        Some(StepOutcome { event, time: t })
    }

    /// Acts on the batch the engine just wrote to `cmds` at `now`.
    ///
    /// A kill at input `k` dies before the batch is acted on; recovery
    /// regenerates and redelivers it. Otherwise the batch is scheduled and
    /// the run stops on `Stop`, on a stopped engine, or once every job is
    /// terminal — whatever is still queued then is a fault event that can
    /// no longer affect the run.
    fn end_turn(&mut self) {
        if self.crash_after.is_some_and(|k| self.engine.journaled_inputs() >= k) {
            self.crashed = true;
            self.stopping = true;
            return;
        }
        let stop = schedule(&self.cmds, self.now, &mut self.queue, &mut self.reply_faults);
        self.stopping = stop || self.engine.stopped() || self.engine.active_job_count() == 0;
    }

    /// Runs at most `n` steps, returning how many were processed.
    pub fn step_n(&mut self, n: usize) -> usize {
        (0..n).take_while(|_| self.step().is_some()).count()
    }

    /// Runs until the virtual clock reaches `until` (or the experiment
    /// stops), returning the number of events processed.
    pub fn run_until(&mut self, until: SimTime) -> usize {
        let mut processed = 0;
        while !self.stopping {
            match self.queue.peek_time() {
                Some(t) if t <= until => {
                    if self.step().is_none() {
                        break;
                    }
                    processed += 1;
                }
                _ => break,
            }
        }
        processed
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the future-event queue.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// True once the experiment has stopped.
    pub fn stopped(&self) -> bool {
        self.stopping || self.queue.is_empty()
    }

    /// Consumes the simulation and produces the experiment result.
    pub fn finish(self) -> ExperimentResult {
        // Only the crate's journaled runs arm a kill, and they read the
        // outcome through `into_outcome`.
        self.into_outcome().result.expect("no simulated kill was armed")
    }

    /// Consumes the simulation: the result (`None` if the simulated kill
    /// fired) and the number of engine inputs journaled.
    pub(crate) fn into_outcome(self) -> SimRunOutcome {
        let inputs = self.engine.journaled_inputs();
        let result = (!self.crashed).then(|| self.engine.into_result(self.now));
        SimRunOutcome { result, inputs }
    }
}

/// Worst-case future-event-queue occupancy, so the heap never reallocates
/// mid-run. Without faults each job holds at most one outstanding command
/// (RunEpoch *or* Suspend, never both) and no token goes stale, so at most
/// one event per job is queued. Under faults every interruption can also
/// orphan a stale-token event until its (delayed) due time, and a job is
/// interrupted at most `max_retries + 1` times before it fails. The plan's
/// timed faults add one slot each (stall detections replace the reply they
/// swallow, so the plan length over-covers them), and one spare slot keeps
/// a full cluster's simultaneous batch off the exact capacity.
fn queue_capacity(workload: &ExperimentWorkload, plan: &FaultPlan) -> usize {
    let per_job = if plan.is_empty() { 1 } else { plan.retry.max_retries as usize + 2 };
    workload.len() * per_job + plan.events.len() + 1
}

/// Translates engine commands into future events (echoing each command's
/// token), passing each reply through the pending stall/delay faults.
/// Returns whether a `Stop` was seen.
fn schedule(
    cmds: &[Command],
    now: SimTime,
    queue: &mut EventQueue<SimEvent>,
    reply_faults: &mut Option<ReplyFaults>,
) -> bool {
    let mut stop = false;
    for cmd in cmds {
        let (machine, due, event) = match *cmd {
            Command::RunEpoch { job, machine, duration, token, .. } => {
                (machine, now + duration, EngineEvent::EpochDone { job, token })
            }
            Command::Suspend { job, machine, latency, token } => {
                (machine, now + latency, EngineEvent::SuspendDone { job, token })
            }
            Command::Stop => {
                stop = true;
                continue;
            }
        };
        match reply_faults.as_mut().map_or(ReplyFate::OnTime, |f| f.route(machine, due)) {
            ReplyFate::OnTime => queue.schedule(due, SimEvent::Engine(event)),
            ReplyFate::Delayed { arrives_at } => {
                queue.schedule(arrives_at, SimEvent::Engine(event));
            }
            // The report never arrives; only the watchdog does.
            ReplyFate::Lost { detected_at } => {
                queue.schedule(detected_at, SimEvent::StallDetected(machine));
            }
        }
    }
    stop
}

/// Does a popped simulator event match the journaled input at this
/// position?
fn input_matches(input: &ReplayInput, t: SimTime, ev: SimEvent) -> bool {
    let journaled = match *input {
        ReplayInput::Start => return false,
        ReplayInput::Event { event, now } => (SimEvent::Engine(event), now),
        ReplayInput::MachineCrash { machine, now } => (SimEvent::Crash(machine), now),
        ReplayInput::MachineRecovery { machine, now } => (SimEvent::Recover(machine), now),
        ReplayInput::AgentStall { machine, now } => (SimEvent::StallDetected(machine), now),
    };
    journaled == (ev, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_sim;
    use hyperdrive_framework::DefaultPolicy;
    use hyperdrive_workload::CifarWorkload;

    fn experiment(n: usize, epochs: u32) -> ExperimentWorkload {
        let w = CifarWorkload::new().with_max_epochs(epochs);
        ExperimentWorkload::from_workload(&w, n, 3)
    }

    #[test]
    fn stepping_matches_run_sim_exactly() {
        let ew = experiment(6, 5);
        let spec = ExperimentSpec::new(2).with_stop_on_target(false).with_seed(9);

        let mut p1 = DefaultPolicy::new();
        let direct = run_sim(&mut p1, &ew, spec);

        let mut p2 = DefaultPolicy::new();
        let mut sim = Simulation::new(&mut p2, &ew, spec);
        while sim.step().is_some() {}
        let stepped = sim.finish();

        assert_eq!(direct.end_time, stepped.end_time);
        assert_eq!(direct.total_epochs, stepped.total_epochs);
        for (a, b) in direct.outcomes.iter().zip(&stepped.outcomes) {
            assert_eq!(a.epochs, b.epochs);
            assert_eq!(a.busy_time, b.busy_time);
        }
    }

    #[test]
    fn events_arrive_in_time_order() {
        let ew = experiment(5, 4);
        let mut policy = DefaultPolicy::new();
        let mut sim =
            Simulation::new(&mut policy, &ew, ExperimentSpec::new(2).with_stop_on_target(false));
        let mut last = SimTime::ZERO;
        while let Some(step) = sim.step() {
            assert!(step.time >= last, "time went backwards");
            last = step.time;
            assert_eq!(sim.now(), step.time);
        }
        assert!(sim.stopped());
    }

    #[test]
    fn run_until_respects_the_clock() {
        let ew = experiment(4, 10);
        let mut policy = DefaultPolicy::new();
        let mut sim =
            Simulation::new(&mut policy, &ew, ExperimentSpec::new(2).with_stop_on_target(false));
        let horizon = SimTime::from_mins(10.0);
        sim.run_until(horizon);
        assert!(sim.now() <= horizon);
        // Remaining events are all beyond the horizon.
        assert!(sim.pending_events() > 0);
        // Continue to completion.
        while sim.step().is_some() {}
        let result = sim.finish();
        assert_eq!(result.total_epochs, 4 * 10);
    }

    #[test]
    fn step_n_counts_processed_events() {
        let ew = experiment(3, 4);
        let mut policy = DefaultPolicy::new();
        let mut sim =
            Simulation::new(&mut policy, &ew, ExperimentSpec::new(1).with_stop_on_target(false));
        assert_eq!(sim.step_n(5), 5);
        let rest = sim.step_n(1_000);
        assert_eq!(5 + rest, 12, "3 jobs x 4 epochs in total");
        assert_eq!(sim.step_n(10), 0, "no events after completion");
    }

    #[test]
    fn stop_on_target_halts_stepping() {
        let ew = experiment(4, 20).with_target(0.05);
        let mut policy = DefaultPolicy::new();
        let mut sim = Simulation::new(&mut policy, &ew, ExperimentSpec::new(2));
        while sim.step().is_some() {}
        let result = sim.finish();
        assert!(result.reached_target());
    }
}
