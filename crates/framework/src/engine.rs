//! The experiment engine: executor-independent scheduling logic.
//!
//! Both execution backends — the §7 discrete-event simulator
//! (`hyperdrive-sim`) and the thread-based live executor
//! ([`crate::live`]) — drive the same [`ExperimentEngine`]. The engine owns
//! the Resource Manager, Job Manager, and AppStat DB, fires the SAP
//! up-calls, and translates policy decisions into abstract [`Command`]s
//! ("run epoch e of job j on machine m for duration d"). Executors differ
//! only in *how* commands elapse: the simulator advances a virtual clock;
//! the live executor hands them to node-agent threads that sleep scaled
//! wall-clock time.
//!
//! This mirrors the paper's architecture: the scheduler is oblivious to
//! where jobs physically run, and Node Agents are delay-and-report servers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hyperdrive_types::{DomainKnowledge, Error, JobId, LearningCurve, MachineId, Result, SimTime};

use crate::appstat::{AppStatDb, SuspendEvent};
use crate::dense::DenseMap;
use crate::events::{EventLog, SchedulerEvent};
use crate::experiment::{
    ExperimentResult, ExperimentSpec, ExperimentWorkload, JobEnd, JobOutcome, TargetMilestone,
};
use crate::fault::{FaultPlan, FaultStats, RetryPolicy};
use crate::job_manager::{JobManager, JobState};
use crate::journal::{self, Journal, RecoveredJournal, ReplayInput};
use crate::policy::{JobDecision, JobEvent, PrefetchHint, SchedulerContext, SchedulingPolicy};
use crate::resource::ResourceManager;
use crate::snapshot::JobSnapshot;

/// An instruction from the engine to the execution backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Command {
    /// Execute one epoch of `job` on `machine`; report
    /// [`EngineEvent::EpochDone`] after `duration` (which includes any
    /// resume latency).
    RunEpoch {
        /// Job to train.
        job: JobId,
        /// Hosting machine.
        machine: MachineId,
        /// 1-based epoch to execute.
        epoch: u32,
        /// Wall/virtual time the epoch occupies the machine.
        duration: SimTime,
        /// Issue token; the completion event must echo it (see
        /// [`EngineEvent`]).
        token: u64,
    },
    /// Capture `job`'s state on `machine`; report
    /// [`EngineEvent::SuspendDone`] after `latency`.
    Suspend {
        /// Job being suspended.
        job: JobId,
        /// Machine performing the snapshot.
        machine: MachineId,
        /// Snapshot latency.
        latency: SimTime,
        /// Issue token; the completion event must echo it.
        token: u64,
    },
    /// The experiment is over; backends stop delivering events.
    Stop,
}

impl Command {
    /// The issue token carried by work commands (`None` for [`Stop`]).
    ///
    /// [`Stop`]: Command::Stop
    pub fn token(&self) -> Option<u64> {
        match self {
            Command::RunEpoch { token, .. } | Command::Suspend { token, .. } => Some(*token),
            Command::Stop => None,
        }
    }
}

/// A completion notification from the execution backend.
///
/// Every work [`Command`] carries a unique `token` that its completion must
/// echo. When a fault interrupts a job, the engine invalidates the
/// outstanding token, so a completion that arrives late (a reply from a
/// crashed machine's queue, a wedged agent finally answering) no longer
/// matches and is dropped instead of corrupting job state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineEvent {
    /// A previously issued `RunEpoch` finished.
    EpochDone {
        /// The job whose epoch completed.
        job: JobId,
        /// Token echoed from the command.
        token: u64,
    },
    /// A previously issued `Suspend` finished; the job's state is stored.
    SuspendDone {
        /// The suspended job.
        job: JobId,
        /// Token echoed from the command.
        token: u64,
    },
}

/// What [`ExperimentEngine::recover`] replayed out of a journal: the
/// executor uses this to rebuild its delivery state and continue the run.
#[derive(Debug)]
pub struct RecoveredRun {
    /// The replayed inputs, in original order (the simulator pops its
    /// rebuilt queue against these to verify delivery order).
    pub inputs: Vec<ReplayInput>,
    /// The command batch each input produced, with the time it was
    /// produced at. Identical to the batches of the original run.
    pub batches: Vec<(SimTime, Vec<Command>)>,
    /// Executor time of the last replayed input (zero if none).
    pub now: SimTime,
    /// True if the journal was sealed (the original run ended or drained
    /// on SIGTERM before the crash).
    pub sealed: bool,
}

/// Executor-independent experiment state; implements [`SchedulerContext`]
/// for policy up-calls.
struct EngineCore<'w> {
    workload: &'w ExperimentWorkload,
    spec: ExperimentSpec,
    rm: ResourceManager,
    jm: JobManager,
    db: AppStatDb,
    rng: StdRng,
    now: SimTime,
    pending: Vec<Command>,
    stopped: bool,
    time_to_target: Option<SimTime>,
    winner: Option<JobId>,
    current_target: f64,
    milestones: Vec<TargetMilestone>,
    busy_time: Vec<f64>,
    total_epochs: u64,
    log: EventLog,
    /// Next issue token; strictly monotonic, never reused.
    next_token: u64,
    /// Token of each job's in-flight command. A completion whose token is
    /// not here is stale (superseded by a fault) and is dropped.
    outstanding: DenseMap<u64>,
    /// RNG stream for probabilistic faults. Never touched while both
    /// probabilities are zero, so fault-free runs stay byte-identical to
    /// runs without the fault subsystem.
    fault_rng: StdRng,
    suspend_fail_prob: f64,
    snapshot_corrupt_prob: f64,
    retry: RetryPolicy,
    /// Interruptions suffered per job (counts against `retry.max_retries`).
    retries: DenseMap<u32>,
    /// Epochs covered by each job's stored snapshot, as the engine
    /// believes them (corruption is only discovered at resume).
    snapshot_epochs: DenseMap<u32>,
    /// Backoff penalty to charge the next start of an interrupted job.
    restart_penalty: DenseMap<SimTime>,
    stats: FaultStats,
    /// Write-ahead journal (no-op when disabled). Journaling is pure
    /// output: nothing the engine does depends on it, so journal-on runs
    /// stay byte-identical to journal-off runs.
    journal: Journal,
    /// Draws taken from `rng` so far — journaled as RNG checkpoints so
    /// replay verifies stream positions, not just outcomes.
    rng_draws: u64,
    /// Draws taken from `fault_rng` so far.
    fault_rng_draws: u64,
    /// The fault plan's seed; deterministic retry jitter derives from it.
    fault_seed: u64,
    /// Boundary at which the policy wants speculative fit-prefetch hints
    /// ([`SchedulingPolicy::prefetch_boundary`] snapshotted at
    /// construction); `None` — the default — disables hinting entirely.
    prefetch_boundary: Option<u32>,
    /// Hints buffered while a turn runs: `issue_epoch` fires inside
    /// [`SchedulerContext`] up-calls where the policy is borrowed, so
    /// the sink buffers `(job, first epoch, its completion, boundary)`
    /// and `finish_turn_into` drains it to the policy. Never journaled —
    /// prefetch is pure compute-ahead and must leave every journal and
    /// log record untouched.
    prefetch_hints: Vec<(JobId, u32, SimTime, u32)>,
    /// Reused buffer for the predicted curve handed to the policy with
    /// each hint (sized to `max_epochs`, so it never grows mid-run).
    prefetch_curve: LearningCurve,
}

impl<'w> EngineCore<'w> {
    fn profile_of(&self, job: JobId) -> &hyperdrive_workload::JobProfile {
        self.workload.profile(job)
    }

    /// Records a scheduler event in the log *and* the journal (as a
    /// verification record): every externally visible transition goes
    /// through here.
    fn record(&mut self, event: SchedulerEvent) {
        self.journal.transition(&event);
        self.log.record(event);
    }

    fn charge(&mut self, job: JobId, time: SimTime) {
        self.busy_time[job.raw() as usize] += time.as_secs();
    }

    fn issue_token(&mut self, job: JobId) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.outstanding.insert(job, token);
        token
    }

    /// Issues the next epoch of `job` on `machine`, including `extra`
    /// latency (resume cost and/or retry backoff). `started` is true when
    /// the job (re)starts on `machine` rather than continuing there.
    fn issue_epoch(&mut self, job: JobId, machine: MachineId, extra: SimTime, started: bool) {
        let next_epoch = self.jm.epochs_done(job).expect("job registered") + 1;
        let duration = self.profile_of(job).epoch_duration(next_epoch) + extra;
        self.charge(job, duration);
        let token = self.issue_token(job);
        self.pending.push(Command::RunEpoch { job, machine, epoch: next_epoch, duration, token });
        // Speculative prefetch hook: once per evaluation window — at the
        // window's first issued epoch (a start, resume or retry, or a
        // continue past the previous boundary) — tell the policy about
        // the window's boundary `B`, so its fit overlaps with every event
        // of the window. Every observation up to `B` is already known
        // here: the executor reports `value_at(k)` at the chained
        // completion times (fault interruptions cancel the token, and a
        // retry re-hints), so the predicted curve is the one the boundary
        // fit will see. Epochs at `max_epochs` complete the job instead
        // of reaching `on_iteration_finish`. `B` uses checked arithmetic:
        // policies park the boundary at `u32::MAX` to disable decisions.
        if let Some(b) = self.prefetch_boundary {
            let window_start = started || (next_epoch - 1).is_multiple_of(b);
            if let Some(boundary) = next_epoch.div_ceil(b).checked_mul(b) {
                if window_start && boundary < self.profile_of(job).max_epochs() {
                    self.prefetch_hints.push((job, next_epoch, self.now + duration, boundary));
                }
            }
        }
    }

    /// Knocks `job` off `machine` after a fault: invalidates its in-flight
    /// command, rolls it back to its last snapshot (or scratch), and either
    /// re-queues it with a backoff penalty or — once its retry budget is
    /// exhausted — marks it failed. `release` returns the machine to the
    /// pool (stall / failed suspend); a crashed machine is already dead
    /// and must not be released.
    fn interrupt(&mut self, job: JobId, machine: MachineId, release: bool) {
        self.outstanding.remove(job);
        let epochs_done = self.jm.epochs_done(job).unwrap_or(0);
        let rollback_to = self.snapshot_epochs.get(job).copied().unwrap_or(0);
        let has_snapshot = self.snapshot_epochs.contains(job);
        let lost = epochs_done.saturating_sub(rollback_to);
        self.stats.interruptions += 1;
        self.stats.lost_epochs += u64::from(lost);
        self.record(SchedulerEvent::Interrupted {
            job,
            machine,
            time: self.now,
            lost_epochs: lost,
        });
        self.jm.interrupt_job(job, rollback_to, has_snapshot).expect("live job interrupts");
        self.db.truncate_stats(job, rollback_to);
        if release {
            self.rm.release_machine(machine).expect("held machine releases");
        }
        let retries = self.retries.or_insert_with(job, || 0);
        *retries += 1;
        let attempt = *retries;
        if attempt > self.retry.max_retries {
            self.jm.fail_job(job).expect("interrupted job fails");
            self.record(SchedulerEvent::Failed { job, time: self.now });
            self.stats.failed_jobs += 1;
            self.restart_penalty.remove(job);
        } else {
            // Deterministic jitter (derived from the fault seed and job,
            // no global RNG) de-synchronizes retry stampedes after a
            // correlated fault while keeping runs replayable.
            let penalty = self.retry.penalty_with_jitter(attempt, self.fault_seed, job.raw());
            self.restart_penalty.insert(job, penalty);
        }
    }

    fn stop(&mut self) {
        if !self.stopped {
            self.stopped = true;
            self.pending.push(Command::Stop);
        }
    }

    /// True once a job's observed curve satisfies the experiment's goal at
    /// the *current* target: the workload's solved condition (sustained
    /// trailing mean over its window) if it has one, otherwise a plain
    /// threshold on the latest value.
    fn goal_reached(&self, curve: &LearningCurve, value: f64) -> bool {
        match &self.workload.domain.solved {
            Some(cond) => {
                curve.len() >= cond.window
                    && curve.trailing_mean(cond.window).is_some_and(|m| m >= self.current_target)
            }
            None => value >= self.current_target,
        }
    }
}

impl SchedulerContext for EngineCore<'_> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn tmax(&self) -> SimTime {
        self.spec.tmax
    }

    fn target(&self) -> f64 {
        self.current_target
    }

    fn total_slots(&self) -> usize {
        // Dead machines are invisible capacity: policies observe crashes
        // only as a shrunken cluster through this existing up-call.
        self.rm.alive_count()
    }

    fn idle_slots(&self) -> usize {
        self.rm.idle_count()
    }

    fn domain(&self) -> &DomainKnowledge {
        &self.workload.domain
    }

    fn max_epochs(&self) -> u32 {
        self.workload.max_epochs
    }

    fn eval_boundary(&self) -> u32 {
        self.workload.eval_boundary
    }

    fn active_jobs(&self) -> &[JobId] {
        self.jm.active_jobs()
    }

    fn running_jobs(&self) -> &[JobId] {
        self.jm.running_jobs()
    }

    fn idle_job_count(&self) -> usize {
        self.jm.idle_len()
    }

    fn curve(&self, job: JobId) -> Option<LearningCurve> {
        self.db.curve_ref(job).cloned()
    }

    fn secondary_curve(&self, job: JobId) -> Option<LearningCurve> {
        self.db.secondary_curve_ref(job).cloned()
    }

    fn epochs_done(&self, job: JobId) -> u32 {
        self.jm.epochs_done(job).unwrap_or(0)
    }

    fn global_best(&self) -> Option<(JobId, f64)> {
        self.db.global_best()
    }

    fn label_job(&mut self, job: JobId, priority: f64) {
        // Unknown jobs and NaN priorities are policy bugs; surface loudly.
        self.jm.label_job(job, priority).expect("label_job on live job");
    }

    fn start_next_idle_job(&mut self) -> Option<JobId> {
        if self.stopped {
            return None;
        }
        let job = self.jm.peek_idle_job()?;
        let machine = self.rm.reserve_idle_machine()?;
        let resumed = self.jm.start_job(job, machine).expect("idle job starts");
        let mut extra = if resumed {
            // §5.1: resuming on any machine restores state from the
            // AppStat DB. Decode and verify the stored snapshot; a
            // snapshot that is missing, undecodable, or inconsistent with
            // the Job Manager (fault injection corrupts payloads in
            // place) is discovered exactly here, and the job restarts
            // from scratch rather than crashing the scheduler.
            let believed_epochs = self.jm.epochs_done(job).expect("job registered");
            let valid = self
                .db
                .snapshot(job)
                .and_then(|bytes| JobSnapshot::decode(bytes).ok())
                .is_some_and(|s| s.job == job && s.epochs_done == believed_epochs);
            if valid {
                self.rng_draws += 1;
                self.workload.suspend.sample_resume(&mut self.rng)
            } else {
                self.stats.snapshot_corruptions += 1;
                self.stats.lost_epochs += u64::from(believed_epochs);
                self.record(SchedulerEvent::SnapshotCorrupted { job, time: self.now });
                self.jm.reset_epochs(job, 0).expect("running job resets");
                self.db.truncate_stats(job, 0);
                self.snapshot_epochs.remove(job);
                SimTime::ZERO
            }
        } else {
            SimTime::ZERO
        };
        if let Some(penalty) = self.restart_penalty.remove(job) {
            extra += penalty;
        }
        self.record(SchedulerEvent::Started { job, machine, time: self.now, resumed });
        self.issue_epoch(job, machine, extra, true);
        Some(job)
    }

    fn request_stop(&mut self) {
        self.stop();
    }
}

/// Drives one experiment: wires the workload, spec, and policy together
/// and exchanges [`Command`]s/[`EngineEvent`]s with an execution backend.
pub struct ExperimentEngine<'w, 'p> {
    core: EngineCore<'w>,
    policy: &'p mut dyn SchedulingPolicy,
}

impl<'w, 'p> ExperimentEngine<'w, 'p> {
    /// Creates an engine for one run.
    ///
    /// # Panics
    ///
    /// Panics if the workload has no jobs or the spec has no machines.
    pub fn new(
        policy: &'p mut dyn SchedulingPolicy,
        workload: &'w ExperimentWorkload,
        spec: ExperimentSpec,
    ) -> Self {
        Self::with_fault_injection(policy, workload, spec, &FaultPlan::none())
    }

    /// Creates an engine whose probabilistic faults (suspend failure,
    /// snapshot corruption) and retry policy come from `plan`. Timed
    /// faults in the plan are the executor's responsibility — it calls
    /// [`inject_machine_crash_into`](Self::inject_machine_crash_into) and friends
    /// when their times come. With [`FaultPlan::none`] this is exactly
    /// [`ExperimentEngine::new`].
    ///
    /// # Panics
    ///
    /// Panics if the workload has no jobs or the spec has no machines.
    pub fn with_fault_injection(
        policy: &'p mut dyn SchedulingPolicy,
        workload: &'w ExperimentWorkload,
        spec: ExperimentSpec,
        plan: &FaultPlan,
    ) -> Self {
        let journal = Journal::from_env(journal::run_meta(policy.name(), workload, &spec, plan));
        Self::with_journal(policy, workload, spec, plan, journal)
    }

    /// Like [`with_fault_injection`](Self::with_fault_injection), but with
    /// an explicit write-ahead [`Journal`] instead of the
    /// `HYPERDRIVE_JOURNAL` environment wiring. Pass
    /// [`Journal::disabled`] to journal nothing.
    pub fn with_journal(
        policy: &'p mut dyn SchedulingPolicy,
        workload: &'w ExperimentWorkload,
        spec: ExperimentSpec,
        plan: &FaultPlan,
        journal: Journal,
    ) -> Self {
        assert!(!workload.is_empty(), "experiment needs at least one job");
        assert!(spec.machines > 0, "experiment needs at least one machine");
        let mut jm = JobManager::new();
        for job in &workload.jobs {
            jm.add_job(job.job);
        }
        let n_jobs = workload.jobs.len();
        // Steady-state zero-alloc sizing: one command batch can start at
        // most min(jobs, machines) jobs, plus one Suspend and one Stop.
        let batch_cap = n_jobs.min(spec.machines) + 2;
        // Snapshotted once: the prefetch boundary is part of the policy's
        // configuration, not run state, so it cannot drift mid-run. A zero
        // boundary has no windows and is treated as no hinting.
        let prefetch_boundary = policy.prefetch_boundary(workload.eval_boundary).filter(|&b| b > 0);
        ExperimentEngine {
            core: EngineCore {
                workload,
                spec,
                rm: ResourceManager::new(spec.machines).expect("non-empty cluster"),
                jm,
                db: AppStatDb::with_capacity(
                    workload.domain.metric,
                    n_jobs,
                    workload.max_epochs as usize,
                ),
                rng: StdRng::seed_from_u64(spec.seed ^ 0xE46),
                now: SimTime::ZERO,
                pending: Vec::with_capacity(batch_cap),
                stopped: false,
                time_to_target: None,
                winner: None,
                current_target: workload.target,
                milestones: Vec::new(),
                busy_time: vec![0.0; n_jobs],
                total_epochs: 0,
                // Suspend-free runs log ~2 events per job (Started +
                // Completed/Terminated); 4× covers fault churn without
                // mid-run growth in the common case.
                log: EventLog::with_capacity(4 * n_jobs),
                next_token: 0,
                outstanding: DenseMap::with_capacity(n_jobs),
                fault_rng: StdRng::seed_from_u64(plan.seed ^ 0xFA11),
                suspend_fail_prob: plan.suspend_fail_prob,
                snapshot_corrupt_prob: plan.snapshot_corrupt_prob,
                retry: plan.retry,
                retries: DenseMap::new(),
                snapshot_epochs: DenseMap::new(),
                restart_penalty: DenseMap::new(),
                stats: FaultStats::default(),
                journal,
                rng_draws: 0,
                fault_rng_draws: 0,
                fault_seed: plan.seed,
                prefetch_boundary,
                // One hint per issued epoch at most — the same bound as
                // the command batch — so this never grows mid-run either.
                prefetch_hints: Vec::with_capacity(if prefetch_boundary.is_some() {
                    batch_cap
                } else {
                    0
                }),
                prefetch_curve: LearningCurve::with_capacity(
                    workload.domain.metric,
                    if prefetch_boundary.is_some() { workload.max_epochs as usize } else { 0 },
                ),
            },
            policy,
        }
    }

    /// Recovers an engine from a journal written by an identical run: the
    /// journaled inputs are replayed through a fresh engine (regenerating
    /// and verifying every record byte-for-byte), after which the engine
    /// — and the journal, back in append mode — continue exactly where the
    /// crashed process stopped. The caller must pass the *same* policy
    /// construction, workload, spec, and plan as the original run.
    ///
    /// Returns the engine plus a [`RecoveredRun`] describing the replayed
    /// prefix (the regenerated command batches let an executor rebuild its
    /// delivery queue).
    ///
    /// # Errors
    ///
    /// [`Error::JournalDiverged`] if replay regenerates different records
    /// than the journal holds (non-deterministic policy, changed binary,
    /// or wrong run parameters).
    ///
    /// # Panics
    ///
    /// Panics if the workload has no jobs or the spec has no machines.
    pub fn recover(
        policy: &'p mut dyn SchedulingPolicy,
        workload: &'w ExperimentWorkload,
        spec: ExperimentSpec,
        plan: &FaultPlan,
        recovered: RecoveredJournal,
    ) -> Result<(Self, RecoveredRun)> {
        let RecoveredJournal { journal, inputs, sealed } = recovered;
        let mut engine = Self::with_journal(policy, workload, spec, plan, journal);
        let mut batches = Vec::with_capacity(inputs.len());
        for input in &inputs {
            let mut cmds = Vec::new();
            match *input {
                ReplayInput::Start => engine.start_into(&mut cmds),
                ReplayInput::Event { event, now } => engine.handle_into(event, now, &mut cmds),
                ReplayInput::MachineCrash { machine, now } => {
                    engine.inject_machine_crash_into(machine, now, &mut cmds);
                }
                ReplayInput::MachineRecovery { machine, now } => {
                    engine.inject_machine_recovery_into(machine, now, &mut cmds);
                }
                ReplayInput::AgentStall { machine, now } => {
                    engine.inject_agent_stall_into(machine, now, &mut cmds);
                }
            }
            batches.push((input.now().unwrap_or(SimTime::ZERO), cmds));
        }
        if let Some(err) = engine.core.journal.take_divergence() {
            return Err(err);
        }
        let leftover = engine.core.journal.replay_remaining();
        if leftover > 0 {
            return Err(Error::JournalDiverged {
                record: engine.core.journal.records_appended(),
                detail: format!("replay finished with {leftover} journal records unaccounted for"),
            });
        }
        let now = inputs.iter().rev().find_map(ReplayInput::now).unwrap_or(SimTime::ZERO);
        let run = RecoveredRun { inputs, batches, now, sealed };
        Ok((engine, run))
    }

    /// Starts the experiment: fires the initial `AllocateJobs` up-call and
    /// writes the first command batch into `out` (cleared first).
    /// Executors pass the same buffer to every engine call so the
    /// steady-state event path allocates nothing.
    pub fn start_into(&mut self, out: &mut Vec<Command>) {
        self.core.journal.input_start();
        self.policy.allocate_jobs(&mut self.core);
        self.finish_turn_into(out);
    }

    /// Drains the pending command batch into `out` (cleared first) and
    /// journals its digest plus an RNG checkpoint. Every engine entry
    /// point ends here, so each input record is followed by its
    /// transitions and exactly one commands/checkpoint pair. `Command` is
    /// `Copy`, so the drain is a memcpy — no allocation once `out` has
    /// warmed up to the largest batch.
    fn finish_turn_into(&mut self, out: &mut Vec<Command>) {
        self.core.journal.commands(&self.core.pending);
        self.core.journal.rng_checkpoint(self.core.rng_draws, self.core.fault_rng_draws);
        out.clear();
        out.extend_from_slice(&self.core.pending);
        self.core.pending.clear();
        self.drain_prefetch_hints();
    }

    /// Delivers hints buffered by `issue_epoch` to the policy, each with
    /// the predicted curve through its boundary. Runs after the journal
    /// records for the turn are written: hints carry no run state — they
    /// only let the policy start fits early — so they are invisible to
    /// the journal, the event log, and replay verification (replay
    /// re-fires them identically from the same issue points).
    fn drain_prefetch_hints(&mut self) {
        if self.core.prefetch_hints.is_empty() {
            return;
        }
        let core = &mut self.core;
        let max_epochs = core.workload.max_epochs;
        let tmax = core.spec.tmax;
        // Index loop instead of drain(): the policy up-call borrows
        // `self.policy` mutably while `self.core` stays readable, and the
        // buffers keep their capacity for the next turn.
        for i in 0..core.prefetch_hints.len() {
            let (job, first, completion, boundary) = core.prefetch_hints[i];
            let predicted = &mut core.prefetch_curve;
            predicted.truncate_to_epoch(0);
            // The observed curve (none yet for a fresh job) must end just
            // before the issued epoch; anything else is a rollback that
            // happened after the issue, and the hint is dropped.
            let observed = core.db.curve_ref(job);
            if observed.and_then(LearningCurve::last_epoch).unwrap_or(0) + 1 != first {
                continue;
            }
            for p in observed.map_or(&[][..], LearningCurve::points) {
                predicted.push(p.epoch, p.time, p.value);
            }
            // Completion times chain exactly as the executor computes
            // them: `now + duration` for the issued epoch (already in
            // `completion`, extra latency included), then one
            // `epoch_duration` per continue inside the window.
            let profile = core.workload.profile(job);
            let mut time = completion;
            predicted.push(first, time, profile.value_at(first));
            for k in first + 1..=boundary {
                time += profile.epoch_duration(k);
                predicted.push(k, time, profile.value_at(k));
            }
            let hint = PrefetchHint { job, epoch: boundary, max_epochs, tmax };
            self.policy.prefetch_hint(&hint, predicted);
        }
        core.prefetch_hints.clear();
    }

    /// Feeds one completion event back at time `now`, writing follow-up
    /// commands into `out` (cleared first).
    ///
    /// Stale events — whose token no longer matches the job's outstanding
    /// command because a fault invalidated it — are silently dropped.
    ///
    /// # Panics
    ///
    /// Panics on protocol violations (events for jobs in impossible
    /// states), which indicate an executor bug.
    pub fn handle_into(&mut self, event: EngineEvent, now: SimTime, out: &mut Vec<Command>) {
        // Journaled before any state changes (write-ahead), including
        // no-op deliveries, so journal positions correspond 1:1 to
        // executor deliveries.
        self.core.journal.input_event(event, now);
        if self.core.stopped {
            return self.finish_turn_into(out);
        }
        let (job, token) = match event {
            EngineEvent::EpochDone { job, token } | EngineEvent::SuspendDone { job, token } => {
                (job, token)
            }
        };
        if self.core.outstanding.get(job) != Some(&token) {
            return self.finish_turn_into(out);
        }
        self.core.outstanding.remove(job);
        self.core.now = self.core.now.max(now);
        match event {
            EngineEvent::EpochDone { job, .. } => self.on_epoch_done(job),
            EngineEvent::SuspendDone { job, .. } => self.on_suspend_done(job),
        }
        // Time budget check (§3.1.1: the search never runs past Tmax).
        if self.core.now >= self.core.spec.tmax {
            self.core.stop();
        }
        self.finish_turn_into(out);
    }

    /// Injects a machine crash at time `now`: the machine goes dead, any
    /// hosted job is interrupted (rolled back to its last snapshot), and
    /// the policy gets a chance to reallocate. Follow-up commands are
    /// written into `out` (cleared first). Crashing an already-dead
    /// machine is a no-op.
    pub fn inject_machine_crash_into(
        &mut self,
        machine: MachineId,
        now: SimTime,
        out: &mut Vec<Command>,
    ) {
        self.core.journal.input_machine_crash(machine, now);
        if self.core.stopped || self.core.rm.is_dead(machine) {
            return self.finish_turn_into(out);
        }
        self.core.now = self.core.now.max(now);
        self.core.stats.machine_crashes += 1;
        self.core.record(SchedulerEvent::MachineCrashed { machine, time: self.core.now });
        let victim = self.job_on(machine);
        self.core.rm.mark_dead(machine).expect("alive machine crashes");
        if let Some(job) = victim {
            // The machine is dead: do not release it back to the pool.
            self.core.interrupt(job, machine, false);
        }
        self.policy.allocate_jobs(&mut self.core);
        if self.core.now >= self.core.spec.tmax {
            self.core.stop();
        }
        self.finish_turn_into(out);
    }

    /// Injects a machine recovery at time `now`: the machine returns to
    /// the idle pool and the policy may immediately use it. Follow-up
    /// commands are written into `out` (cleared first). Recovering an
    /// alive machine is a no-op.
    pub fn inject_machine_recovery_into(
        &mut self,
        machine: MachineId,
        now: SimTime,
        out: &mut Vec<Command>,
    ) {
        self.core.journal.input_machine_recovery(machine, now);
        if self.core.stopped || !self.core.rm.is_dead(machine) {
            return self.finish_turn_into(out);
        }
        self.core.now = self.core.now.max(now);
        self.core.rm.mark_recovered(machine).expect("dead machine recovers");
        self.core.stats.machine_recoveries += 1;
        self.core.record(SchedulerEvent::MachineRecovered { machine, time: self.core.now });
        self.policy.allocate_jobs(&mut self.core);
        self.finish_turn_into(out);
    }

    /// Injects a detected node-agent stall at time `now`: the report for
    /// the machine's in-flight work is lost, the hosted job is interrupted
    /// (rolled back to its last snapshot), and the machine — which
    /// survives, only its agent was restarted — returns to the pool.
    /// Follow-up commands are written into `out` (cleared first). A stall
    /// on a machine hosting nothing is a no-op.
    pub fn inject_agent_stall_into(
        &mut self,
        machine: MachineId,
        now: SimTime,
        out: &mut Vec<Command>,
    ) {
        self.core.journal.input_agent_stall(machine, now);
        if self.core.stopped || self.core.rm.is_dead(machine) {
            return self.finish_turn_into(out);
        }
        let Some(job) = self.job_on(machine) else {
            return self.finish_turn_into(out);
        };
        self.core.now = self.core.now.max(now);
        self.core.stats.agent_stalls += 1;
        self.core.interrupt(job, machine, true);
        self.policy.allocate_jobs(&mut self.core);
        if self.core.now >= self.core.spec.tmax {
            self.core.stop();
        }
        self.finish_turn_into(out);
    }

    /// The job currently occupying `machine`, if any.
    fn job_on(&self, machine: MachineId) -> Option<JobId> {
        self.core
            .jm
            .active_jobs()
            .iter()
            .copied()
            .find(|j| self.core.jm.state(*j).ok().and_then(|s| s.machine()) == Some(machine))
    }

    /// Number of jobs still live (running, suspending, or queued).
    /// Executors use this to detect natural termination under faults.
    pub fn active_job_count(&self) -> usize {
        self.core.jm.active_len()
    }

    fn on_epoch_done(&mut self, job: JobId) {
        let epoch = self.core.jm.record_epoch(job).expect("epoch on running job");
        self.core.total_epochs += 1;
        let value = self.core.profile_of(job).value_at(epoch);
        let secondary = self.core.profile_of(job).secondary_at(epoch);
        let now = self.core.now;
        self.core.db.record_stat(job, epoch, now, value);
        if let Some(sv) = secondary {
            self.core.db.record_secondary(job, epoch, now, sv);
        }

        // Experiment-level goal check happens before policy up-calls: the
        // run is over the moment any job exhibits the target — unless
        // dynamic-target mode keeps raising the bar (§9).
        if self.core.spec.stop_on_target || self.core.spec.dynamic_target_increment.is_some() {
            let curve = self.core.db.curve_ref(job).expect("stat just recorded");
            if self.core.goal_reached(curve, value) {
                self.core.milestones.push(TargetMilestone {
                    target: self.core.current_target,
                    time: now,
                    job,
                });
                self.core.record(SchedulerEvent::TargetReached {
                    job,
                    target: self.core.current_target,
                    time: now,
                });
                if self.core.time_to_target.is_none() {
                    self.core.time_to_target = Some(now);
                    self.core.winner = Some(job);
                }
                match self.core.spec.dynamic_target_increment {
                    Some(increment) => {
                        self.core.current_target += increment;
                        if self.core.current_target > 1.0 {
                            self.core.stop();
                            return;
                        }
                    }
                    None => {
                        self.core.stop();
                        return;
                    }
                }
            }
        }

        let event = JobEvent { job, epoch, value, now };
        self.policy.application_stat(&event, &mut self.core);

        let machine = self
            .core
            .jm
            .state(job)
            .expect("job registered")
            .machine()
            .expect("running job has a machine");

        if epoch >= self.core.profile_of(job).max_epochs() {
            // Ran to its cap.
            self.core.jm.complete_job(job).expect("running job completes");
            self.core.rm.release_machine(machine).expect("held machine releases");
            self.core.record(SchedulerEvent::Completed { job, machine, time: now });
        } else {
            let decision = self.policy.on_iteration_finish(&event, &mut self.core);
            // Modeled prediction cost of the decision (zero for policies
            // without a fit-cost model): the machine sits occupied while
            // the scheduler thinks, so the overhead delays whatever the
            // decision issues next.
            let overhead = self.policy.take_decision_overhead();
            match decision {
                JobDecision::Continue => {
                    self.core.issue_epoch(job, machine, overhead, false);
                }
                JobDecision::Suspend => {
                    // Injected suspend failure: the snapshot capture dies
                    // mid-flight, so no snapshot is stored and the job
                    // falls back to its previous one (or scratch).
                    let suspend_fails = self.core.suspend_fail_prob > 0.0 && {
                        self.core.fault_rng_draws += 1;
                        self.core.fault_rng.gen_range(0.0..1.0) < self.core.suspend_fail_prob
                    };
                    if suspend_fails {
                        self.core.stats.suspend_failures += 1;
                        self.core.interrupt(job, machine, true);
                    } else {
                        self.core.jm.begin_suspend(job).expect("running job suspends");
                        self.core.rng_draws += 1;
                        let mut cost =
                            self.core.workload.suspend.sample_suspend(&mut self.core.rng);
                        cost.latency += overhead;
                        self.core.charge(job, cost.latency);
                        self.core.db.record_suspend(SuspendEvent { job, requested_at: now, cost });
                        // Serialize the job's real training state (§5.1),
                        // padded toward the sampled framework/CRIU size (the
                        // sampled size is what telemetry reports; physical
                        // padding is capped so simulating multi-GB snapshot
                        // models does not exhaust host memory). Resume
                        // verifies the round trip.
                        const PAD_CAP: u64 = 4 * 1024 * 1024;
                        let snapshot = JobSnapshot::capture(
                            job,
                            epoch,
                            self.core.db.curve_ref(job).expect("stat recorded"),
                        );
                        let mut bytes = snapshot.encode(cost.snapshot_bytes.min(PAD_CAP) as usize);
                        // Injected corruption: flip the magic so the damage
                        // stays latent until a resume tries to decode it.
                        let corrupt = self.core.snapshot_corrupt_prob > 0.0 && {
                            self.core.fault_rng_draws += 1;
                            self.core.fault_rng.gen_range(0.0..1.0)
                                < self.core.snapshot_corrupt_prob
                        };
                        if corrupt {
                            bytes[0] ^= 0xFF;
                        }
                        self.core.db.store_snapshot(job, bytes);
                        self.core.snapshot_epochs.insert(job, epoch);
                        let token = self.core.issue_token(job);
                        self.core.pending.push(Command::Suspend {
                            job,
                            machine,
                            latency: cost.latency,
                            token,
                        });
                    }
                }
                JobDecision::Terminate => {
                    let held = self.core.jm.terminate_job(job).expect("running job terminates");
                    let m = held.expect("running job holds a machine");
                    self.core.rm.release_machine(m).expect("held machine releases");
                    self.core.record(SchedulerEvent::Terminated { job, machine: m, time: now });
                }
            }
        }
        // Machines may have freed; let the policy allocate.
        self.policy.allocate_jobs(&mut self.core);
    }

    fn on_suspend_done(&mut self, job: JobId) {
        let machine = self.core.jm.finish_suspend(job).expect("suspending job finishes");
        self.core.rm.release_machine(machine).expect("held machine releases");
        self.core.record(SchedulerEvent::Suspended { job, machine, time: self.core.now });
        self.policy.allocate_jobs(&mut self.core);
    }

    /// True once the experiment has stopped (goal reached or `Tmax`).
    pub fn stopped(&self) -> bool {
        self.core.stopped
    }

    /// Input records journaled so far (the crash-position coordinate of
    /// the kill-anywhere harness); zero when journaling is disabled.
    pub fn journaled_inputs(&self) -> u64 {
        self.core.journal.inputs_appended()
    }

    /// The engine's journal handle (cheap clone; disabled handles are
    /// inert). Executors keep one to recover after a simulated crash.
    pub fn journal(&self) -> Journal {
        self.core.journal.clone()
    }

    /// Seals the journal as *incomplete*: the run is being interrupted on
    /// purpose (the live executor's SIGTERM drain). Idempotent;
    /// [`into_result`](Self::into_result) re-seals completed runs.
    pub fn seal_journal(&mut self) {
        self.core.journal.seal(self.core.now, false);
    }

    /// Finalizes the run into a result at time `end_time`.
    pub fn into_result(self, end_time: SimTime) -> ExperimentResult {
        let mut core = self.core;
        core.journal.seal(end_time, true);
        core.stats.dead_machines_at_end = core.rm.dead_count() as u64;
        let outcomes = core
            .workload
            .jobs
            .iter()
            .map(|j| {
                let state = core.jm.state(j.job).expect("job registered");
                let end = match state {
                    JobState::Completed => JobEnd::Completed,
                    JobState::Terminated => JobEnd::Terminated,
                    JobState::Failed => JobEnd::Failed,
                    _ => JobEnd::Unfinished,
                };
                JobOutcome {
                    job: j.job,
                    epochs: core.jm.epochs_done(j.job).unwrap_or(0),
                    busy_time: SimTime::from_secs(core.busy_time[j.job.raw() as usize]),
                    best_value: core.db.curve_ref(j.job).and_then(|c| c.best()).unwrap_or(f64::NAN),
                    end,
                }
            })
            .collect();
        ExperimentResult {
            policy: self.policy.name().to_string(),
            fit_cache: self.policy.fit_cache_snapshot(),
            time_to_target: core.time_to_target,
            winner: core.winner,
            end_time,
            outcomes,
            suspend_events: core.db.suspend_events().to_vec(),
            milestones: core.milestones,
            events: core.log,
            total_epochs: core.total_epochs,
            faults: core.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DefaultPolicy;
    use hyperdrive_workload::CifarWorkload;

    /// Allocating forms of the engine's `*_into` entry points, for test
    /// brevity.
    trait Batches {
        fn start(&mut self) -> Vec<Command>;
        fn handle(&mut self, event: EngineEvent, now: SimTime) -> Vec<Command>;
        fn inject_machine_crash(&mut self, machine: MachineId, now: SimTime) -> Vec<Command>;
        fn inject_machine_recovery(&mut self, machine: MachineId, now: SimTime) -> Vec<Command>;
        fn inject_agent_stall(&mut self, machine: MachineId, now: SimTime) -> Vec<Command>;
    }

    impl Batches for ExperimentEngine<'_, '_> {
        fn start(&mut self) -> Vec<Command> {
            let mut out = Vec::new();
            self.start_into(&mut out);
            out
        }
        fn handle(&mut self, event: EngineEvent, now: SimTime) -> Vec<Command> {
            let mut out = Vec::new();
            self.handle_into(event, now, &mut out);
            out
        }
        fn inject_machine_crash(&mut self, machine: MachineId, now: SimTime) -> Vec<Command> {
            let mut out = Vec::new();
            self.inject_machine_crash_into(machine, now, &mut out);
            out
        }
        fn inject_machine_recovery(&mut self, machine: MachineId, now: SimTime) -> Vec<Command> {
            let mut out = Vec::new();
            self.inject_machine_recovery_into(machine, now, &mut out);
            out
        }
        fn inject_agent_stall(&mut self, machine: MachineId, now: SimTime) -> Vec<Command> {
            let mut out = Vec::new();
            self.inject_agent_stall_into(machine, now, &mut out);
            out
        }
    }

    fn tiny_workload(n: usize, epochs: u32) -> ExperimentWorkload {
        let w = CifarWorkload::new().with_max_epochs(epochs);
        ExperimentWorkload::from_workload(&w, n, 7)
    }

    #[test]
    fn start_fills_machines() {
        let ew = tiny_workload(5, 4);
        let mut policy = DefaultPolicy::new();
        let mut engine = ExperimentEngine::new(&mut policy, &ew, ExperimentSpec::new(3));
        let cmds = engine.start();
        let runs = cmds.iter().filter(|c| matches!(c, Command::RunEpoch { .. })).count();
        assert_eq!(runs, 3, "3 machines -> 3 initial epochs");
    }

    #[test]
    fn epoch_events_chain_until_completion() {
        let ew = tiny_workload(1, 3);
        let mut policy = DefaultPolicy::new();
        let spec = ExperimentSpec::new(1).with_stop_on_target(false);
        let mut engine = ExperimentEngine::new(&mut policy, &ew, spec);
        let mut cmds = engine.start();
        let mut now = SimTime::ZERO;
        let mut epochs_seen = 0;
        while let Some(Command::RunEpoch { job, duration, token, .. }) = cmds.first().copied() {
            now += duration;
            cmds = engine.handle(EngineEvent::EpochDone { job, token }, now);
            epochs_seen += 1;
            if epochs_seen > 10 {
                panic!("runaway");
            }
        }
        assert_eq!(epochs_seen, 3);
        let result = engine.into_result(now);
        assert_eq!(result.outcomes[0].end, JobEnd::Completed);
        assert_eq!(result.outcomes[0].epochs, 3);
        assert_eq!(result.total_epochs, 3);
        assert!(result.outcomes[0].busy_time > SimTime::ZERO);
    }

    #[test]
    fn tmax_stops_the_run() {
        let ew = tiny_workload(2, 100);
        let mut policy = DefaultPolicy::new();
        let spec =
            ExperimentSpec::new(1).with_tmax(SimTime::from_secs(1.0)).with_stop_on_target(false);
        let mut engine = ExperimentEngine::new(&mut policy, &ew, spec);
        let cmds = engine.start();
        let Command::RunEpoch { job, duration, token, .. } = cmds[0] else {
            panic!("expected RunEpoch");
        };
        let cmds = engine.handle(EngineEvent::EpochDone { job, token }, duration);
        assert!(cmds.contains(&Command::Stop), "past Tmax the engine stops");
        assert!(engine.stopped());
    }

    #[test]
    fn target_stops_the_run_and_records_winner() {
        // Force a trivially reachable target.
        let ew = tiny_workload(2, 50).with_target(0.0);
        let mut policy = DefaultPolicy::new();
        let mut engine = ExperimentEngine::new(&mut policy, &ew, ExperimentSpec::new(2));
        let cmds = engine.start();
        let Command::RunEpoch { job, duration, token, .. } = cmds[0] else {
            panic!("expected RunEpoch");
        };
        let cmds = engine.handle(EngineEvent::EpochDone { job, token }, duration);
        assert!(cmds.contains(&Command::Stop));
        let result = engine.into_result(duration);
        assert!(result.reached_target());
        assert_eq!(result.winner, Some(job));
    }

    /// Records the prefetch hints the engine delivers and the curve each
    /// decision actually sees; decisions stay `Continue`, except that a
    /// job is suspended once when it reaches `suspend_at`.
    #[derive(Default)]
    struct HintRecorder {
        boundary: Option<u32>,
        suspend_at: Option<u32>,
        suspended: Vec<JobId>,
        hints: Vec<(JobId, u32, Vec<hyperdrive_types::CurvePoint>)>,
        seen: Vec<(JobId, u32, Vec<hyperdrive_types::CurvePoint>)>,
    }
    impl SchedulingPolicy for HintRecorder {
        fn name(&self) -> &str {
            "hint-recorder"
        }
        fn on_iteration_finish(
            &mut self,
            event: &JobEvent,
            ctx: &mut dyn SchedulerContext,
        ) -> JobDecision {
            let curve = ctx.curve(event.job).expect("decided job has a curve");
            self.seen.push((event.job, event.epoch, curve.points().to_vec()));
            if self.suspend_at == Some(event.epoch) && !self.suspended.contains(&event.job) {
                self.suspended.push(event.job);
                return JobDecision::Suspend;
            }
            JobDecision::Continue
        }
        fn prefetch_boundary(&self, _default: u32) -> Option<u32> {
            self.boundary
        }
        fn prefetch_hint(&mut self, hint: &PrefetchHint, curve: &LearningCurve) {
            assert_eq!(curve.last_epoch(), Some(hint.epoch), "curve runs through the boundary");
            self.hints.push((hint.job, hint.epoch, curve.points().to_vec()));
        }
    }

    /// Runs `policy` to completion the way the simulator does: each
    /// command's completion is delivered at `issue time + duration`,
    /// earliest first (ties in issue order).
    fn drive_to_end(policy: &mut HintRecorder, ew: &ExperimentWorkload, machines: usize) {
        let spec = ExperimentSpec::new(machines).with_stop_on_target(false);
        let mut engine = ExperimentEngine::new(policy, ew, spec);
        let mut queue: Vec<(SimTime, EngineEvent)> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut cmds = engine.start();
        loop {
            for cmd in &cmds {
                match *cmd {
                    Command::RunEpoch { job, duration, token, .. } => {
                        queue.push((now + duration, EngineEvent::EpochDone { job, token }));
                    }
                    Command::Suspend { job, latency, token, .. } => {
                        queue.push((now + latency, EngineEvent::SuspendDone { job, token }));
                    }
                    Command::Stop => return,
                }
            }
            let Some(next) = (0..queue.len()).min_by(|&a, &b| queue[a].0.cmp(&queue[b].0)) else {
                return;
            };
            let (time, event) = queue.remove(next);
            now = time;
            cmds = engine.handle(event, now);
        }
    }

    /// Every hint's predicted curve must equal, bit for bit, the curve the
    /// boundary decision later sees.
    fn assert_hints_predict_boundaries(policy: &HintRecorder) {
        for (job, boundary, predicted) in &policy.hints {
            let seen = policy
                .seen
                .iter()
                .rev()
                .find(|(j, e, _)| j == job && e == boundary)
                .unwrap_or_else(|| panic!("{job:?} never decided at hinted boundary {boundary}"));
            assert_eq!(predicted.len(), seen.2.len(), "{job:?}@{boundary}");
            for (p, o) in predicted.iter().zip(&seen.2) {
                assert_eq!(p.epoch, o.epoch);
                assert_eq!(p.time.as_secs().to_bits(), o.time.as_secs().to_bits(), "time bits");
                assert_eq!(p.value.to_bits(), o.value.to_bits(), "value bits");
            }
        }
    }

    #[test]
    fn prefetch_hints_lead_each_window_with_the_boundary_curve() {
        // One job, b = 3, 7 epochs: windows (0, 3] and (3, 6] are hinted
        // when epochs 1 and 4 are issued; 9 >= max_epochs is never a
        // decision, so the last window is not hinted.
        let ew = tiny_workload(1, 7);
        let mut policy = HintRecorder { boundary: Some(3), ..Default::default() };
        drive_to_end(&mut policy, &ew, 1);
        let hinted: Vec<u32> = policy.hints.iter().map(|&(_, b, _)| b).collect();
        assert_eq!(hinted, vec![3, 6]);
        // The fresh job had no observation when its first hint fired: the
        // whole predicted curve comes from the profile.
        let (job, _, first) = &policy.hints[0];
        assert_eq!(first.len(), 3);
        for p in first {
            assert_eq!(p.value.to_bits(), ew.profile(*job).value_at(p.epoch).to_bits());
        }
        assert_hints_predict_boundaries(&policy);
    }

    #[test]
    fn resumed_jobs_are_hinted_at_their_window_start() {
        // Two jobs on one machine, each suspended once at its first
        // boundary: the resume (which pays a sampled resume latency on its
        // first epoch) starts window (3, 6] and must re-hint it.
        let ew = tiny_workload(2, 7);
        let mut policy =
            HintRecorder { boundary: Some(3), suspend_at: Some(3), ..Default::default() };
        drive_to_end(&mut policy, &ew, 1);
        assert_eq!(policy.suspended.len(), 2, "both jobs were suspended and resumed");
        for job in [JobId::new(0), JobId::new(1)] {
            let hinted: Vec<u32> =
                policy.hints.iter().filter(|h| h.0 == job).map(|&(_, b, _)| b).collect();
            assert_eq!(hinted, vec![3, 6], "{job:?}");
        }
        assert_hints_predict_boundaries(&policy);
    }

    #[test]
    fn boundary_at_u32_max_never_hints_or_overflows() {
        let ew = tiny_workload(2, 6);
        let mut policy = HintRecorder { boundary: Some(u32::MAX), ..Default::default() };
        drive_to_end(&mut policy, &ew, 1);
        assert!(policy.hints.is_empty());
        assert_eq!(policy.seen.len(), 2 * 5, "every non-final epoch was decided");
    }

    #[test]
    fn no_prefetch_boundary_means_no_hints() {
        let ew = tiny_workload(2, 6);
        let mut policy = HintRecorder::default();
        let spec = ExperimentSpec::new(1).with_stop_on_target(false);
        let mut engine = ExperimentEngine::new(&mut policy, &ew, spec);
        let mut cmds = engine.start();
        let mut now = SimTime::ZERO;
        while let Some(Command::RunEpoch { job, duration, token, .. }) = cmds.first().copied() {
            now += duration;
            cmds = engine.handle(EngineEvent::EpochDone { job, token }, now);
        }
        drop(engine);
        assert!(policy.hints.is_empty());
    }

    #[test]
    fn terminate_decision_frees_machine_for_next_job() {
        struct KillFirst;
        impl SchedulingPolicy for KillFirst {
            fn name(&self) -> &str {
                "kill-first"
            }
            fn on_iteration_finish(
                &mut self,
                _event: &JobEvent,
                _ctx: &mut dyn SchedulerContext,
            ) -> JobDecision {
                JobDecision::Terminate
            }
        }
        let ew = tiny_workload(3, 10);
        let mut policy = KillFirst;
        let spec = ExperimentSpec::new(1).with_stop_on_target(false);
        let mut engine = ExperimentEngine::new(&mut policy, &ew, spec);
        let cmds = engine.start();
        let Command::RunEpoch { job, duration, token, .. } = cmds[0] else {
            panic!("expected RunEpoch");
        };
        let cmds = engine.handle(EngineEvent::EpochDone { job, token }, duration);
        // The killed job's machine immediately hosts the next idle job.
        assert!(matches!(cmds[0], Command::RunEpoch { job: j, .. } if j != job));
    }

    #[test]
    fn suspend_decision_issues_suspend_then_requeues() {
        struct SuspendAlways;
        impl SchedulingPolicy for SuspendAlways {
            fn name(&self) -> &str {
                "suspend-always"
            }
            fn on_iteration_finish(
                &mut self,
                _event: &JobEvent,
                _ctx: &mut dyn SchedulerContext,
            ) -> JobDecision {
                JobDecision::Suspend
            }
        }
        let ew = tiny_workload(2, 10);
        let mut policy = SuspendAlways;
        let spec = ExperimentSpec::new(1).with_stop_on_target(false);
        let mut engine = ExperimentEngine::new(&mut policy, &ew, spec);
        let cmds = engine.start();
        let Command::RunEpoch { job: job0, duration, token, .. } = cmds[0] else {
            panic!("expected RunEpoch");
        };
        let mut now = duration;
        let cmds = engine.handle(EngineEvent::EpochDone { job: job0, token }, now);
        let Command::Suspend { job, latency, token, .. } = cmds[0] else {
            panic!("expected Suspend, got {cmds:?}");
        };
        assert_eq!(job, job0);
        now += latency;
        let cmds = engine.handle(EngineEvent::SuspendDone { job: job0, token }, now);
        // Machine freed; the *other* job (FIFO) starts next.
        let Command::RunEpoch { job: next, .. } = cmds[0] else {
            panic!("expected RunEpoch, got {cmds:?}");
        };
        assert_ne!(next, job0, "round-robin: suspended job goes to the back");
        let result = engine.into_result(now);
        assert_eq!(result.suspend_events.len(), 1);
        assert!(result.suspend_events[0].cost.latency > SimTime::ZERO);
    }

    #[test]
    fn dynamic_target_records_milestones_and_keeps_running() {
        // Every job exceeds a 0.01 target immediately; with a large
        // increment the target climbs past 1.0 after a few milestones.
        let ew = tiny_workload(2, 30).with_target(0.01);
        let mut policy = DefaultPolicy::new();
        let spec = ExperimentSpec::new(1).with_dynamic_target(0.02);
        let mut engine = ExperimentEngine::new(&mut policy, &ew, spec);
        let mut cmds = engine.start();
        let mut now = SimTime::ZERO;
        let mut guard = 0;
        while !cmds.iter().any(|c| matches!(c, Command::Stop)) {
            let Some(Command::RunEpoch { job, duration, token, .. }) = cmds.first().copied() else {
                break;
            };
            now += duration;
            cmds = engine.handle(EngineEvent::EpochDone { job, token }, now);
            guard += 1;
            assert!(guard < 500, "runaway dynamic-target loop");
        }
        let result = engine.into_result(now);
        assert!(result.milestones.len() >= 2, "multiple targets reached");
        assert!(result.milestones[0].target < result.milestones[1].target);
        assert!(
            result.milestones.windows(2).all(|w| w[0].time <= w[1].time),
            "milestones in time order"
        );
        assert_eq!(
            result.time_to_target,
            Some(result.milestones[0].time),
            "time-to-target is the first milestone"
        );
    }

    #[test]
    fn plain_stop_records_single_milestone() {
        let ew = tiny_workload(2, 30).with_target(0.0);
        let mut policy = DefaultPolicy::new();
        let mut engine = ExperimentEngine::new(&mut policy, &ew, ExperimentSpec::new(1));
        let cmds = engine.start();
        let Command::RunEpoch { job, duration, token, .. } = cmds[0] else {
            panic!("expected RunEpoch");
        };
        engine.handle(EngineEvent::EpochDone { job, token }, duration);
        let result = engine.into_result(duration);
        assert_eq!(result.milestones.len(), 1);
        assert!(result.reached_target());
    }

    #[test]
    fn events_after_stop_are_ignored() {
        let ew = tiny_workload(1, 5).with_target(0.0);
        let mut policy = DefaultPolicy::new();
        let mut engine = ExperimentEngine::new(&mut policy, &ew, ExperimentSpec::new(1));
        let cmds = engine.start();
        let Command::RunEpoch { job, duration, token, .. } = cmds[0] else {
            panic!("expected RunEpoch");
        };
        engine.handle(EngineEvent::EpochDone { job, token }, duration);
        assert!(engine.stopped());
        let cmds = engine.handle(EngineEvent::EpochDone { job, token }, duration);
        assert!(cmds.is_empty());
    }

    #[test]
    fn stale_tokens_are_dropped() {
        let ew = tiny_workload(2, 10);
        let mut policy = DefaultPolicy::new();
        let spec = ExperimentSpec::new(2).with_stop_on_target(false);
        let mut engine = ExperimentEngine::new(&mut policy, &ew, spec);
        let cmds = engine.start();
        let Command::RunEpoch { job, machine, duration, token, .. } = cmds[0] else {
            panic!("expected RunEpoch");
        };
        // A stall invalidates the in-flight token; the late reply from the
        // wedged agent must not be double-counted.
        let followups = engine.inject_agent_stall(machine, SimTime::from_secs(1.0));
        assert!(
            followups.iter().any(|c| matches!(c, Command::RunEpoch { job: j, .. } if *j == job)),
            "interrupted job reschedules, got {followups:?}"
        );
        let stale = engine.handle(EngineEvent::EpochDone { job, token }, duration);
        assert!(stale.is_empty(), "stale completion is dropped");
        let result = engine.into_result(duration);
        assert_eq!(result.faults.agent_stalls, 1);
        assert_eq!(result.faults.interruptions, 1);
        assert_eq!(result.faults.lost_epochs, 0, "no epoch had completed, so none were lost");
    }

    #[test]
    fn machine_crash_interrupts_and_recovery_restores_capacity() {
        let ew = tiny_workload(1, 10);
        let mut policy = DefaultPolicy::new();
        let spec = ExperimentSpec::new(1).with_stop_on_target(false);
        let mut engine = ExperimentEngine::new(&mut policy, &ew, spec);
        let cmds = engine.start();
        let Command::RunEpoch { job, machine, .. } = cmds[0] else {
            panic!("expected RunEpoch");
        };
        // Crash the only machine: the job is interrupted but nothing can
        // restart it until the machine recovers.
        let cmds = engine.inject_machine_crash(machine, SimTime::from_secs(5.0));
        assert!(cmds.is_empty(), "no capacity left, got {cmds:?}");
        assert_eq!(engine.active_job_count(), 1, "job waits in the idle queue");
        // Double crash is a no-op.
        assert!(engine.inject_machine_crash(machine, SimTime::from_secs(6.0)).is_empty());
        // Recovery restarts the job from scratch (no snapshot existed).
        let cmds = engine.inject_machine_recovery(machine, SimTime::from_secs(60.0));
        assert!(
            cmds.iter()
                .any(|c| matches!(c, Command::RunEpoch { job: j, epoch: 1, .. } if *j == job)),
            "job restarts at epoch 1, got {cmds:?}"
        );
        let result = engine.into_result(SimTime::from_secs(60.0));
        assert_eq!(result.faults.machine_crashes, 1);
        assert_eq!(result.faults.machine_recoveries, 1);
        assert_eq!(result.faults.dead_machines_at_end, 0);
    }

    #[test]
    fn retry_exhaustion_fails_the_job() {
        let ew = tiny_workload(1, 10);
        let mut policy = DefaultPolicy::new();
        let spec = ExperimentSpec::new(1).with_stop_on_target(false);
        let mut plan = FaultPlan::none();
        plan.retry = RetryPolicy { max_retries: 1, ..RetryPolicy::default() };
        let mut engine = ExperimentEngine::with_fault_injection(&mut policy, &ew, spec, &plan);
        let cmds = engine.start();
        let Command::RunEpoch { machine, .. } = cmds[0] else {
            panic!("expected RunEpoch");
        };
        // First stall: retry 1 of 1, job reschedules.
        let cmds = engine.inject_agent_stall(machine, SimTime::from_secs(1.0));
        assert!(cmds.iter().any(|c| matches!(c, Command::RunEpoch { .. })));
        // Second stall: budget exhausted, job fails, nothing reschedules.
        let cmds = engine.inject_agent_stall(machine, SimTime::from_secs(2.0));
        assert!(
            !cmds.iter().any(|c| matches!(c, Command::RunEpoch { .. })),
            "failed job must not reschedule, got {cmds:?}"
        );
        assert_eq!(engine.active_job_count(), 0);
        let result = engine.into_result(SimTime::from_secs(2.0));
        assert_eq!(result.outcomes[0].end, JobEnd::Failed);
        assert_eq!(result.failed_jobs(), 1);
        assert_eq!(result.faults.failed_jobs, 1);
    }

    #[test]
    fn corrupted_snapshot_restarts_from_scratch() {
        struct SuspendOnce {
            suspended: bool,
        }
        impl SchedulingPolicy for SuspendOnce {
            fn name(&self) -> &str {
                "suspend-once"
            }
            fn on_iteration_finish(
                &mut self,
                _event: &JobEvent,
                _ctx: &mut dyn SchedulerContext,
            ) -> JobDecision {
                if self.suspended {
                    JobDecision::Continue
                } else {
                    self.suspended = true;
                    JobDecision::Suspend
                }
            }
        }
        let ew = tiny_workload(1, 5);
        let mut policy = SuspendOnce { suspended: false };
        let spec = ExperimentSpec::new(1).with_stop_on_target(false);
        let mut plan = FaultPlan::none();
        plan.snapshot_corrupt_prob = 1.0; // every stored snapshot is damaged
        let mut engine = ExperimentEngine::with_fault_injection(&mut policy, &ew, spec, &plan);
        let mut cmds = engine.start();
        let mut now = SimTime::ZERO;
        let mut guard = 0;
        while let Some(cmd) = cmds.first().copied() {
            let event = match cmd {
                Command::RunEpoch { job, duration, token, .. } => {
                    now += duration;
                    EngineEvent::EpochDone { job, token }
                }
                Command::Suspend { job, latency, token, .. } => {
                    now += latency;
                    EngineEvent::SuspendDone { job, token }
                }
                Command::Stop => break,
            };
            cmds = engine.handle(event, now);
            guard += 1;
            assert!(guard < 50, "runaway");
        }
        let result = engine.into_result(now);
        assert_eq!(result.faults.snapshot_corruptions, 1);
        assert_eq!(result.faults.lost_epochs, 1, "the pre-suspend epoch re-ran");
        assert_eq!(result.outcomes[0].end, JobEnd::Completed, "job still finishes");
        assert_eq!(result.outcomes[0].epochs, 5);
        assert_eq!(
            result.total_epochs,
            u64::from(result.outcomes[0].epochs) + result.faults.lost_epochs,
            "lost-epoch accounting holds"
        );
        assert!(
            result
                .events
                .events()
                .iter()
                .any(|e| matches!(e, SchedulerEvent::SnapshotCorrupted { .. })),
            "corruption is logged"
        );
    }

    #[test]
    fn suspend_failure_rolls_back_without_snapshot() {
        struct SuspendAlways;
        impl SchedulingPolicy for SuspendAlways {
            fn name(&self) -> &str {
                "suspend-always"
            }
            fn on_iteration_finish(
                &mut self,
                _event: &JobEvent,
                _ctx: &mut dyn SchedulerContext,
            ) -> JobDecision {
                JobDecision::Suspend
            }
        }
        let ew = tiny_workload(1, 5);
        let mut policy = SuspendAlways;
        let spec = ExperimentSpec::new(1).with_stop_on_target(false);
        let mut plan = FaultPlan::none();
        plan.suspend_fail_prob = 1.0; // every suspend dies mid-capture
        plan.retry = RetryPolicy { max_retries: 0, ..RetryPolicy::default() };
        let mut engine = ExperimentEngine::with_fault_injection(&mut policy, &ew, spec, &plan);
        let cmds = engine.start();
        let Command::RunEpoch { job, duration, token, .. } = cmds[0] else {
            panic!("expected RunEpoch");
        };
        let cmds = engine.handle(EngineEvent::EpochDone { job, token }, duration);
        assert!(
            !cmds.iter().any(|c| matches!(c, Command::Suspend { .. })),
            "failed suspend issues no Suspend command, got {cmds:?}"
        );
        let result = engine.into_result(duration);
        assert_eq!(result.faults.suspend_failures, 1);
        assert_eq!(result.outcomes[0].end, JobEnd::Failed, "zero retries allowed");
        assert_eq!(result.faults.lost_epochs, 1, "the completed epoch rolled back");
    }
}
