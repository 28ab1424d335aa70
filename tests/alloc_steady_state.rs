//! Counting-allocator pin for the discrete-event spine: once every job has
//! started and recorded its first statistic, stepping the simulator
//! performs **zero heap allocations per event** — the non-fit analogue of
//! the existing 0-allocs/MCMC-step pin on the fit hot path.
//!
//! The pin runs the steady-state loop three ways: under the default FIFO
//! policy, and under full POP with its fit service at 1 and at 4 worker
//! threads (the policy's boundary is pushed past the epoch cap so the loop
//! stays on the non-fit path — boundary fits allocate by design and have
//! their own benches). Every reservation in the chain is exercised: the
//! engine's pre-sized command buffer, event log, curve maps, and
//! outstanding-token table; the stepper's pre-sized future-event heap; and
//! the O(log n) ResourceManager free-set, which never allocates after
//! construction.
//!
//! Only the measuring thread's allocations count: the counter is a
//! thread-local that the test thread arms around the measured stretch, so
//! fit-pool workers starting up or sibling tests running concurrently
//! cannot land in the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hyperdrive_core::{PopConfig, PopPolicy};
use hyperdrive_curve::PredictorConfig;
use hyperdrive_framework::{DefaultPolicy, ExperimentSpec, ExperimentWorkload, SchedulingPolicy};
use hyperdrive_sim::Simulation;
use hyperdrive_workload::CifarWorkload;

/// Counts allocation events (alloc + realloc) made by a thread while it
/// has armed its counter.
struct CountingAlloc;

thread_local! {
    // `const` initialisers with no destructor: reading them from inside
    // the allocator never allocates.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with` tolerates allocations during thread teardown.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            ALLOC_EVENTS.with(|n| n.set(n.get() + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's counter armed and returns how many
/// allocation events it made.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOC_EVENTS.with(|n| n.set(0));
    ARMED.with(|armed| armed.set(true));
    let out = f();
    ARMED.with(|armed| armed.set(false));
    (ALLOC_EVENTS.with(Cell::get), out)
}

const JOBS: usize = 8;
const EPOCHS: u32 = 50;

/// Drives one full-cluster run (jobs == machines, so every job starts at
/// t=0 and steady state begins after the first wave of epoch completions)
/// and returns `(alloc_events, events_measured)` over the post-warmup
/// stretch.
fn steady_state_allocs(policy: &mut dyn SchedulingPolicy) -> (u64, u64) {
    let w = CifarWorkload::new().with_max_epochs(EPOCHS);
    let ew = ExperimentWorkload::from_workload(&w, JOBS, 11);
    let spec = ExperimentSpec::new(JOBS).with_seed(7).with_stop_on_target(false);
    let mut sim = Simulation::new(policy, &ew, spec);
    // Warmup: the first two epochs of every job cover each job's first
    // `record_stat` (which creates its pre-sized curve) and warm the
    // reusable command buffer to the largest batch.
    for _ in 0..2 * JOBS {
        sim.step().expect("workload outlasts warmup");
    }
    count_allocs(|| {
        let mut measured = 0u64;
        while sim.step().is_some() {
            measured += 1;
        }
        measured
    })
}

#[test]
fn steady_state_event_loop_is_allocation_free() {
    // Journaling is pure output but not free: CI runs the suite with
    // HYPERDRIVE_JOURNAL=on, and journal appends allocate. This pin is
    // about the engine loop itself, so measure without a journal.
    std::env::remove_var("HYPERDRIVE_JOURNAL");

    // The default FIFO policy: the bare engine + stepper path.
    let mut default_policy = DefaultPolicy::new();
    let (allocs, events) = steady_state_allocs(&mut default_policy);
    assert!(events > u64::from(EPOCHS), "measured a real steady-state stretch ({events} events)");
    assert_eq!(allocs, 0, "default policy: {allocs} allocs over {events} steady-state events");

    // Full POP with a live fit service at 1 and 4 worker threads. The
    // boundary sits past the epoch cap so no fit point is ever reached:
    // this is the per-event policy path (early boundary check, decision
    // plumbing, allocate_jobs) with the whole fit stack instantiated.
    for fit_threads in [1usize, 4] {
        let mut pop = PopPolicy::with_config(PopConfig {
            predictor: PredictorConfig::test(),
            boundary: Some(u32::MAX),
            fit_threads,
            ..Default::default()
        });
        let (allocs, events) = steady_state_allocs(&mut pop);
        assert!(events > u64::from(EPOCHS), "measured a real stretch ({events} events)");
        assert_eq!(
            allocs, 0,
            "POP ({fit_threads} fit threads): {allocs} allocs over {events} steady-state events"
        );
    }
}
