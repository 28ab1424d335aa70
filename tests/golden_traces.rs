//! Golden-trace regression tests for POP scheduling decisions.
//!
//! Two canonical experiments — a CIFAR accuracy surface and a Lunar Lander
//! reward surface — run under POP in the simulator, and their complete
//! scheduling traces (every start/resume, suspend, kill, completion, plus
//! the per-boundary classification snapshots) are compared **byte for
//! byte** against committed golden files, at both 1 and 4 fit-service
//! worker threads.
//!
//! These traces lock in the whole deterministic stack at once: curve-fit
//! seed derivation, fit caching, batch request ordering, slot allocation,
//! and engine event ordering. Any change that moves a single decision or
//! reorders a single event shows up as a diff here.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! HYPERDRIVE_UPDATE_GOLDEN=1 cargo test --test golden_traces
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use hyperdrive_core::{PopConfig, PopPolicy};
use hyperdrive_curve::{PredictorConfig, SharedFitCache};
use hyperdrive_framework::{ExperimentSpec, ExperimentWorkload};
use hyperdrive_sim::run_sim;
use hyperdrive_types::SimTime;
use hyperdrive_workload::{CifarWorkload, LunarWorkload, Workload};

/// Runs one canonical experiment and renders its full decision trace.
fn trace(
    workload: &dyn Workload,
    configs: usize,
    seed: u64,
    machines: usize,
    tmax: SimTime,
    fit_threads: usize,
) -> String {
    trace_with(workload, configs, seed, machines, tmax, fit_threads, false, false, false)
}

/// [`trace`] with explicit warm-start, fast-math, and batch-fit switches.
#[allow(clippy::too_many_arguments)]
fn trace_with(
    workload: &dyn Workload,
    configs: usize,
    seed: u64,
    machines: usize,
    tmax: SimTime,
    fit_threads: usize,
    warm_start: bool,
    fast_math: bool,
    batch_fit: bool,
) -> String {
    trace_cached(
        workload,
        configs,
        seed,
        machines,
        tmax,
        fit_threads,
        warm_start,
        fast_math,
        batch_fit,
        None,
    )
    .0
}

/// [`trace_with`] with speculative fit prefetch explicitly on or off,
/// against a fresh in-memory shared fit cache owned by this run alone:
/// whatever process-global cache `HYPERDRIVE_FIT_CACHE` selects (a warmed
/// disk cache answers every fit, leaving nothing to speculate), this run
/// fits cold. Asserts that speculation engaged exactly when it is on.
#[allow(clippy::too_many_arguments)]
fn trace_prefetch(
    workload: &dyn Workload,
    configs: usize,
    seed: u64,
    machines: usize,
    tmax: SimTime,
    fit_threads: usize,
    warm_start: bool,
    fast_math: bool,
    batch_fit: bool,
    prefetch: bool,
) -> String {
    let ew = ExperimentWorkload::from_workload(workload, configs, seed);
    let spec = ExperimentSpec::new(machines).with_stop_on_target(false).with_tmax(tmax);
    let config = PopConfig {
        predictor: PredictorConfig::test()
            .with_warm_start(warm_start)
            .with_fast_math(fast_math)
            .with_batch_fit(batch_fit),
        fit_threads,
        seed,
        fit_prefetch: prefetch,
        ..Default::default()
    };
    let mut pop = PopPolicy::with_config_and_cache(config, Some(SharedFitCache::in_memory()));
    let result = run_sim(&mut pop, &ew, spec);
    let speculated = pop.spec_stats().speculated;
    if prefetch {
        assert!(
            speculated > 0,
            "prefetch never engaged — the equivalence assertion would be vacuous"
        );
    } else {
        assert_eq!(speculated, 0, "prefetch off must not speculate");
    }

    let mut csv = Vec::new();
    result.events.write_csv(&mut csv).expect("event log serializes");
    let mut out = String::from_utf8(csv).expect("csv is utf-8");
    out.push_str("decision,now_s,active,promising,running,promising_running,p_star,slots\n");
    for s in pop.timeline() {
        writeln!(
            out,
            "decision,{:.3},{},{},{},{},{:.6},{}",
            s.now.as_secs(),
            s.active_jobs,
            s.promising_jobs,
            s.running_jobs,
            s.promising_running,
            s.p_threshold,
            s.promising_slots,
        )
        .expect("string write");
    }
    writeln!(
        out,
        "end,{:.3},total_epochs={},terminated_early={}",
        result.end_time.as_secs(),
        result.total_epochs,
        result.terminated_early(),
    )
    .expect("string write");
    out
}

/// [`trace_with`] against an explicit shared content-addressed fit cache
/// (`None` = the default process-global resolution). Also returns the
/// policy's `predictions_made` counter so callers can pin that caching
/// changes *where posteriors come from*, never *how many are consumed*.
#[allow(clippy::too_many_arguments)]
fn trace_cached(
    workload: &dyn Workload,
    configs: usize,
    seed: u64,
    machines: usize,
    tmax: SimTime,
    fit_threads: usize,
    warm_start: bool,
    fast_math: bool,
    batch_fit: bool,
    cache: Option<Arc<SharedFitCache>>,
) -> (String, u64) {
    let ew = ExperimentWorkload::from_workload(workload, configs, seed);
    let spec = ExperimentSpec::new(machines).with_stop_on_target(false).with_tmax(tmax);
    let config = PopConfig {
        predictor: PredictorConfig::test()
            .with_warm_start(warm_start)
            .with_fast_math(fast_math)
            .with_batch_fit(batch_fit),
        fit_threads,
        seed,
        ..Default::default()
    };
    let mut pop = match cache {
        Some(c) => PopPolicy::with_config_and_cache(config, Some(c)),
        None => PopPolicy::with_config(config),
    };
    let result = run_sim(&mut pop, &ew, spec);

    let mut csv = Vec::new();
    result.events.write_csv(&mut csv).expect("event log serializes");
    let mut out = String::from_utf8(csv).expect("csv is utf-8");
    out.push_str("decision,now_s,active,promising,running,promising_running,p_star,slots\n");
    for s in pop.timeline() {
        writeln!(
            out,
            "decision,{:.3},{},{},{},{},{:.6},{}",
            s.now.as_secs(),
            s.active_jobs,
            s.promising_jobs,
            s.running_jobs,
            s.promising_running,
            s.p_threshold,
            s.promising_slots,
        )
        .expect("string write");
    }
    writeln!(
        out,
        "end,{:.3},total_epochs={},terminated_early={}",
        result.end_time.as_secs(),
        result.total_epochs,
        result.terminated_early(),
    )
    .expect("string write");
    (out, pop.predictions_made())
}

/// Asserts thread-count invariance, then compares against the committed
/// golden file (or rewrites it under `HYPERDRIVE_UPDATE_GOLDEN=1`).
fn check_golden(name: &str, build: impl Fn(usize) -> String) {
    let single = build(1);
    let quad = build(4);
    assert_eq!(single, quad, "{name}: fit-pool width leaked into the scheduling trace");

    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name].iter().collect();
    if std::env::var("HYPERDRIVE_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &single).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {path:?} ({e}); generate it with \
             HYPERDRIVE_UPDATE_GOLDEN=1 cargo test --test golden_traces"
        )
    });
    assert_eq!(
        single, expected,
        "{name}: trace diverged from the committed golden; if the behaviour \
         change is intentional, regenerate with HYPERDRIVE_UPDATE_GOLDEN=1"
    );
}

#[test]
fn cifar_surface_trace_is_golden() {
    let workload = CifarWorkload::new().with_max_epochs(40);
    check_golden("cifar_trace.csv", |threads| {
        trace(&workload, 12, 7, 4, SimTime::from_hours(48.0), threads)
    });
}

#[test]
fn lunar_surface_trace_is_golden() {
    let workload = LunarWorkload::new().with_max_blocks(60);
    check_golden("lunar_trace.csv", |threads| {
        trace(&workload, 10, 11, 3, SimTime::from_hours(200.0), threads)
    });
}

// Warm-started posteriors change the numerics on purpose (shorter,
// seeded chains), so the warm path gets its *own* golden traces — also
// locked at 1 and 4 fit threads, pinning that the warm source resolution
// never depends on worker scheduling.

#[test]
fn cifar_surface_warm_trace_is_golden() {
    let workload = CifarWorkload::new().with_max_epochs(40);
    check_golden("cifar_warm_trace.csv", |threads| {
        trace_with(&workload, 12, 7, 4, SimTime::from_hours(48.0), threads, true, false, false)
    });
}

#[test]
fn lunar_surface_warm_trace_is_golden() {
    let workload = LunarWorkload::new().with_max_blocks(60);
    check_golden("lunar_warm_trace.csv", |threads| {
        trace_with(&workload, 10, 11, 3, SimTime::from_hours(200.0), threads, true, false, false)
    });
}

// The vectorized likelihood path (`fast_math`) evaluates the same model
// through batched kernels with a different (deterministic) floating-point
// factoring, so like warm start it gets its own goldens — again at 1 and
// 4 fit threads, and regardless of `HYPERDRIVE_VMATH` (the backends are
// bit-identical, which these traces re-pin end to end).

#[test]
fn cifar_surface_fast_trace_is_golden() {
    let workload = CifarWorkload::new().with_max_epochs(40);
    check_golden("cifar_fast_trace.csv", |threads| {
        trace_with(&workload, 12, 7, 4, SimTime::from_hours(48.0), threads, false, true, false)
    });
}

#[test]
fn lunar_surface_fast_trace_is_golden() {
    let workload = LunarWorkload::new().with_max_blocks(60);
    check_golden("lunar_fast_trace.csv", |threads| {
        trace_with(&workload, 10, 11, 3, SimTime::from_hours(200.0), threads, false, true, false)
    });
}

// fast_math composes with warm start: warm refits rescore previous draws
// and reseed family fits through the batched kernels. The combination is
// its own numeric regime, so it is pinned separately too.

#[test]
fn cifar_surface_fast_warm_trace_is_golden() {
    let workload = CifarWorkload::new().with_max_epochs(40);
    check_golden("cifar_fast_warm_trace.csv", |threads| {
        trace_with(&workload, 12, 7, 4, SimTime::from_hours(48.0), threads, true, true, false)
    });
}

#[test]
fn lunar_surface_fast_warm_trace_is_golden() {
    let workload = LunarWorkload::new().with_max_blocks(60);
    check_golden("lunar_fast_warm_trace.csv", |threads| {
        trace_with(&workload, 10, 11, 3, SimTime::from_hours(200.0), threads, true, true, false)
    });
}

// Cross-curve batched fitting (`batch_fit`) is *supposed* to be bitwise
// invisible — a pure-speed rearrangement of the fast-math path — but it
// still gets its own committed goldens so the batched scheduling pipeline
// (batch formation, chunking across workers, reply collection) is pinned
// end to end at 1 and 4 fit threads. A separate test below then closes
// the loop by asserting the batch goldens are byte-identical to the
// `_fast` goldens.

#[test]
fn cifar_surface_batch_trace_is_golden() {
    let workload = CifarWorkload::new().with_max_epochs(40);
    check_golden("cifar_batch_trace.csv", |threads| {
        trace_with(&workload, 12, 7, 4, SimTime::from_hours(48.0), threads, false, true, true)
    });
}

#[test]
fn lunar_surface_batch_trace_is_golden() {
    let workload = LunarWorkload::new().with_max_blocks(60);
    check_golden("lunar_batch_trace.csv", |threads| {
        trace_with(&workload, 10, 11, 3, SimTime::from_hours(200.0), threads, false, true, true)
    });
}

#[test]
fn batch_goldens_are_byte_identical_to_fast_goldens() {
    // The determinism claim in one assertion: turning batching on under
    // fast math must not move a single byte of the committed trace.
    if std::env::var("HYPERDRIVE_UPDATE_GOLDEN").is_ok() {
        return; // files are mid-rewrite by sibling tests in update mode
    }
    for (batch, fast) in [
        ("cifar_batch_trace.csv", "cifar_fast_trace.csv"),
        ("lunar_batch_trace.csv", "lunar_fast_trace.csv"),
    ] {
        let read = |name: &str| -> String {
            let path: PathBuf =
                [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name].iter().collect();
            std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e})"))
        };
        assert_eq!(read(batch), read(fast), "{batch}: batching moved the committed trace");
    }
}

// Replaying every *existing* golden with `batch_fit` forced on proves the
// default traces are untouched by batching: warm-started refits and
// non-fast-math fits bypass the lockstep path by design, and the cold
// fast-math fits it does capture are bitwise identical, so all eight
// traces must come out byte-for-byte unchanged.

#[test]
fn existing_goldens_are_untouched_by_batch_fit() {
    if std::env::var("HYPERDRIVE_UPDATE_GOLDEN").is_ok() {
        return; // the per-trace tests above own regeneration
    }
    let cifar = CifarWorkload::new().with_max_epochs(40);
    let lunar = LunarWorkload::new().with_max_blocks(60);
    let cifar_t = SimTime::from_hours(48.0);
    let lunar_t = SimTime::from_hours(200.0);
    type Case<'a> = (&'a str, &'a dyn Workload, usize, u64, usize, SimTime, bool, bool);
    let cases: [Case; 8] = [
        ("cifar_trace.csv", &cifar, 12, 7, 4, cifar_t, false, false),
        ("cifar_warm_trace.csv", &cifar, 12, 7, 4, cifar_t, true, false),
        ("cifar_fast_trace.csv", &cifar, 12, 7, 4, cifar_t, false, true),
        ("cifar_fast_warm_trace.csv", &cifar, 12, 7, 4, cifar_t, true, true),
        ("lunar_trace.csv", &lunar, 10, 11, 3, lunar_t, false, false),
        ("lunar_warm_trace.csv", &lunar, 10, 11, 3, lunar_t, true, false),
        ("lunar_fast_trace.csv", &lunar, 10, 11, 3, lunar_t, false, true),
        ("lunar_fast_warm_trace.csv", &lunar, 10, 11, 3, lunar_t, true, true),
    ];
    for (name, w, configs, seed, machines, tmax, warm, fast) in cases {
        let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name].iter().collect();
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e})"));
        let replay = trace_with(w, configs, seed, machines, tmax, 1, warm, fast, true);
        assert_eq!(replay, golden, "{name}: batch_fit=on moved the default trace");
    }
}

// Speculative fit prefetch is the same kind of claim as batch_fit —
// bitwise invisible, pure overlap. Prefetch is on by default, so every
// existing golden is replayed both ways: on, at BOTH 1 and 4 fit threads
// (overlap only pays off with spare workers, and worker count must never
// leak into traces), and off, the path a tenant over its speculation
// budget takes in the server.

/// The eight goldens both prefetch replays cover.
type PrefetchCase<'a> = (&'a str, &'a dyn Workload, usize, u64, usize, SimTime, bool, bool, bool);

fn replay_goldens_with_prefetch(prefetch: bool, threads: &[usize]) {
    let cifar = CifarWorkload::new().with_max_epochs(40);
    let lunar = LunarWorkload::new().with_max_blocks(60);
    let cifar_t = SimTime::from_hours(48.0);
    let lunar_t = SimTime::from_hours(200.0);
    let cases: [PrefetchCase; 8] = [
        ("cifar_trace.csv", &cifar, 12, 7, 4, cifar_t, false, false, false),
        ("cifar_warm_trace.csv", &cifar, 12, 7, 4, cifar_t, true, false, false),
        ("cifar_fast_trace.csv", &cifar, 12, 7, 4, cifar_t, false, true, false),
        ("cifar_batch_trace.csv", &cifar, 12, 7, 4, cifar_t, false, true, true),
        ("lunar_trace.csv", &lunar, 10, 11, 3, lunar_t, false, false, false),
        ("lunar_warm_trace.csv", &lunar, 10, 11, 3, lunar_t, true, false, false),
        ("lunar_fast_trace.csv", &lunar, 10, 11, 3, lunar_t, false, true, false),
        ("lunar_batch_trace.csv", &lunar, 10, 11, 3, lunar_t, false, true, true),
    ];
    for (name, w, configs, seed, machines, tmax, warm, fast, batch) in cases {
        let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name].iter().collect();
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e})"));
        for &threads in threads {
            let replay = trace_prefetch(
                w, configs, seed, machines, tmax, threads, warm, fast, batch, prefetch,
            );
            assert_eq!(
                replay, golden,
                "{name}: fit_prefetch={prefetch} moved the trace at {threads} fit threads"
            );
        }
    }
}

#[test]
fn existing_goldens_are_untouched_by_fit_prefetch() {
    if std::env::var("HYPERDRIVE_UPDATE_GOLDEN").is_ok() {
        return; // the per-trace tests above own regeneration
    }
    replay_goldens_with_prefetch(true, &[1, 4]);
}

#[test]
fn existing_goldens_are_untouched_with_fit_prefetch_off() {
    if std::env::var("HYPERDRIVE_UPDATE_GOLDEN").is_ok() {
        return; // the per-trace tests above own regeneration
    }
    replay_goldens_with_prefetch(false, &[1]);
}

// The shared content-addressed fit cache must be *pure speed*: every one
// of the eight golden traces has to come out byte-identical whether fits
// run cold (the tests above), replay from a warmed in-memory cache, or
// replay from a pre-populated disk store — at 1 and 4 fit threads. This
// is the end-to-end pin on the fingerprint closure: if the key missed
// anything the scheduler can see, a stale posterior would move a decision
// and diff against the committed golden here.

#[test]
fn golden_traces_are_invariant_under_shared_fit_cache_modes() {
    if std::env::var("HYPERDRIVE_UPDATE_GOLDEN").is_ok() {
        return; // the per-trace tests above own regeneration
    }
    let cifar = CifarWorkload::new().with_max_epochs(40);
    let lunar = LunarWorkload::new().with_max_blocks(60);
    let cifar_t = SimTime::from_hours(48.0);
    let lunar_t = SimTime::from_hours(200.0);
    type Case<'a> = (&'a str, &'a dyn Workload, usize, u64, usize, SimTime, bool, bool);
    let cases: [Case; 8] = [
        ("cifar_trace.csv", &cifar, 12, 7, 4, cifar_t, false, false),
        ("cifar_warm_trace.csv", &cifar, 12, 7, 4, cifar_t, true, false),
        ("cifar_fast_trace.csv", &cifar, 12, 7, 4, cifar_t, false, true),
        ("cifar_fast_warm_trace.csv", &cifar, 12, 7, 4, cifar_t, true, true),
        ("lunar_trace.csv", &lunar, 10, 11, 3, lunar_t, false, false),
        ("lunar_warm_trace.csv", &lunar, 10, 11, 3, lunar_t, true, false),
        ("lunar_fast_trace.csv", &lunar, 10, 11, 3, lunar_t, false, true),
        ("lunar_fast_warm_trace.csv", &lunar, 10, 11, 3, lunar_t, true, true),
    ];
    let disk_root =
        std::env::temp_dir().join(format!("hyperdrive-golden-fitcache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&disk_root);
    for (name, w, configs, seed, machines, tmax, warm, fast) in cases {
        let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name].iter().collect();
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e})"));

        // Cold run populating a fresh disk-backed cache at 1 thread, then
        // a warmed replay at 4 threads served from the same cache object.
        let dir = disk_root.join(name);
        let writer = SharedFitCache::with_disk(&dir).expect("open disk-backed fit cache");
        let (cold, cold_preds) = trace_cached(
            w,
            configs,
            seed,
            machines,
            tmax,
            1,
            warm,
            fast,
            false,
            Some(writer.clone()),
        );
        assert_eq!(cold, golden, "{name}: attaching the fit cache changed the cold trace");
        assert!(cold_preds > 0, "{name}: the cold run never consumed a prediction");
        let (replay, replay_preds) = trace_cached(
            w,
            configs,
            seed,
            machines,
            tmax,
            4,
            warm,
            fast,
            false,
            Some(writer.clone()),
        );
        assert_eq!(replay, golden, "{name}: warmed in-memory replay diverged");
        assert!(writer.stats().hits > 0, "{name}: the warmed replay never hit the cache");
        // Shared-cache hits report `cached: false` so the policy consumes
        // exactly as many predictions as the cold run it replays — a
        // replay that consumed fewer would mean a hit short-circuited a
        // decision the scheduler was supposed to price.
        assert_eq!(
            replay_preds, cold_preds,
            "{name}: the warmed replay consumed a different number of predictions"
        );

        // Fresh process-like reload: a new cache object sees only what the
        // shard files preserved, and the replay must still match.
        let reader = SharedFitCache::with_disk(&dir).expect("reopen disk-backed fit cache");
        assert!(reader.stats().disk_loaded > 0, "{name}: nothing was reloaded from disk");
        let (from_disk, disk_preds) = trace_cached(
            w,
            configs,
            seed,
            machines,
            tmax,
            1,
            warm,
            fast,
            false,
            Some(reader.clone()),
        );
        assert_eq!(from_disk, golden, "{name}: pre-populated disk replay diverged");
        assert!(reader.stats().hits > 0, "{name}: the disk replay never hit the cache");
        assert_eq!(
            disk_preds, cold_preds,
            "{name}: the disk replay consumed a different number of predictions"
        );
    }
    let _ = std::fs::remove_dir_all(&disk_root);
}
