//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `README.md` for why each exists), checks its
//! outputs, and prints a human-readable report followed by one JSON result
//! line. `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! same work through the layer-timing wrappers and reports the per-layer
//! breakdown. Any failed correctness gate exits with status 1.

mod digest;
#[cfg(test)]
mod json;
mod layers;
mod report;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: perfbench --workload <pop_orders|scale_default|durable_chaos|server_mix> \
     --seed <n> --seconds <s> --trace <0|1>";

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    /// Measurement budget; every workload completes at least one
    /// repetition whatever it is.
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        *workloads::NAMES
                            .iter()
                            .find(|n| **n == value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s >= 0.0) {
                        return Err(format!("--seconds must be a non-negative number, got {s}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                    });
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// The library crates read `HYPERDRIVE_*` variables (fit threads, cache
/// mode, batching, prefetch, journal, resource-manager backend, vector
/// math). With any of them set a number would measure a different
/// program, so the benchmark refuses to run.
fn knobs_set() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HYPERDRIVE_"))
        .collect()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Digests recorded for known seeds: `workload seed digest` per line.
fn recorded_digest(workload: &str, seed: u64) -> Option<u64> {
    include_str!("../reference.txt").lines().find_map(|line| {
        let mut parts = line.split_whitespace();
        let (w, s, d) = (parts.next()?, parts.next()?, parts.next()?);
        (w == workload && s.parse() == Ok(seed)).then(|| u64::from_str_radix(d, 16).ok())?
    })
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let knobs = knobs_set();
    if !knobs.is_empty() {
        eprintln!("perfbench: refusing to run with {} set; unset them first", knobs.join(", "));
        return ExitCode::from(2);
    }

    let started = Instant::now();
    let mut report = workloads::run(&args);
    match peak_rss_mb() {
        Some(mb) => report.e2e("peak_rss_mb", mb),
        None => report.fail("cannot read VmHWM from /proc/self/status"),
    }
    if !args.trace {
        for (name, _) in report::END_TO_END {
            let v = report.end_to_end.get(*name).copied().unwrap_or(f64::NAN);
            if !(v.is_finite() && v > 0.0) {
                report.fail(format!("end-to-end metric {name} is {v}, not a positive number"));
            }
        }
    }
    let reference = recorded_digest(args.workload, args.seed);
    match (report.digest, reference) {
        (Some(d), Some(r)) if d != r => {
            report.fail(format!("digest {d:016x} != recorded reference {r:016x} for this seed"));
        }
        (None, _) => report.fail("the run produced no digest"),
        _ => {}
    }

    println!(
        "perfbench workload={} seed={} trace={} nproc={} vmath={:?} fit_cache={} wall_s={:.3}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
        hyperdrive_curve::vmath::active_backend(),
        report.fit_cache,
        started.elapsed().as_secs_f64(),
    );
    println!(
        "  digest {} ({})",
        report.digest.map_or("-".into(), |d| format!("{d:016x}")),
        match reference {
            Some(_) => "checked against the recorded reference",
            None => "no reference recorded for this seed; repetitions cross-checked only",
        }
    );
    let (metrics, values) = if args.trace {
        (report::per_layer(), &report.layers)
    } else {
        let e2e = report::END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect();
        (e2e, &report.end_to_end)
    };
    for (name, unit) in &metrics {
        println!("  {name:<32} {:>16.6} {unit}", values.get(name).copied().unwrap_or(0.0));
    }
    for (name, value, unit) in report.extras.iter().filter(|(n, ..)| !values.contains_key(n)) {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    for failure in &report.failures {
        println!("  FAILED: {failure}");
    }
    let correct = report.failures.is_empty();
    let attempted = report.attempted.max(1);
    let failed = (report.failures.len() as u64).min(attempted);
    println!("{}", report::result_line(correct, attempted, failed, &metrics, values));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "scale_default",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), ("scale_default", 7, 10.0, true));
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "pop_orders", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "pop_orders", "--seed", "1", "--seconds", "-1"]).is_err());
    }

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn contract(list: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let root = json::parse(text).expect("BENCHMARK.json parses");
        let Some(json::Value::Array(items)) = root.get(list) else {
            panic!("BENCHMARK.json has no {list} list");
        };
        items
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(json::Value::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn result_lines_parse_and_carry_every_contract_metric() {
        let e2e: Vec<(String, &str)> =
            report::END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect();
        for (list, metrics) in [("end_to_end", e2e), ("per_layer", report::per_layer())] {
            let declared = contract(list);
            let ours: Vec<(String, String)> =
                metrics.iter().map(|(n, u)| (n.clone(), u.to_string())).collect();
            assert_eq!(ours, declared, "{list} in BENCHMARK.json and the program differ");
            let values = metrics.iter().map(|(n, _)| (n.clone(), 1.25)).collect();
            let line = report::result_line(true, 3, 0, &metrics, &values);
            let root = json::parse(&line).expect("result line parses");
            let keys: Vec<&str> = match &root {
                json::Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                _ => panic!("result line is not an object"),
            };
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            for (name, unit) in &declared {
                let m = root.get("metrics").and_then(|m| m.get(name)).expect(name);
                assert_eq!(m.get("value"), Some(&json::Value::Number(1.25)));
                assert_eq!(m.get("unit").and_then(json::Value::as_str), Some(unit.as_str()));
            }
        }
    }

    #[test]
    fn reference_lines_parse() {
        for line in include_str!("../reference.txt").lines() {
            let parts: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(parts.len(), 3, "{line:?}");
            assert!(workloads::NAMES.contains(&parts[0]), "{line:?}");
            let seed: u64 = parts[1].parse().expect("seed");
            assert_eq!(recorded_digest(parts[0], seed), u64::from_str_radix(parts[2], 16).ok());
        }
    }
}
