//! Output digests: the correctness gate's view of a run.
//!
//! A study's digest hashes the same bytes the server's byte-identity
//! contract compares: the event log as CSV, one `decision,…` line per POP
//! allocation snapshot, and a final `end,…` line.

use std::io::Write;

use hyperdrive_core::AllocationSnapshot;
use hyperdrive_framework::ExperimentResult;

/// 64-bit FNV-1a over everything written into it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn finish(self) -> u64 {
        self.0
    }

    pub fn write_u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn bytes(&mut self, buf: &[u8]) {
        for &b in buf {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl Write for Fnv {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Digest of one finished study: event log, POP decision timeline (empty
/// for other policies) and end line, rendered as the server renders a
/// study trace.
pub fn study(result: &ExperimentResult, timeline: &[AllocationSnapshot]) -> u64 {
    let mut h = Fnv::new();
    result.events.write_csv(&mut h).expect("hashing cannot fail");
    if !timeline.is_empty() {
        writeln!(h, "decision,now_s,active,promising,running,promising_running,p_star,slots")
            .expect("hashing cannot fail");
    }
    for s in timeline {
        writeln!(
            h,
            "decision,{:.3},{},{},{},{},{:.6},{}",
            s.now.as_secs(),
            s.active_jobs,
            s.promising_jobs,
            s.running_jobs,
            s.promising_running,
            s.p_threshold,
            s.promising_slots,
        )
        .expect("hashing cannot fail");
    }
    writeln!(
        h,
        "end,{:.3},total_epochs={},terminated_early={}",
        result.end_time.as_secs(),
        result.total_epochs,
        result.terminated_early(),
    )
    .expect("hashing cannot fail");
    h.finish()
}

/// Digest of raw trace text (the server renders its own).
pub fn text(s: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(s.as_bytes());
    h.finish()
}

/// Order-sensitive digest over a sequence of study digests.
pub fn combine(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::new();
    for d in digests {
        h.write_u64(d);
    }
    h.finish()
}
