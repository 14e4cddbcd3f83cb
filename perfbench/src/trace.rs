//! In-memory span recorder for the traced run.
//!
//! Spans are recorded at the benchmark's own calls into each layer (the
//! wrapped service-method bodies and the timed disk) and held until the
//! run ends; nothing is written while the workload runs. Untraced runs
//! never install a wrapper, so they pay nothing here.

use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Which layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `ServiceMethod1` body at MSP1.
    M1,
    /// `ServiceMethod2` body at MSP2 (or at the solo recovery MSP).
    M2,
    DiskWrite,
    DiskRead,
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    /// The benchmark request id carried in the payload (service spans),
    /// or the bytes moved (disk spans).
    pub key: u64,
    pub start: u64,
    pub end: u64,
    /// Recovery replay rather than live execution (service spans).
    pub replay: bool,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

/// Nanoseconds since the process's trace epoch.
pub fn now() -> u64 {
    at(Instant::now())
}

/// `t` in nanoseconds since the trace epoch (zero before it).
pub fn at(t: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    t.saturating_duration_since(epoch).as_nanos() as u64
}

pub fn record(span: Span) {
    SPANS.lock().expect("span buffer poisoned").push(span);
}

/// Every span recorded so far; the buffer is left empty.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}
