//! Micro-benchmark for the scalable WAL append path (PR 2).
//!
//! Drives the physical log directly with a commit-per-append workload
//! (append one record, then `flush_to` it) at 1 and 8 threads, under the
//! same scaled disk model, with a short group-commit coalescing window.
//! The 1-thread pass is the baseline: with one committer there is nothing
//! to coalesce, so the 8-thread pass must scale commit throughput by
//! sharing device flushes.
//!
//! Also checks two invariants the scaling must not cost us: a fixed
//! sequential `per_request` commit pattern issues exactly one device
//! flush per commit, and a crash mid-append recovers exactly the
//! committed records. A final sweep maps the pipeline across committer
//! threads × record sizes × group-commit windows. Results go to
//! `BENCH_PR2.json`, mirrored on stdout.
//!
//! ```text
//! bench_pr2 [--per-thread N] [--scale S]
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use msp_types::{Lsn, RequestSeq, SessionId};
use msp_wal::log::DATA_START;
use msp_wal::{DiskModel, FlushPolicy, LogRecord, MemDisk, PhysicalLog};

/// Commits/s the 8-thread pass must reach, as a multiple of the 1-thread
/// pass.
const SCALING_FLOOR: f64 = 3.3;

/// Device flushes per commit the 8-thread pass may issue at most.
const FLUSHES_PER_COMMIT_CEILING: f64 = 1.0 / 3.0;

/// Payload size of the headline passes.
const RECORD_BYTES: usize = 120;

fn rec(session: u64, seq: u64, len: usize) -> LogRecord {
    LogRecord::RequestReceive {
        session: SessionId(session),
        seq: RequestSeq(seq),
        method: "bench".into(),
        payload: vec![session as u8; len],
        sender_dv: None,
    }
}

struct PassResult {
    elapsed: Duration,
    commits: u64,
    flushes: u64,
    group_batches: u64,
}

impl PassResult {
    fn commits_per_sec(&self) -> f64 {
        self.commits as f64 / self.elapsed.as_secs_f64()
    }
    fn flushes_per_commit(&self) -> f64 {
        self.flushes as f64 / self.commits as f64
    }
}

/// One timed pass: `threads` committers, each doing `per_thread`
/// append-then-commit cycles of `record_len`-byte payloads against a
/// fresh log under an optional group-commit window.
fn run_pass(
    threads: u64,
    record_len: usize,
    window: Option<Duration>,
    per_thread: u64,
    scale: f64,
) -> PassResult {
    let disk = Arc::new(MemDisk::new());
    let model = DiskModel::default().with_scale(scale);
    let policy = FlushPolicy::per_request().with_group_commit_window(window);
    let log = PhysicalLog::open(disk, model, policy).expect("open log");
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let log = Arc::clone(&log);
            s.spawn(move || {
                for i in 0..per_thread {
                    let lsn = log.append(&rec(t, i, record_len));
                    log.flush_to(lsn).expect("flush_to");
                }
            });
        }
    });
    let elapsed = t0.elapsed();
    let stats = log.stats();
    log.close();
    PassResult {
        elapsed,
        commits: threads * per_thread,
        flushes: stats.flushes,
        group_batches: stats.group_commit_batches,
    }
}

/// Device flushes issued by `commits` sequential `per_request` commits.
fn flush_parity(commits: u64) -> u64 {
    let log = PhysicalLog::open(
        Arc::new(MemDisk::new()),
        DiskModel::zero(),
        FlushPolicy::per_request(),
    )
    .expect("open log");
    for i in 0..commits {
        let lsn = log.append(&rec(7, i, RECORD_BYTES));
        log.flush_to(lsn).expect("flush_to");
    }
    let flushes = log.stats().flushes;
    log.close();
    flushes
}

/// Crash mid-append: commit 16 records, append an unflushed suffix of 8,
/// crash, and return the records a scan of the reopened log recovers.
fn crash_recovery() -> Vec<LogRecord> {
    let disk = Arc::new(MemDisk::new());
    {
        let log = PhysicalLog::open(disk.clone(), DiskModel::zero(), FlushPolicy::per_request())
            .expect("open log");
        let mut committed = Lsn(0);
        for i in 0..16 {
            committed = log.append(&rec(3, i, RECORD_BYTES));
        }
        log.flush_to(committed).expect("flush committed prefix");
        for i in 16..24 {
            log.append(&rec(3, i, RECORD_BYTES));
        }
        log.crash();
    }
    let log = PhysicalLog::open(disk, DiskModel::zero(), FlushPolicy::per_request())
        .expect("reopen after crash");
    let recovered = log
        .scan_from(Lsn(DATA_START))
        .map(|r| r.expect("clean scan after crash").1)
        .collect();
    log.close();
    recovered
}

fn pass_json(p: &PassResult) -> String {
    format!(
        concat!(
            "{{ \"elapsed_ms\": {:.3}, \"commits\": {}, \"commits_per_sec\": {:.1}, ",
            "\"device_flushes\": {}, \"flushes_per_commit\": {:.3}, ",
            "\"group_commit_batches\": {} }}"
        ),
        p.elapsed.as_secs_f64() * 1e3,
        p.commits,
        p.commits_per_sec(),
        p.flushes,
        p.flushes_per_commit(),
        p.group_batches,
    )
}

fn main() {
    let mut per_thread = 40u64;
    let mut scale = 0.25f64;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--per-thread" => {
                per_thread = it.next().and_then(|v| v.parse().ok()).unwrap_or(per_thread)
            }
            "--scale" => scale = it.next().and_then(|v| v.parse().ok()).unwrap_or(scale),
            other => eprintln!("ignoring unknown argument {other}"),
        }
    }

    let window = Some(Duration::from_millis(1));
    let res_1 = run_pass(1, RECORD_BYTES, window, per_thread, scale);
    let res_8 = run_pass(8, RECORD_BYTES, window, per_thread, scale);
    let scaling_8 = res_8.commits_per_sec() / res_1.commits_per_sec();

    let parity_commits = 16u64;
    let parity_flushes = flush_parity(parity_commits);
    let recovered = crash_recovery();
    let committed: Vec<LogRecord> = (0..16).map(|i| rec(3, i, RECORD_BYTES)).collect();
    let crash_exact = recovered == committed;

    // Roadmap sweep: threads × record size × group-commit window, fewer
    // commits per point to bound the runtime.
    let sweep_commits = per_thread.min(24);
    let mut sweep_rows = Vec::new();
    for &threads in &[1u64, 4, 8] {
        for &record in &[64usize, 512, 2048] {
            for window in [None, Some(Duration::from_millis(1))] {
                let p = run_pass(threads, record, window, sweep_commits, scale);
                sweep_rows.push(format!(
                    concat!(
                        "{{ \"threads\": {}, \"record_bytes\": {}, ",
                        "\"window_us\": {}, \"elapsed_ms\": {:.3}, ",
                        "\"commits_per_sec\": {:.1}, \"flushes_per_commit\": {:.3}, ",
                        "\"group_commit_batches\": {} }}"
                    ),
                    threads,
                    record,
                    window.map_or(0, |w| w.as_micros()),
                    p.elapsed.as_secs_f64() * 1e3,
                    p.commits_per_sec(),
                    p.flushes_per_commit(),
                    p.group_batches,
                ));
            }
        }
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"pr2_scalable_append_path\",\n",
            "  \"workload\": {{ \"per_thread_commits\": {}, \"disk_scale\": {} }},\n",
            "  \"passes\": {{\n",
            "    \"reserved_1t\": {},\n",
            "    \"reserved_8t\": {}\n",
            "  }},\n",
            "  \"sweep\": [\n    {}\n  ],\n",
            "  \"summary\": {{\n",
            "    \"scaling_8t_over_1t\": {:.2},\n",
            "    \"flushes_per_commit_8t\": {:.3},\n",
            "    \"parity_commits\": {},\n",
            "    \"parity_flushes\": {},\n",
            "    \"crash_recovered_records\": {},\n",
            "    \"crash_recovered_exactly_committed\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        per_thread,
        scale,
        pass_json(&res_1),
        pass_json(&res_8),
        sweep_rows.join(",\n    "),
        scaling_8,
        res_8.flushes_per_commit(),
        parity_commits,
        parity_flushes,
        recovered.len(),
        crash_exact,
    );

    print!("{json}");
    std::fs::write("BENCH_PR2.json", &json).expect("write BENCH_PR2.json");

    assert!(
        scaling_8 >= SCALING_FLOOR,
        "8 group-committing threads must reach >={SCALING_FLOOR}x the 1-thread \
         commit rate, got {scaling_8:.2}x"
    );
    assert!(
        res_8.flushes_per_commit() <= FLUSHES_PER_COMMIT_CEILING,
        "8 threads must share device flushes: at most 1/3 flush per commit, got {:.3}",
        res_8.flushes_per_commit()
    );
    assert_eq!(
        parity_flushes, parity_commits,
        "sequential per_request commits must issue one device flush each"
    );
    assert!(
        crash_exact,
        "a crash must recover exactly the 16 committed records, got {}",
        recovered.len()
    );
    eprintln!(
        "wrote BENCH_PR2.json ({scaling_8:.2}x at 8 threads over 1, \
         {parity_flushes} flushes for {parity_commits} commits)"
    );
}
