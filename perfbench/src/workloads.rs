//! The two workloads and the metrics each one yields.
//!
//! * `steady` — open loop, Poisson arrivals well below saturation over
//!   256 reused sessions, models at time scale 0.1, default checkpointing.
//! * `recovery` — restarts of a fixed crash image that overflows the
//!   recovery buffer pool, models at time scale 0.05, with probe requests
//!   on recovered sessions.
//!
//! Both workloads end in crash restarts, so every end-to-end metric has a
//! meaning on each; `perfbench/README.md` defines them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use msp_core::config::LoggingConfig;
use msp_core::runtime::{next_session_id, RuntimeStatsSnapshot};
use msp_core::{ClusterConfig, Envelope};
use msp_harness::workload::{MSP1, MSP2};
use msp_net::{NetModel, NetStatsSnapshot, Network};
use msp_types::{MspId, RequestSeq, SessionId};
use msp_wal::stats::LogStatsSnapshot;
use msp_wal::{Disk, PoolStatsSnapshot, SECTOR_SIZE};

use crate::disk::{ChunkDisk, DiskCounts};
use crate::gen::{Gen, Req};
use crate::ledger::check_shared;
use crate::report::Metrics;
use crate::stats::{median, per, percentile, self_time, MIN_BEYOND};
use crate::trace::{self, Kind, Span};
use crate::usage::{cpu_time, on_one_cpu, peak_rss_mb};
use crate::world::{pair_cluster, solo_cluster, Msp, Setup};

/// Calls from `ServiceMethod1` to `ServiceMethod2` per request (Figure 13).
const M: u8 = 2;
/// Time scale of the disk, network and protocol models.
const STEADY_SCALE: f64 = 0.1;
const RECOVERY_SCALE: f64 = 0.05;
/// Low enough that a request waits on hops, flushes and the device, not
/// on CPU: at twice this rate the generator already had to resend.
const STEADY_RATE: f64 = 1000.0;
const STEADY_SESSIONS: usize = 256;
/// The crash image: 384 sessions x 20 requests of `ServiceMethod2` is
/// 7.5 MB of log, over the 4 MB default recovery pool.
const IMAGE_SESSIONS: usize = 384;
const IMAGE_REQUESTS: u64 = 20;
/// Recovered sessions that receive one request right after a restart:
/// of `steady`'s pair, and of the crash image (a third of its sessions,
/// so that a block of eight restarts holds enough probes for a p99; with
/// 64 a block held 16 restarts and its p99 spread several times as much
/// from run to run).
const PAIR_PROBES: usize = 64;
const IMAGE_PROBES: usize = 128;
/// Restarts of the crash image `steady` leaves behind.
const PAIR_RESTARTS: usize = 7;
/// Set-ups per run; `setup_s` is their median.
const PAIR_SETUPS: usize = 15;
const IMAGE_BUILDS: usize = 3;
const WARMUP: Duration = Duration::from_secs(1);
const DRAIN: Duration = Duration::from_secs(5);
const RESTART_LIMIT: Duration = Duration::from_secs(60);
const POLL: Duration = Duration::from_millis(50);
/// A restart is timed to `recovery_complete()` at this resolution.
const RECOVERY_POLL: Duration = Duration::from_micros(250);
/// `steady` is valid only if the generator kept its schedule: a tail of
/// late sends or a pile of due requests at the window's end means the
/// offered rate outran the system.
const LATE_LIMIT_MS: f64 = 100.0;
const BACKLOG_LIMIT: usize = (STEADY_RATE * 0.1) as usize;

/// The outcome of one measured run.
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Metrics,
    pub layer: Metrics,
}

pub const WORKLOADS: [&str; 2] = ["steady", "recovery"];

pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Run, String> {
    let window = Duration::from_secs_f64(seconds);
    match workload {
        "steady" => steady_run(seed, window, traced),
        "recovery" => recovery_run(seed, window, traced),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ns_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

const MB: f64 = (1u64 << 20) as f64;

fn fresh_sessions(n: usize) -> Vec<(SessionId, RequestSeq)> {
    (0..n)
        .map(|_| (next_session_id(), RequestSeq::FIRST))
        .collect()
}

/// A required percentile: the benchmark's sizes guarantee the tail.
fn pct(samples: &mut [f64], p: f64, what: &str) -> Result<f64, String> {
    percentile(samples, p).ok_or_else(|| {
        format!(
            "{what}: {} samples leave fewer than ten beyond p{}",
            samples.len(),
            p * 100.0
        )
    })
}

/// Counter windows over every stats surface, summed over MSPs (or
/// restarts). Each runtime pair is `(start, end)` of one window.
#[derive(Default)]
struct Deltas {
    rt: Vec<(RuntimeStatsSnapshot, RuntimeStatsSnapshot)>,
    log: LogStatsSnapshot,
    pool: PoolStatsSnapshot,
    net: Vec<(NetStatsSnapshot, NetStatsSnapshot)>,
    disk: DiskCounts,
}

impl Deltas {
    fn rt(&self, f: impl Fn(&RuntimeStatsSnapshot) -> u64) -> u64 {
        self.rt.iter().map(|(a, b)| f(b) - f(a)).sum()
    }

    fn net(&self, f: impl Fn(&NetStatsSnapshot) -> u64) -> u64 {
        self.net.iter().map(|(a, b)| f(b) - f(a)).sum()
    }

    /// Add the window `a` → `b` of one MSP.
    fn add(&mut self, a: &MspSnap, b: &MspSnap) {
        self.rt.push((a.rt, b.rt));
        self.log = self.log.merge(&b.log.since(&a.log));
        self.pool = self.pool.merge(&b.pool.since(&a.pool));
        self.disk = self.disk.merge(&b.disk.since(&a.disk));
    }
}

/// Snapshot of one MSP's stats surfaces.
#[derive(Clone, Copy, Default)]
struct MspSnap {
    rt: RuntimeStatsSnapshot,
    log: LogStatsSnapshot,
    pool: PoolStatsSnapshot,
    disk: DiskCounts,
}

fn snap(msp: &Msp) -> MspSnap {
    MspSnap {
        rt: msp.handle.stats(),
        log: msp.handle.log_stats().unwrap_or_default(),
        pool: msp.handle.pool_stats(),
        disk: msp.disk_counts(),
    }
}

/// What the generator saw of the measured requests.
struct GenFacts {
    attempted: u64,
    failed: u64,
    resends: u64,
    busy: u64,
    late_p99_ms: f64,
}

fn gen_facts(reqs: &[Req]) -> Result<GenFacts, String> {
    let measured: Vec<&Req> = reqs.iter().filter(|r| r.measured).collect();
    let mut late: Vec<f64> = measured
        .iter()
        .map(|r| {
            r.sent
                .map_or(f64::INFINITY, |s| ms(s.duration_since(r.sched)))
        })
        .collect();
    Ok(GenFacts {
        attempted: measured.len() as u64,
        failed: measured.iter().filter(|r| !r.ok).count() as u64,
        resends: measured
            .iter()
            .map(|r| u64::from(r.attempts.saturating_sub(1)))
            .sum(),
        busy: measured.iter().map(|r| u64::from(r.busy)).sum(),
        late_p99_ms: pct(&mut late, 0.99, "generator lateness")?,
    })
}

/// The layers every workload passes through, from counter windows.
/// `committed` is the per-request base; `units` the number of windows
/// (restarts) the plain counts are averaged over.
fn common_layers(out: &mut Metrics, d: &Deltas, g: &GenFacts, committed: u64, units: u64) {
    let each = |n: u64| per(n, units);
    out.put("gen.late_p99_ms", g.late_p99_ms);
    out.put("gen.resends_per_req", per(g.resends, g.attempted));
    out.put("gen.busy_per_req", per(g.busy, g.attempted));
    out.put("gen.failed_frac", per(g.failed, g.attempted));
    out.put("net.msgs_per_req", per(d.net(|s| s.sent), committed));
    out.put("net.dead_letter", each(d.net(|s| s.dead_letter)));
    out.put("core.execs_per_req", per(d.rt(|s| s.requests), committed));
    out.put(
        "core.duplicates_per_req",
        per(d.rt(|s| s.duplicate_requests), committed),
    );
    out.put(
        "core.worker_parks_per_req",
        per(d.rt(|s| s.worker_parks), committed),
    );
    out.put("core.busy_replies", each(d.rt(|s| s.busy_replies)));
    out.put(
        "flush.distributed_per_req",
        per(d.rt(|s| s.distributed_flushes), committed),
    );
    let elided = d.rt(|s| s.flush_rpcs_elided);
    out.put(
        "flush.rpcs_elided_frac",
        per(elided, elided + d.rt(|s| s.flush_requests_served)),
    );
    out.put(
        "flush.tickets_per_req",
        per(d.log.flush_tickets_issued, committed),
    );
    out.put("ckpt.msp", each(d.rt(|s| s.msp_checkpoints)));
    out.put(
        "ckpt.session_per_1k_req",
        1000.0 * per(d.rt(|s| s.session_checkpoints), committed),
    );
    out.put("ckpt.truncations", each(d.log.log_truncations));
    out.put("ckpt.reclaimed_mb", each(d.log.bytes_reclaimed) / MB);
    let l = &d.log;
    out.put("wal.appends_per_req", per(l.appends, committed));
    out.put("wal.flushes_per_req", per(l.flushes, committed));
    out.put("wal.sectors_per_flush", per(l.flushed_sectors, l.flushes));
    out.put(
        "wal.padding_frac",
        per(l.padded_bytes, l.flushed_sectors * SECTOR_SIZE as u64),
    );
    out.put(
        "wal.group_commit_frac",
        per(l.group_commit_batches, l.flushes),
    );
    let dk = &d.disk;
    out.put("disk.writes_per_req", per(dk.writes, committed));
    out.put(
        "disk.model_ms_per_req",
        ns_ms(dk.write_model_ns) / committed.max(1) as f64,
    );
    out.put("disk.read_bytes", each(dk.read_bytes));
    out.put(
        "disk.read_model_ms",
        ns_ms(dk.read_model_ns) / units.max(1) as f64,
    );
    let p = &d.pool;
    out.put(
        "pool.hit_rate",
        per(p.pool_hits, p.pool_hits + p.pool_misses),
    );
    out.put("pool.misses", each(p.pool_misses));
    out.put("pool.evictions", each(p.pool_evictions));
    out.put(
        "pool.prefetch_useful_frac",
        per(p.pool_prefetch_hits, p.pool_prefetched_blocks),
    );
}

/// Per-request service spans: the entry body (`M1`, or `M2` on the solo
/// MSP) against the generator's send and reply times, and each body's
/// self time net of the child calls it made.
fn service_layers(out: &mut Metrics, spans: &[Span], reqs: &[Req], one_way_ms: f64, pair: bool) {
    let entry_kind = if pair { Kind::M1 } else { Kind::M2 };
    // Spans by request id (= index + 1), live executions only.
    let mut entry: Vec<Option<(u64, u64)>> = vec![None; reqs.len()];
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); reqs.len()];
    let mut m2 = Vec::new();
    let mut replay = Vec::new();
    let mut writes = Vec::new();
    for s in spans {
        let us = (s.end - s.start) as f64 / 1e3;
        match s.kind {
            Kind::DiskWrite => writes.push(us),
            Kind::DiskRead => {}
            _ if s.replay => replay.push(us),
            kind => {
                let Some(i) = (s.key as usize).checked_sub(1).filter(|&i| i < reqs.len()) else {
                    continue;
                };
                if !reqs[i].measured {
                    continue;
                }
                if kind == Kind::M2 {
                    m2.push(us);
                }
                if kind == entry_kind {
                    entry[i].get_or_insert((s.start, s.end));
                } else {
                    children[i].push((s.start, s.end));
                }
            }
        }
    }
    let (mut m1_self, mut dispatch, mut commit) = (Vec::new(), Vec::new(), Vec::new());
    for (i, r) in reqs.iter().enumerate() {
        let (Some((start, end)), Some(sent), Some(done)) = (entry[i], r.sent, r.done) else {
            continue;
        };
        if pair {
            m1_self.push(self_time(start, end, &children[i]) as f64 / 1e3);
        }
        let sent = trace::at(sent) as f64 / 1e6;
        let done = trace::at(done) as f64 / 1e6;
        dispatch.push((start as f64 / 1e6 - sent - one_way_ms) * 1e3);
        commit.push((done - end as f64 / 1e6 - one_way_ms) * 1e3);
    }
    out.put("svc.m1_p50_us", median(&mut m1_self));
    out.put("svc.m2_p50_us", median(&mut m2));
    out.put("svc.replay_p50_us", median(&mut replay));
    out.put("svc.dispatch_wait_p50_us", median(&mut dispatch));
    out.put("svc.commit_wait_p50_us", median(&mut commit));
    out.put("disk.write_us_p50", median(&mut writes));
}

fn one_way_ms(scale: f64) -> f64 {
    ms(NetModel::default().with_scale(scale).delay(0.0))
}

// ------------------------------------------------------------ restarts

/// What a crash left behind: each MSP's disk image in start order, with
/// how many times each committed request bumps its shared counters, and
/// the client sessions that committed before the crash.
struct Crash {
    cluster: ClusterConfig,
    msps: Vec<(MspId, ChunkDisk, u64)>,
    target: MspId,
    method: &'static str,
    sessions: Vec<(SessionId, RequestSeq)>,
    counts: Vec<u64>,
    committed: u64,
}

/// One restart of a crash image.
struct Restart {
    first_served_ms: f64,
    ready_ms: f64,
    open_ms: f64,
    first_wait_ms: f64,
    elapsed: Duration,
    reqs: Vec<Req>,
    committed: u64,
    msps: Vec<MspSnap>,
    net: NetStatsSnapshot,
    spans: Vec<Span>,
}

/// `count` probe sessions out of `n`, evenly spaced at a random offset,
/// so every restart disturbs the replay order alike.
fn pick_probes(rng: &mut StdRng, n: usize, count: usize) -> Vec<usize> {
    let stride = (n / count).max(1);
    let offset = rng.random_range(0..stride as u64) as usize;
    (0..count.min(n)).map(|k| offset + k * stride).collect()
}

/// Start the crashed MSPs on fresh copies of their images, send one
/// request on each probe session as soon as they are up, and wait until
/// every probe is answered and every MSP reports `recovery_complete()`.
fn restart(crash: &Crash, probes: &[usize], setup: &Setup, seed: u64) -> Result<Restart, String> {
    let net = Network::new(NetModel::default().with_scale(setup.scale), seed);
    let disks: Vec<Arc<ChunkDisk>> = crash
        .msps
        .iter()
        .map(|(_, image, _)| Arc::new(image.copy()))
        .collect();
    let mut gen = Gen::new(
        &net,
        crash.target,
        crash.method,
        M,
        &crash.sessions,
        crash.counts.clone(),
    );
    gen.measuring = true;
    trace::take();
    let t0 = Instant::now();
    let mut msps = Vec::new();
    for ((id, _, _), disk) in crash.msps.iter().zip(disks) {
        msps.push(
            Msp::start(&net, &crash.cluster, *id, disk, setup)
                .map_err(|e| format!("restart: {e}"))?,
        );
    }
    let t_open = Instant::now();
    for &p in probes {
        gen.submit(p, Instant::now());
    }
    let mut ready: Option<Instant> = None;
    gen.pump(t0 + RESTART_LIMIT, RECOVERY_POLL, |g| {
        if ready.is_none() && msps.iter().all(|m| m.handle.recovery_complete()) {
            ready = Some(Instant::now());
        }
        ready.is_some() && g.pending() == 0
    })?;
    let t_end = Instant::now();
    let ready = ready.ok_or("recovery did not complete within 60 s")?;
    if gen.pending() > 0 {
        return Err(format!("{} probes unanswered after 60 s", gen.pending()));
    }
    let spans = trace::take();
    // The ledger continues each session's count from before the crash,
    // so each probe's reply must carry the next counter; the shared
    // counters must hold every request committed before and since.
    let committed = gen.ledger.committed();
    for ((id, _, bumps), msp) in crash.msps.iter().zip(&msps) {
        let want = bumps * (crash.committed + committed);
        check_shared(
            &format!("recovered {id}"),
            &msp.handle.dump_shared(),
            &[want; 2],
        )?;
    }
    let first = gen.first_ok.expect("probes were answered");
    let snaps = msps.iter().map(snap).collect();
    let net_stats = net.stats();
    for m in &msps {
        m.handle.shutdown();
    }
    net.shutdown();
    Ok(Restart {
        first_served_ms: ms(first.duration_since(t0)),
        ready_ms: ms(ready.duration_since(t0)),
        open_ms: ms(t_open.duration_since(t0)),
        first_wait_ms: ms(first.duration_since(t_open)),
        elapsed: t_end.duration_since(t0),
        reqs: gen.reqs,
        committed,
        msps: snaps,
        net: net_stats,
        spans,
    })
}

fn restart_col(runs: &[Restart], f: impl Fn(&Restart) -> f64) -> Vec<f64> {
    runs.iter().map(f).collect()
}

/// `mttr_ms` and `recovery_ms`: medians over the restarts.
fn restart_e2e(out: &mut Metrics, runs: &[Restart]) {
    out.put(
        "mttr_ms",
        median(&mut restart_col(runs, |r| r.first_served_ms)),
    );
    out.put(
        "recovery_ms",
        median(&mut restart_col(runs, |r| r.ready_ms)),
    );
}

/// The recovery layer: medians over the restarts, runtime phases summed
/// over the MSPs of a restart.
fn rec_layers(out: &mut Metrics, runs: &[Restart]) {
    let rt = |f: fn(&RuntimeStatsSnapshot) -> u64| {
        restart_col(runs, |r| {
            r.msps.iter().map(|m| f(&m.rt)).sum::<u64>() as f64
        })
    };
    out.put("rec.open_ms", median(&mut restart_col(runs, |r| r.open_ms)));
    out.put(
        "rec.analysis_ms",
        median(&mut rt(|s| s.recovery_analysis_nanos)) / 1e6,
    );
    out.put(
        "rec.checkpoint_ms",
        median(&mut rt(|s| s.recovery_checkpoint_nanos)) / 1e6,
    );
    out.put(
        "rec.first_wait_ms",
        median(&mut restart_col(runs, |r| r.first_wait_ms)),
    );
    out.put(
        "rec.replay_ms",
        median(&mut rt(|s| s.recovery_replay_nanos)) / 1e6,
    );
    out.put(
        "rec.sessions_replayed",
        median(&mut rt(|s| s.recovery_pool_sessions)),
    );
    out.put(
        "rec.replayed_requests",
        median(&mut rt(|s| s.replayed_requests)),
    );
}

// -------------------------------------------------------------------- steady

struct Pair {
    net: Network<Envelope>,
    msp1: Msp,
    msp2: Msp,
}

impl Pair {
    fn start(setup: &Setup, seed: u64) -> Result<Pair, String> {
        let net = Network::new(NetModel::default().with_scale(setup.scale), seed);
        let cluster = pair_cluster();
        let start = |id| {
            Msp::start(&net, &cluster, id, Arc::default(), setup).map_err(|e| format!("start: {e}"))
        };
        let msp2 = start(MSP2)?;
        let msp1 = start(MSP1)?;
        Ok(Pair { net, msp1, msp2 })
    }

    /// Exactly-once on the shared state: SV0 and SV1 count every
    /// committed request, SV2 and SV3 every one of its `m` calls.
    fn check_shared(&self, committed: u64) -> Result<(), String> {
        check_shared("MSP1", &self.msp1.handle.dump_shared(), &[committed; 2])?;
        let calls = u64::from(M) * committed;
        check_shared("MSP2", &self.msp2.handle.dump_shared(), &[calls; 2])
    }

    fn snap(&self) -> [MspSnap; 2] {
        [snap(&self.msp1), snap(&self.msp2)]
    }

    fn shutdown(self) {
        self.msp1.handle.shutdown();
        self.msp2.handle.shutdown();
        self.net.shutdown();
    }
}

/// Set-up of the world: both MSPs started on empty disks and every
/// session opened with one request. Returns the seconds each of
/// `PAIR_SETUPS` set-ups took.
fn pair_setups(setup: &Setup, seed: u64, sessions: usize) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    for rep in 0..PAIR_SETUPS as u64 {
        let t0 = Instant::now();
        let pair = Pair::start(setup, seed.wrapping_add(rep))?;
        let mut gen = Gen::new(
            &pair.net,
            MSP1,
            "ServiceMethod1",
            M,
            &fresh_sessions(sessions),
            vec![0; sessions],
        );
        let now = Instant::now();
        for s in 0..sessions {
            gen.submit(s, now);
        }
        gen.drain(now + DRAIN)?;
        times.push(t0.elapsed().as_secs_f64());
        pair.check_shared(gen.ledger.committed())?;
        pair.shutdown();
    }
    Ok(times)
}

fn crash_after_checkpoint(msp: &Msp) -> Result<(), String> {
    let taken = msp.handle.stats().msp_checkpoints;
    let deadline = Instant::now() + RESTART_LIMIT;
    while msp.handle.stats().msp_checkpoints == taken {
        if Instant::now() > deadline {
            return Err(format!("{} took no checkpoint in 60 s", msp.handle.id()));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    msp.handle.crash();
    Ok(())
}

fn steady_run(seed: u64, window: Duration, traced: bool) -> Result<Run, String> {
    let sessions = STEADY_SESSIONS;
    let setup = Setup {
        scale: STEADY_SCALE,
        logging: LoggingConfig::default(),
        traced,
    };
    let mut setup_s = pair_setups(&setup, seed, sessions)?;

    // The measured world. Its sessions join over one forced-checkpoint
    // period, as independent clients would, so each MSP checkpoint forces
    // an equal share of them instead of all at once every period.
    let pair = Pair::start(&setup, seed)?;
    let logging = &setup.logging;
    let ramp = logging.msp_ckpt_interval * logging.force_ckpt_after;
    let mut gen = Gen::new(
        &pair.net,
        MSP1,
        "ServiceMethod1",
        M,
        &fresh_sessions(sessions),
        vec![0; sessions],
    );
    gen.start_open(STEADY_RATE, seed, ramp);
    gen.pump(Instant::now() + ramp + WARMUP, POLL, |_| false)?;

    // The measured window.
    trace::take();
    let s0 = pair.snap();
    let n0 = pair.net.stats();
    let cpu0 = cpu_time();
    gen.measuring = true;
    let t0 = Instant::now();
    gen.pump(t0 + window, POLL, |_| false)?;
    gen.measuring = false;
    gen.stop_issuing();
    let t1 = Instant::now();
    let cpu = cpu_time() - cpu0;
    let s1 = pair.snap();
    let n1 = pair.net.stats();
    let backlog_end = gen
        .reqs
        .iter()
        .filter(|r| r.measured && r.done.is_none())
        .count();
    gen.drain(t1 + DRAIN)?;
    let mut spans = trace::take();
    pair.check_shared(gen.ledger.committed())?;
    let facts = gen_facts(&gen.reqs)?;
    if backlog_end > BACKLOG_LIMIT || facts.late_p99_ms > LATE_LIMIT_MS {
        return Err(format!(
            "the offered {STEADY_RATE} req/s outran the system: {backlog_end} requests \
             due at the window's end, generator p99 lateness {:.2} ms",
            facts.late_p99_ms
        ));
    }
    let committed = gen
        .reqs
        .iter()
        .filter(|r| r.ok && r.done.is_some_and(|d| d >= t0 && d <= t1))
        .count() as u64;

    // The window is cut into forced-checkpoint cycles (every session
    // checkpoints once in each), each measured on its own; the run
    // reports the median cycle's p50, p99 and rate. A burst of noise from
    // other tenants of the host moves a few cycles, not the run, and a
    // tail that more than half of the cycles grow moves the p99.
    let periods = ((window.as_secs_f64() / ramp.as_secs_f64()).round() as u32).max(1);
    let period = window / periods;
    let (mut p50s, mut p99s, mut rps) = (Vec::new(), Vec::new(), Vec::new());
    for k in 0..periods {
        let (from, to) = (t0 + period * k, t0 + period * (k + 1));
        let mut lat: Vec<f64> = gen
            .reqs
            .iter()
            .filter(|r| r.measured && r.sched >= from && r.sched < to)
            .map(Req::latency_ms)
            .collect();
        p50s.push(pct(&mut lat, 0.50, "cycle latency")?);
        p99s.push(pct(&mut lat, 0.99, "cycle latency")?);
        let done = gen
            .reqs
            .iter()
            .filter(|r| r.ok && r.done.is_some_and(|d| d >= from && d < to))
            .count();
        rps.push(done as f64 / period.as_secs_f64());
    }

    let mut d = Deltas::default();
    for (a, b) in s0.iter().zip(&s1) {
        d.add(a, b);
    }
    d.net.push((n0, n1));

    // Crash each MSP right after its next MSP checkpoint, so the log a
    // restart scans does not depend on where in the checkpoint cycle the
    // window happened to end, and restart them from what survived. MSP1
    // restarts first, so MSP2's recovery broadcast reaches a running MSP1;
    // with MSP2 first that broadcast is lost, and MSP1's replay was seen
    // to stall for good on an outgoing call to MSP2.
    for msp in [&pair.msp2, &pair.msp1] {
        crash_after_checkpoint(msp)?;
    }
    pair.net.shutdown();
    let crash = Crash {
        cluster: pair_cluster(),
        msps: vec![
            (MSP1, pair.msp1.disk.copy(), 1),
            (MSP2, pair.msp2.disk.copy(), u64::from(M)),
        ],
        target: MSP1,
        method: "ServiceMethod1",
        sessions: gen.session_state(),
        counts: gen.ledger.counts().to_vec(),
        committed: gen.ledger.committed(),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut runs = Vec::new();
    for r in 0..PAIR_RESTARTS as u64 {
        let probes = pick_probes(&mut rng, sessions, PAIR_PROBES);
        runs.push(restart(&crash, &probes, &setup, seed.wrapping_add(r))?);
    }

    let mut e2e = Metrics::default();
    e2e.put("req_p50_ms", median(&mut p50s));
    e2e.put("req_p99_ms", median(&mut p99s));
    e2e.put("committed_rps", median(&mut rps));
    e2e.put("log_bytes_per_req", per(d.log.appended_bytes, committed));
    restart_e2e(&mut e2e, &runs);
    e2e.put("setup_s", median(&mut setup_s));
    e2e.put("peak_rss_mb", peak_rss_mb());

    let mut layer = Metrics::default();
    layer.put("base.committed", committed as f64);
    layer.put("base.restarts", runs.len() as f64);
    layer.put("gen.backlog_end", backlog_end as f64);
    layer.put(
        "proc.cpu_us_per_req",
        cpu.as_secs_f64() * 1e6 / committed.max(1) as f64,
    );
    common_layers(&mut layer, &d, &facts, committed, 1);
    rec_layers(&mut layer, &runs);
    if traced {
        // The restarts' replay spans join the window's; their live probe
        // spans carry request ids of another generator and are left out.
        for r in &runs {
            spans.extend(r.spans.iter().filter(|s| s.replay));
        }
        service_layers(
            &mut layer,
            &spans,
            &gen.reqs,
            one_way_ms(STEADY_SCALE),
            true,
        );
        layer.put("trace.spans", spans.len() as f64);
    }
    Ok(Run {
        attempted: facts.attempted,
        failed: facts.failed,
        e2e,
        layer,
    })
}

// ------------------------------------------------------------------ recovery

/// Build the crash image: a solo MSP2 with checkpoints off, driven
/// through `IMAGE_REQUESTS` requests on each of `IMAGE_SESSIONS`
/// sessions — serially, round by round, so every build lays out the same
/// log — then crashed. Run on one CPU: the thread hand-offs of a serial
/// round trip otherwise cost about twice as much whenever the host
/// spreads them over both CPUs, and the set-up time swung with it.
fn build_image(seed: u64) -> Result<Crash, String> {
    let net: Network<Envelope> = Network::new(NetModel::zero(), seed);
    let setup = Setup {
        scale: 0.0,
        logging: LoggingConfig {
            checkpoints_enabled: false,
            ..LoggingConfig::default()
        },
        traced: false,
    };
    let msp = Msp::start(&net, &solo_cluster(), MSP2, Arc::default(), &setup)
        .map_err(|e| format!("start image MSP: {e}"))?;
    let mut gen = Gen::new(
        &net,
        MSP2,
        "ServiceMethod2",
        M,
        &fresh_sessions(IMAGE_SESSIONS),
        vec![0; IMAGE_SESSIONS],
    );
    for _ in 0..IMAGE_REQUESTS {
        for s in 0..IMAGE_SESSIONS {
            let now = Instant::now();
            gen.submit(s, now);
            gen.drain(now + DRAIN)?;
        }
    }
    let committed = gen.ledger.committed();
    check_shared("image MSP", &msp.handle.dump_shared(), &[committed; 2])?;
    msp.handle.crash();
    net.shutdown();
    Ok(Crash {
        cluster: solo_cluster(),
        msps: vec![(MSP2, msp.disk.copy(), 1)],
        target: MSP2,
        method: "ServiceMethod2",
        sessions: gen.session_state(),
        counts: gen.ledger.counts().to_vec(),
        committed,
    })
}

fn recovery_run(seed: u64, window: Duration, traced: bool) -> Result<Run, String> {
    let mut setup_s = Vec::new();
    let mut built = None;
    for rep in 0..IMAGE_BUILDS as u64 {
        let t0 = Instant::now();
        built = Some(on_one_cpu(|| build_image(seed.wrapping_add(rep)))?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let crash = built.expect("at least one image");
    let image_bytes = crash.msps[0].1.footprint();
    let setup = Setup {
        scale: RECOVERY_SCALE,
        logging: LoggingConfig::default(),
        traced,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut runs: Vec<Restart> = Vec::new();
    // At least enough restarts for the probes' p99 to have ten beyond it.
    let min_restarts = (100 * MIN_BEYOND + MIN_BEYOND).div_ceil(IMAGE_PROBES);
    let cpu0 = cpu_time();
    let t0 = Instant::now();
    while runs.len() < min_restarts || t0.elapsed() < window {
        let probes = pick_probes(&mut rng, IMAGE_SESSIONS, IMAGE_PROBES);
        let r = restart(
            &crash,
            &probes,
            &setup,
            seed.wrapping_add(runs.len() as u64),
        )?;
        runs.push(r);
    }
    let cpu = cpu_time() - cpu0;

    let restarts = runs.len() as u64;
    let committed: u64 = runs.iter().map(|r| r.committed).sum();
    let elapsed: f64 = runs.iter().map(|r| r.elapsed.as_secs_f64()).sum();
    let all_reqs: Vec<Req> = runs.iter().flat_map(|r| r.reqs.iter().cloned()).collect();
    let mut d = Deltas::default();
    for r in &runs {
        // Every incarnation's counters start from zero.
        for m in &r.msps {
            d.add(&MspSnap::default(), m);
        }
        d.net.push((NetStatsSnapshot::default(), r.net));
    }

    // The median restart's probe p50. A p99 needs the probes of
    // `min_restarts` restarts to have ten beyond it: the run cuts its
    // restarts into consecutive blocks of that many and reports the median
    // block's p99, as `steady` reports its median cycle's.
    let latencies = |rs: &[Restart]| -> Vec<f64> {
        rs.iter()
            .flat_map(|r| r.reqs.iter().map(Req::latency_ms))
            .collect()
    };
    let mut p50s = Vec::new();
    for r in &runs {
        p50s.push(pct(
            &mut latencies(std::slice::from_ref(r)),
            0.50,
            "probe latency",
        )?);
    }
    let mut p99s = Vec::new();
    for block in runs.chunks_exact(min_restarts) {
        p99s.push(pct(&mut latencies(block), 0.99, "probe latency")?);
    }
    let mut e2e = Metrics::default();
    e2e.put("req_p50_ms", median(&mut p50s));
    e2e.put("req_p99_ms", median(&mut p99s));
    e2e.put("committed_rps", committed as f64 / elapsed);
    e2e.put("log_bytes_per_req", per(d.log.appended_bytes, committed));
    restart_e2e(&mut e2e, &runs);
    e2e.put("setup_s", median(&mut setup_s));
    e2e.put("peak_rss_mb", peak_rss_mb());

    let facts = gen_facts(&all_reqs)?;
    let mut layer = Metrics::default();
    layer.put("base.committed", committed as f64);
    layer.put("base.restarts", restarts as f64);
    layer.put("base.image_mb", image_bytes as f64 / MB);
    layer.put(
        "proc.cpu_us_per_req",
        cpu.as_secs_f64() * 1e6 / committed.max(1) as f64,
    );
    common_layers(&mut layer, &d, &facts, committed, restarts);
    layer.put(
        "disk.read_amp",
        per(d.disk.read_bytes, restarts * image_bytes),
    );
    rec_layers(&mut layer, &runs);
    if traced {
        let mut spans = Vec::new();
        let mut reqs = Vec::new();
        for r in &runs {
            // Request ids are per restart; re-key them into one id space.
            let base = reqs.len() as u64;
            spans.extend(r.spans.iter().map(|s| match s.kind {
                Kind::M1 | Kind::M2 if !s.replay => Span {
                    key: s.key + base,
                    ..*s
                },
                _ => *s,
            }));
            reqs.extend(r.reqs.iter().cloned());
        }
        service_layers(&mut layer, &spans, &reqs, one_way_ms(RECOVERY_SCALE), false);
        layer.put("trace.spans", spans.len() as f64);
    }
    Ok(Run {
        attempted: facts.attempted,
        failed: facts.failed,
        e2e,
        layer,
    })
}
