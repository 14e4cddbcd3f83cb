//! The process-wide recovery buffer pool and the overlapped recovery
//! phases must be invisible except in speed: clock eviction, the
//! scan-fed warm-in, the early-spawned replay pool, and the longest-first
//! prefetcher may only change *when* blocks are resident — never what
//! state recovery lands on. Every configuration below must be
//! byte-identical to the serial baseline on the same crash image.
//! Concurrent misses on one block share a single device read, so every
//! read the pool counts installs a block.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use msp_core::client::ClientOptions;
use msp_core::config::LoggingConfig;
use msp_core::envelope::RequestMsg;
use msp_core::{ClusterConfig, Envelope, MspBuilder, MspClient, MspConfig, ReplyStatus};
use msp_harness::await_recovery;
use msp_net::{EndpointId, NetModel, Network};
use msp_types::{DomainId, MspId, RequestSeq, SessionId};
use msp_wal::{Disk, DiskModel, MemDisk, PoolStatsSnapshot};

const M1: MspId = MspId(1);

fn solo_cfg() -> MspConfig {
    MspConfig::new(M1, DomainId(1))
        .with_time_scale(0.0)
        .with_workers(4)
        .with_logging(LoggingConfig {
            checkpoints_enabled: false,
            ..LoggingConfig::default()
        })
}

fn start_solo(
    net: &Network<Envelope>,
    disks: &[Arc<MemDisk>],
    cfg: MspConfig,
    model: DiskModel,
) -> msp_core::MspHandle {
    let disks = disks
        .iter()
        .map(|d| Arc::clone(d) as Arc<dyn Disk>)
        .collect();
    MspBuilder::new(cfg, ClusterConfig::new().with_msp(M1, DomainId(1)))
        .disk_model(model)
        .shared_var("sv", 0u64.to_le_bytes().to_vec())
        .service("work", |ctx, payload| {
            let n = ctx
                .get_session("n")
                .map(|v| u64::from_le_bytes(v[..8].try_into().unwrap()))
                .unwrap_or(0)
                + 1;
            ctx.set_session("n", n.to_le_bytes().to_vec());
            ctx.set_session("blob", payload.to_vec());
            let sv = u64::from_le_bytes(ctx.read_shared("sv")?[..8].try_into().unwrap()) + 1;
            ctx.write_shared("sv", sv.to_le_bytes().to_vec())?;
            Ok((n * 7).to_le_bytes().to_vec())
        })
        .start_with_disks(net, disks)
        .unwrap()
}

/// A crash image with interleaved sessions: `clients` sessions, each
/// `calls` requests of `pad` + 48 + i bytes, issued round-robin so the
/// replay windows overlap. Returns one image per log disk (`stripes`
/// disks, or one for the plain log) and the sessions' ids.
fn crash_disks(
    clients: u64,
    calls: u64,
    stripes: usize,
    pad: usize,
) -> (Vec<Vec<u8>>, Vec<SessionId>) {
    let net: Network<Envelope> = Network::new(NetModel::zero(), 41);
    let disks: Vec<Arc<MemDisk>> = (0..stripes.max(1))
        .map(|_| Arc::new(MemDisk::new()))
        .collect();
    let cfg = solo_cfg().with_log_stripes(stripes);
    let handle = start_solo(&net, &disks, cfg, DiskModel::zero());
    let mut cs: Vec<MspClient> = (0..clients)
        .map(|i| MspClient::new(&net, 800 + i, ClientOptions::default()))
        .collect();
    for round in 0..calls {
        for (i, c) in cs.iter_mut().enumerate() {
            let payload = vec![(i as u8).wrapping_mul(13) ^ (round as u8); pad + 48 + i];
            let r = c.call(M1, "work", &payload).unwrap();
            assert_eq!(
                u64::from_le_bytes(r[..8].try_into().unwrap()),
                (round + 1) * 7
            );
        }
    }
    handle.crash();
    let images = disks.iter().map(|d| d.snapshot()).collect();
    let sessions = cs.iter().map(|c| c.session_with(M1).unwrap()).collect();
    net.shutdown();
    (images, sessions)
}

fn crash_image(clients: u64, calls: u64) -> Vec<u8> {
    crash_disks(clients, calls, 0, 0).0.remove(0)
}

type Recovered = (
    Vec<(msp_types::SessionId, Vec<u8>)>,
    Vec<Vec<u8>>,
    msp_types::Epoch,
);

fn recover(image: &[u8], cfg: MspConfig, net_seed: u64) -> (Recovered, PoolStatsSnapshot) {
    recover_racing(&[image.to_vec()], cfg, DiskModel::zero(), &[], net_seed)
}

/// Recover `images` while resending each of `resends` — `(session, last
/// seq)` — the moment the MSP is up: the resends are answered from the
/// buffered replies and change no state, but each makes a worker recover
/// its session inline, racing the replay threads and the prefetcher for
/// the same pool blocks.
fn recover_racing(
    images: &[Vec<u8>],
    cfg: MspConfig,
    model: DiskModel,
    resends: &[(SessionId, RequestSeq)],
    net_seed: u64,
) -> (Recovered, PoolStatsSnapshot) {
    let net: Network<Envelope> = Network::new(NetModel::zero(), net_seed);
    let disks: Vec<Arc<MemDisk>> = images
        .iter()
        .map(|image| {
            let disk = Arc::new(MemDisk::new());
            disk.write(0, image).unwrap();
            disk
        })
        .collect();
    let handle = start_solo(&net, &disks, cfg, model);
    let me = EndpointId::Client(900);
    let ep = net.register(me);
    let resend = |&(session, seq): &(SessionId, RequestSeq)| {
        let req = RequestMsg {
            session,
            seq,
            method: "work".into(),
            payload: Vec::new(),
            reply_to: me,
            sender_dv: None,
            durable_hint: None,
            recoveries: Vec::new(),
        };
        ep.send(EndpointId::Msp(M1), Envelope::Request(req));
    };
    resends.iter().for_each(resend);
    let mut pending: HashSet<(SessionId, RequestSeq)> = resends.iter().copied().collect();
    let deadline = Instant::now() + Duration::from_secs(60);
    while !pending.is_empty() {
        assert!(
            Instant::now() < deadline,
            "{} resends unanswered",
            pending.len()
        );
        let Ok(Envelope::Reply(reply)) = ep.recv_timeout(Duration::from_millis(200)) else {
            pending.iter().for_each(resend);
            continue;
        };
        let key = (reply.session, reply.seq);
        match reply.status {
            ReplyStatus::Ok(_) => {
                pending.remove(&key);
            }
            ReplyStatus::Busy if pending.contains(&key) => {
                std::thread::sleep(Duration::from_millis(1));
                resend(&key);
            }
            ReplyStatus::Busy => {}
            ReplyStatus::Err(e) => panic!("resend of {key:?} failed: {e}"),
        }
    }
    await_recovery(&handle, Duration::from_secs(60), "buffer_pool");
    if !resends.is_empty() {
        // The premise: some resend beat the replay pool to its session.
        let by_pool = handle.stats().recovery_pool_sessions;
        assert!(
            by_pool < resends.len() as u64,
            "no session was recovered inline"
        );
    }
    let out = (handle.dump_sessions(), handle.dump_shared(), handle.epoch());
    let pool = handle.pool_stats();
    handle.shutdown();
    net.shutdown();
    (out, pool)
}

/// A small pool (4 × 64 KB) under eight replay threads lands on the
/// serial baseline's state.
#[test]
fn small_pool_is_byte_identical_to_serial() {
    let image = crash_image(32, 6);
    let (baseline, _) = recover(&image, solo_cfg().with_serial_recovery(true), 50);
    assert_eq!(baseline.0.len(), 32, "all 32 sessions recovered");

    let cfg = solo_cfg()
        .with_recovery_threads(8)
        .with_replay_cache_blocks(4);
    let (got, pool) = recover(&image, cfg, 51);
    assert_eq!(got, baseline, "4-block pool diverged from serial recovery");
    assert!(
        pool.pool_hits + pool.pool_misses > 0,
        "replay never touched the pool"
    );
}

/// The overlap machinery — scan-fed warm-in and replay spawned before the
/// recovery checkpoint — on and off, with the longest-first prefetcher
/// running in both, against the serial baseline. Value-logged
/// configurations must land on identical state regardless.
#[test]
fn overlapped_and_prefetched_recovery_match_serial() {
    let image = crash_image(24, 5);
    let (baseline, _) = recover(&image, solo_cfg().with_serial_recovery(true), 60);
    assert_eq!(baseline.0.len(), 24, "all 24 sessions recovered");

    for (seed, overlap) in [(61, false), (62, true)] {
        let cfg = solo_cfg()
            .with_recovery_threads(8)
            .with_replay_cache_blocks(8)
            .with_overlapped_recovery(overlap);
        let (got, pool) = recover(&image, cfg, seed);
        assert_eq!(got, baseline, "overlap={overlap} diverged from serial");
        if overlap {
            // The warm-in feeds every analysis-scan chunk into the pool,
            // so replay's demand reads find them resident.
            assert!(
                pool.pool_prefetched_blocks > 0,
                "overlapped recovery never warmed the pool"
            );
        }
    }
}

/// A pool of one block under eight replay threads: constant eviction,
/// overlap on and off, still byte-identical state.
#[test]
fn single_block_pool_thrashes_coherently() {
    let image = crash_image(16, 4);
    let (baseline, _) = recover(&image, solo_cfg().with_serial_recovery(true), 70);

    for (seed, overlap) in [(71, false), (72, true)] {
        let cfg = solo_cfg()
            .with_recovery_threads(8)
            .with_replay_cache_blocks(1)
            .with_overlapped_recovery(overlap);
        let (got, _) = recover(&image, cfg, seed);
        assert_eq!(
            got, baseline,
            "overlap={overlap} diverged with a single-block pool"
        );
    }
}

/// Parallel recovery over a pool a fraction of the image's size, with
/// eight replay threads, the prefetcher and inline recoveries all
/// reading the same blocks under a disk model that makes each read take
/// time. Concurrent misses on a block must share one device read, so
/// every read installs a block: misses plus prefetches never exceed
/// evictions plus the pool's capacity. Plain log and striped log; both
/// byte-identical to serial recovery.
#[test]
fn racing_misses_read_each_block_once() {
    const BLOCKS: usize = 4;
    const CALLS: u64 = 6;
    for stripes in [0, 2] {
        let (images, sessions) = crash_disks(48, CALLS, stripes, 1024);
        let base = solo_cfg().with_log_stripes(stripes);
        let serial = base.clone().with_serial_recovery(true);
        let (baseline, _) = recover_racing(&images, serial, DiskModel::zero(), &[], 80);
        assert_eq!(baseline.0.len(), 48, "all 48 sessions recovered");

        let resends: Vec<(SessionId, RequestSeq)> = sessions
            .iter()
            .map(|&sid| (sid, RequestSeq(CALLS - 1)))
            .collect();
        let cfg = base
            .with_recovery_threads(8)
            .with_replay_cache_blocks(BLOCKS);
        let model = DiskModel::default().with_scale(0.01);
        let (got, pool) = recover_racing(&images, cfg, model, &resends, 81);
        assert_eq!(got, baseline, "stripes={stripes}: diverged from serial");
        assert!(
            pool.pool_evictions > 0,
            "stripes={stripes}: the image must overflow the pool ({pool:?})"
        );
        assert!(
            pool.pool_misses + pool.pool_prefetched_blocks <= pool.pool_evictions + BLOCKS as u64,
            "stripes={stripes}: a device read installed nothing ({pool:?})"
        );
    }
}
