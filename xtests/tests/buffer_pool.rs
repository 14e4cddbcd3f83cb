//! The process-wide recovery buffer pool and the overlapped recovery
//! phases must be invisible except in speed: clock eviction, the
//! scan-fed warm-in, the early-spawned replay pool, and the longest-first
//! prefetcher may only change *when* blocks are resident — never what
//! state recovery lands on. Every configuration below must be
//! byte-identical to the serial baseline on the same crash image.

use std::sync::Arc;
use std::time::Duration;

use msp_core::client::ClientOptions;
use msp_core::config::LoggingConfig;
use msp_core::{ClusterConfig, Envelope, MspBuilder, MspClient, MspConfig};
use msp_harness::await_recovery;
use msp_net::{NetModel, Network};
use msp_types::{DomainId, MspId};
use msp_wal::{DiskModel, MemDisk};

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

fn start_solo(net: &Network<Envelope>, disk: Arc<MemDisk>, cfg: MspConfig) -> msp_core::MspHandle {
    MspBuilder::new(cfg, ClusterConfig::new().with_msp(M1, DomainId(1)))
        .disk_model(DiskModel::zero())
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
        .start(net, disk)
        .unwrap()
}

/// A crash image with interleaved sessions: `clients` sessions, each
/// `calls` requests, issued round-robin so the replay windows overlap.
fn crash_image(clients: u64, calls: u64) -> Vec<u8> {
    let net: Network<Envelope> = Network::new(NetModel::zero(), 41);
    let disk = Arc::new(MemDisk::new());
    let handle = start_solo(&net, Arc::clone(&disk), solo_cfg());
    let mut cs: Vec<MspClient> = (0..clients)
        .map(|i| MspClient::new(&net, 800 + i, ClientOptions::default()))
        .collect();
    for round in 0..calls {
        for (i, c) in cs.iter_mut().enumerate() {
            let payload = vec![(i as u8).wrapping_mul(13) ^ (round as u8); 48 + i];
            let r = c.call(M1, "work", &payload).unwrap();
            assert_eq!(
                u64::from_le_bytes(r[..8].try_into().unwrap()),
                (round + 1) * 7
            );
        }
    }
    handle.crash();
    let image = disk.snapshot();
    net.shutdown();
    image
}

type Recovered = (
    Vec<(msp_types::SessionId, Vec<u8>)>,
    Vec<Vec<u8>>,
    msp_types::Epoch,
);

fn recover(image: &[u8], cfg: MspConfig, net_seed: u64) -> (Recovered, msp_wal::PoolStatsSnapshot) {
    let net: Network<Envelope> = Network::new(NetModel::zero(), net_seed);
    let disk = Arc::new(MemDisk::new());
    use msp_wal::Disk;
    disk.write(0, image).unwrap();
    let handle = start_solo(&net, disk, cfg);
    await_recovery(&handle, Duration::from_secs(60), "buffer_pool");
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
