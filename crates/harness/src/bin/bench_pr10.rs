//! Macro-benchmark for the process-wide buffer pool, overlapped
//! recovery, and the adaptive logging diet (PR 10).
//!
//! **Part A — cold-cache MTTR.** Builds the §5.2-flavoured crash image
//! (interleaved sessions, checkpoints disabled so every replay window
//! spans the whole log), then restarts it under a scaled disk model
//! twice: the cold baseline (no scan-fed warm-in, strictly sequenced
//! phases — replay demand-reads the log a second time, helped only by
//! the longest-first prefetcher) and the full overlapped configuration.
//! The gate requires the full configuration to beat the cold baseline by
//! ≥1.3× on restart-to-recovered wall clock.
//!
//! **Part B — hot-path log bytes per operation.** A solo MSP runs a
//! shared-variable RMW workload routed through a registered shared op;
//! the identical call sequence is driven with the adaptive diet off
//! (every RMW logs the read-DV + full-value write pair) and on (a
//! compact `SharedOp` record while the chain stays short). The gate
//! requires ≥20% fewer appended log bytes per call under the diet.
//!
//! Results go to `BENCH_PR10.json`, mirrored on stdout.
//!
//! ```text
//! bench_pr10 [--calls N] [--scale S] [--ops N]
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use msp_core::config::LoggingConfig;
use msp_core::{ClusterConfig, Envelope, MspBuilder, MspClient, MspConfig};
use msp_harness::metrics::RecoveryPhases;
use msp_net::{NetModel, Network};
use msp_types::{DomainId, MspId};
use msp_wal::{Disk, DiskModel, FlushPolicy, MemDisk, PoolStatsSnapshot};

const MSP: MspId = MspId(1);

fn cluster() -> ClusterConfig {
    ClusterConfig::new().with_msp(MSP, DomainId(1))
}

fn base_cfg() -> MspConfig {
    MspConfig::new(MSP, DomainId(1))
        .with_time_scale(0.0)
        .with_workers(4)
        .with_logging(LoggingConfig {
            checkpoints_enabled: false,
            ..LoggingConfig::default()
        })
}

// ---------------------------------------------------------------- Part A

fn build_msp(
    net: &Network<Envelope>,
    disk: Arc<MemDisk>,
    cfg: MspConfig,
    model: DiskModel,
) -> msp_core::MspHandle {
    MspBuilder::new(cfg, cluster())
        .disk_model(model)
        .flush_policy(FlushPolicy::per_request())
        .shared_var("sv", 0u64.to_le_bytes().to_vec())
        .service("work", |ctx, payload| {
            let n = ctx
                .get_session("n")
                .map(|v| u64::from_le_bytes(v[..8].try_into().unwrap()))
                .unwrap_or(0)
                + 1;
            ctx.set_session("n", n.to_le_bytes().to_vec());
            ctx.set_session("state", vec![(n % 251) as u8; 512]);
            let sv = u64::from_le_bytes(ctx.read_shared("sv")?[..8].try_into().unwrap()) + 1;
            ctx.write_shared("sv", sv.to_le_bytes().to_vec())?;
            let _ = payload;
            Ok(n.to_le_bytes().to_vec())
        })
        .start(net, disk)
        .expect("start MSP")
}

fn build_crash_image(sessions: u64, calls: u64) -> Vec<u8> {
    let net: Network<Envelope> = Network::new(NetModel::zero(), 31 + sessions);
    let disk = Arc::new(MemDisk::new());
    let handle = build_msp(&net, Arc::clone(&disk), base_cfg(), DiskModel::zero());
    let mut clients: Vec<MspClient> = (0..sessions)
        .map(|i| MspClient::new(&net, 100 + i, Default::default()))
        .collect();
    let payload = vec![0x42u8; 100];
    for round in 0..calls {
        for (i, c) in clients.iter_mut().enumerate() {
            let r = c.call(MSP, "work", &payload).expect("load call");
            assert_eq!(
                u64::from_le_bytes(r[..8].try_into().unwrap()),
                round + 1,
                "session {i} out of step during load"
            );
        }
    }
    handle.crash();
    let image = disk.snapshot();
    net.shutdown();
    image
}

struct RunResult {
    mttr: Duration,
    phases: RecoveryPhases,
    pool: PoolStatsSnapshot,
}

impl RunResult {
    fn hit_rate(&self) -> f64 {
        let total = self.pool.pool_hits + self.pool.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.pool.pool_hits as f64 / total as f64
        }
    }
}

fn run_recovery(image: &[u8], cfg: MspConfig, scale: f64) -> RunResult {
    let net: Network<Envelope> = Network::new(NetModel::zero(), 7);
    let disk = Arc::new(MemDisk::new());
    disk.write(0, image).expect("restore crash image");
    let model = DiskModel::default().with_scale(scale);
    let t0 = Instant::now();
    let handle = build_msp(&net, Arc::clone(&disk), cfg, model);
    msp_harness::await_recovery(&handle, Duration::from_secs(120), "bench_pr10");
    let mttr = t0.elapsed();
    let stats = handle.stats();
    let pool = handle.pool_stats();
    handle.shutdown();
    net.shutdown();
    RunResult {
        mttr,
        phases: RecoveryPhases::from_stats(&stats),
        pool,
    }
}

fn recovery_json(mode: &str, r: &RunResult) -> String {
    format!(
        concat!(
            "{{ \"mode\": \"{}\", \"mttr_ms\": {:.3}, ",
            "\"analysis_ms\": {:.3}, \"replay_ms\": {:.3}, ",
            "\"pool_hits\": {}, \"pool_misses\": {}, \"pool_evictions\": {}, ",
            "\"pool_prefetch_hits\": {}, \"pool_prefetched_blocks\": {}, ",
            "\"hit_rate\": {:.3} }}"
        ),
        mode,
        r.mttr.as_secs_f64() * 1e3,
        r.phases.analysis_ms(),
        r.phases.replay_ms(),
        r.pool.pool_hits,
        r.pool.pool_misses,
        r.pool.pool_evictions,
        r.pool.pool_prefetch_hits,
        r.pool.pool_prefetched_blocks,
        r.hit_rate(),
    )
}

// ---------------------------------------------------------------- Part B

/// Solo MSP whose service routes its shared-variable RMW through the
/// registered `add` op; with the diet off the same call logs the
/// read-DV + full-value pair instead.
fn build_diet_msp(
    net: &Network<Envelope>,
    disk: Arc<MemDisk>,
    adaptive: bool,
) -> msp_core::MspHandle {
    MspBuilder::new(
        base_cfg().with_workers(2).with_adaptive_logging(adaptive),
        cluster(),
    )
    .disk_model(DiskModel::zero())
    .shared_var("total", vec![0u8; 256])
    .shared_op("add", |old, args| {
        let n = u64::from_le_bytes(old[..8].try_into().unwrap())
            + u64::from(args.first().copied().unwrap_or(1));
        let mut v = vec![0u8; 256];
        v[..8].copy_from_slice(&n.to_le_bytes());
        v
    })
    .service("tick", |ctx, payload| {
        let n = ctx
            .get_session("n")
            .map(|v| u64::from_le_bytes(v[..8].try_into().unwrap()))
            .unwrap_or(0)
            + 1;
        ctx.set_session("n", n.to_le_bytes().to_vec());
        ctx.apply_shared("total", "add", payload)?;
        Ok(n.to_le_bytes().to_vec())
    })
    .start(net, disk)
    .expect("start diet MSP")
}

/// Drive `ops` RMW calls and return appended log bytes per call.
fn run_diet(adaptive: bool, ops: u64) -> f64 {
    let net: Network<Envelope> = Network::new(NetModel::zero(), 17);
    let disk = Arc::new(MemDisk::new());
    let handle = build_diet_msp(&net, Arc::clone(&disk), adaptive);
    let mut client = MspClient::new(&net, 1, Default::default());
    for i in 1..=ops {
        let r = client.call(MSP, "tick", &[1]).expect("diet call");
        assert_eq!(u64::from_le_bytes(r[..8].try_into().unwrap()), i);
    }
    let appended = handle
        .log_stats()
        .expect("log-based MSP has log stats")
        .appended_bytes;
    let total = handle.dump_shared()[0].clone();
    assert_eq!(
        u64::from_le_bytes(total[..8].try_into().unwrap()),
        ops,
        "RMW total wrong (adaptive={adaptive})"
    );
    handle.shutdown();
    net.shutdown();
    appended as f64 / ops as f64
}

fn main() {
    let mut calls = 24u64;
    let mut scale = 0.05f64;
    let mut ops = 2000u64;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--calls" => calls = it.next().and_then(|v| v.parse().ok()).unwrap_or(calls),
            "--scale" => scale = it.next().and_then(|v| v.parse().ok()).unwrap_or(scale),
            "--ops" => ops = it.next().and_then(|v| v.parse().ok()).unwrap_or(ops),
            other => eprintln!("ignoring unknown argument {other}"),
        }
    }
    let sessions = 64u64;

    // Part A: cold baseline vs the full overlapped machinery.
    let image = build_crash_image(sessions, calls);
    eprintln!(
        "crash image: {} sessions x {} calls, {} KB of log",
        sessions,
        calls,
        image.len() / 1024
    );
    let pool_cfg = || {
        base_cfg()
            .with_recovery_threads(8)
            .with_replay_cache_blocks(64)
    };
    let cold = run_recovery(&image, pool_cfg().with_overlapped_recovery(false), scale);
    eprintln!(
        "  cold (no warm-in): MTTR {:.1} ms (replay {:.1} ms, hit rate {:.2})",
        cold.mttr.as_secs_f64() * 1e3,
        cold.phases.replay_ms(),
        cold.hit_rate()
    );
    let full = run_recovery(&image, pool_cfg().with_overlapped_recovery(true), scale);
    let full_speedup = cold.mttr.as_secs_f64() / full.mttr.as_secs_f64();
    let full_hit_rate = full.hit_rate();
    eprintln!(
        "  full: MTTR {:.1} ms ({full_speedup:.2}x vs cold, hit rate {:.2}, {} warmed blocks)",
        full.mttr.as_secs_f64() * 1e3,
        full_hit_rate,
        full.pool.pool_prefetched_blocks
    );
    let rows = [recovery_json("cold", &cold), recovery_json("full", &full)];

    // Part B: log bytes per RMW call, diet off vs on.
    let bytes_value = run_diet(false, ops);
    let bytes_op = run_diet(true, ops);
    let reduction = 1.0 - bytes_op / bytes_value;
    eprintln!(
        "  diet: {bytes_value:.0} B/call value-logged -> {bytes_op:.0} B/call op-logged \
         ({:.1}% reduction over {ops} calls)",
        reduction * 100.0
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"pr10_buffer_pool_and_diet\",\n",
            "  \"workload\": {{ \"sessions\": {}, \"calls_per_session\": {}, ",
            "\"disk_scale\": {}, \"diet_ops\": {}, \"checkpoints\": false }},\n",
            "  \"recovery_runs\": [\n    {}\n  ],\n",
            "  \"summary\": {{\n",
            "    \"cold_mttr_ms\": {:.3},\n",
            "    \"full_speedup\": {:.2},\n",
            "    \"full_hit_rate\": {:.3},\n",
            "    \"log_bytes_per_op_value\": {:.1},\n",
            "    \"log_bytes_per_op_diet\": {:.1},\n",
            "    \"diet_reduction\": {:.3}\n",
            "  }}\n",
            "}}\n"
        ),
        sessions,
        calls,
        scale,
        ops,
        rows.join(",\n    "),
        cold.mttr.as_secs_f64() * 1e3,
        full_speedup,
        full_hit_rate,
        bytes_value,
        bytes_op,
        reduction,
    );

    print!("{json}");
    std::fs::write("BENCH_PR10.json", &json).expect("write BENCH_PR10.json");

    assert!(
        full_speedup >= 1.3,
        "overlapped recovery must beat the cold pool by >=1.3x, \
         got {full_speedup:.2}x"
    );
    assert!(
        reduction >= 0.20,
        "the adaptive diet must cut >=20% of hot-path log bytes per op, \
         got {:.1}%",
        reduction * 100.0
    );
    eprintln!(
        "wrote BENCH_PR10.json ({full_speedup:.2}x cold-cache MTTR, \
         {:.1}% log-byte reduction)",
        reduction * 100.0
    );
}
