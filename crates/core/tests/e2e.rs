//! End-to-end tests of the recovery runtime: normal execution, unreliable
//! transport, crash recovery, orphan recovery, and the baselines.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use msp_core::client::ClientOptions;
use msp_core::config::LoggingConfig;
use msp_core::{
    ClusterConfig, Envelope, MspBuilder, MspClient, MspConfig, SessionStrategy, StateServer,
};
use msp_net::{EndpointId, NetModel, Network};
use msp_types::{DomainId, MspId};
use msp_wal::{DiskModel, MemDisk};

const MSP1: MspId = MspId(1);
const MSP2: MspId = MspId(2);

fn net() -> Network<Envelope> {
    Network::new(NetModel::zero(), 42)
}

fn lossy_net(seed: u64) -> Network<Envelope> {
    // Aggressive faults: 20% loss, 20% duplication, jittered delivery.
    let model = NetModel {
        one_way: Duration::from_micros(200),
        jitter: Duration::from_micros(400),
        drop_prob: 0.2,
        dup_prob: 0.2,
        time_scale: 1.0,
    };
    Network::new(model, seed)
}

fn cluster_same_domain() -> ClusterConfig {
    ClusterConfig::new()
        .with_msp(MSP1, DomainId(1))
        .with_msp(MSP2, DomainId(1))
}

fn cluster_split_domains() -> ClusterConfig {
    ClusterConfig::new()
        .with_msp(MSP1, DomainId(1))
        .with_msp(MSP2, DomainId(2))
}

fn fast_logging() -> LoggingConfig {
    LoggingConfig {
        session_ckpt_threshold: 1 << 20,
        shared_ckpt_writes: 64,
        msp_ckpt_interval: Duration::from_millis(50),
        force_ckpt_after: 8,
        checkpoints_enabled: true,
        checkpoint_interval_bytes: 0,
    }
}

fn cfg(id: MspId, domain: u32) -> MspConfig {
    MspConfig::new(id, DomainId(domain))
        .with_time_scale(0.0)
        .with_logging(fast_logging())
        .with_workers(4)
}

fn client(net: &Network<Envelope>, id: u64) -> MspClient {
    MspClient::new(
        net,
        id,
        ClientOptions {
            resend_timeout: Duration::from_millis(100),
            busy_backoff: Duration::from_millis(1),
            max_attempts: 10_000,
        },
    )
}

/// "counter": increments a session variable and returns its new value.
/// "read_sv" / "bump_sv": exercise a shared variable.
/// "relay": calls `counter` at MSP2 and combines results.
fn counter_msp(
    id: MspId,
    domain: u32,
    cluster: ClusterConfig,
    net: &Network<Envelope>,
    disk: Arc<MemDisk>,
    strategy: SessionStrategy,
) -> msp_core::MspHandle {
    MspBuilder::new(cfg(id, domain).with_strategy(strategy), cluster)
        .disk_model(DiskModel::zero())
        .shared_var("SV", 0u64.to_le_bytes().to_vec())
        .service("counter", |ctx, _payload| {
            let n = ctx
                .get_session("n")
                .map(|v| u64::from_le_bytes(v.try_into().unwrap()))
                .unwrap_or(0)
                + 1;
            ctx.set_session("n", n.to_le_bytes().to_vec());
            Ok(n.to_le_bytes().to_vec())
        })
        .service("bump_sv", |ctx, _payload| {
            let cur = u64::from_le_bytes(ctx.read_shared("SV")?.try_into().unwrap());
            ctx.write_shared("SV", (cur + 1).to_le_bytes().to_vec())?;
            Ok((cur + 1).to_le_bytes().to_vec())
        })
        .service("read_sv", |ctx, _payload| ctx.read_shared("SV"))
        .service("relay", |ctx, payload| {
            let theirs = ctx.call(MspId(2), "counter", payload)?;
            let mine = ctx
                .get_session("m")
                .map(|v| u64::from_le_bytes(v.try_into().unwrap()))
                .unwrap_or(0)
                + 1;
            ctx.set_session("m", mine.to_le_bytes().to_vec());
            let mut out = mine.to_le_bytes().to_vec();
            out.extend_from_slice(&theirs);
            Ok(out)
        })
        .service("fail", |_ctx, _payload| Err("deliberate".to_string()))
        .start(net, disk)
        .unwrap()
}

fn as_u64(v: &[u8]) -> u64 {
    u64::from_le_bytes(v[..8].try_into().unwrap())
}

#[test]
fn single_msp_exactly_once_counter() {
    let net = net();
    let disk = Arc::new(MemDisk::new());
    let msp = counter_msp(
        MSP1,
        1,
        cluster_same_domain(),
        &net,
        disk,
        SessionStrategy::LogBased,
    );
    let mut c = client(&net, 1);
    for i in 1..=20u64 {
        let r = c.call(MSP1, "counter", &[]).unwrap();
        assert_eq!(as_u64(&r), i);
    }
    assert_eq!(msp.stats().requests, 20);
    msp.shutdown();
    net.shutdown();
}

#[test]
fn application_errors_propagate() {
    let net = net();
    let disk = Arc::new(MemDisk::new());
    let msp = counter_msp(
        MSP1,
        1,
        cluster_same_domain(),
        &net,
        disk,
        SessionStrategy::LogBased,
    );
    let mut c = client(&net, 1);
    let err = c.call(MSP1, "fail", &[]).unwrap_err();
    assert!(err.to_string().contains("deliberate"));
    // The session keeps working afterwards.
    assert_eq!(as_u64(&c.call(MSP1, "counter", &[]).unwrap()), 1);
    msp.shutdown();
    net.shutdown();
}

#[test]
fn unknown_method_is_an_error() {
    let net = net();
    let disk = Arc::new(MemDisk::new());
    let msp = counter_msp(
        MSP1,
        1,
        cluster_same_domain(),
        &net,
        disk,
        SessionStrategy::LogBased,
    );
    let mut c = client(&net, 1);
    let err = c.call(MSP1, "nope", &[]).unwrap_err();
    assert!(err.to_string().contains("no such method"));
    msp.shutdown();
    net.shutdown();
}

#[test]
fn oversized_request_is_rejected_without_a_panic() {
    // Count panics on every thread from here on; the previous hook still
    // reports them.
    static PANICS: AtomicUsize = AtomicUsize::new(0);
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        report(info);
    }));
    let panics_before = PANICS.load(Ordering::SeqCst);

    let net = net();
    let disk = Arc::new(MemDisk::new());
    let msp = counter_msp(
        MSP1,
        1,
        cluster_same_domain(),
        &net,
        disk,
        SessionStrategy::LogBased,
    );
    // Few resends: a worker that died on the request shows up as a
    // timeout instead of a long hang.
    let mut c = MspClient::new(
        &net,
        1,
        ClientOptions {
            resend_timeout: Duration::from_millis(200),
            busy_backoff: Duration::from_millis(1),
            max_attempts: 5,
        },
    );
    let err = c.call(MSP1, "counter", &vec![0u8; 8 << 20]).unwrap_err();
    assert!(
        err.to_string().contains("exceeds the log's record bound"),
        "expected an error reply, got {err}"
    );
    // The rejected request was neither logged nor executed, and the
    // session goes on to serve the next one.
    assert_eq!(as_u64(&c.call(MSP1, "counter", &[]).unwrap()), 1);
    assert_eq!(msp.stats().requests, 1);
    assert_eq!(
        PANICS.load(Ordering::SeqCst),
        panics_before,
        "a thread panicked"
    );
    msp.shutdown();
    net.shutdown();
}

#[test]
fn two_msps_relay_and_shared_state() {
    let net = net();
    let cluster = cluster_same_domain();
    let d1 = Arc::new(MemDisk::new());
    let d2 = Arc::new(MemDisk::new());
    let m1 = counter_msp(
        MSP1,
        1,
        cluster.clone(),
        &net,
        d1,
        SessionStrategy::LogBased,
    );
    let m2 = counter_msp(MSP2, 1, cluster, &net, d2, SessionStrategy::LogBased);
    let mut c = client(&net, 1);
    for i in 1..=10u64 {
        let r = c.call(MSP1, "relay", &[]).unwrap();
        assert_eq!(as_u64(&r[..8]), i, "MSP1's session counter");
        assert_eq!(
            as_u64(&r[8..]),
            i,
            "MSP2's session counter via outgoing session"
        );
    }
    // Shared variable on MSP1.
    for i in 1..=5u64 {
        assert_eq!(as_u64(&c.call(MSP1, "bump_sv", &[]).unwrap()), i);
    }
    assert_eq!(as_u64(&c.call(MSP1, "read_sv", &[]).unwrap()), 5);
    m1.shutdown();
    m2.shutdown();
    net.shutdown();
}

#[test]
fn exactly_once_over_lossy_network() {
    let net = lossy_net(7);
    let cluster = cluster_same_domain();
    let d1 = Arc::new(MemDisk::new());
    let d2 = Arc::new(MemDisk::new());
    let m1 = counter_msp(
        MSP1,
        1,
        cluster.clone(),
        &net,
        d1,
        SessionStrategy::LogBased,
    );
    let m2 = counter_msp(MSP2, 1, cluster, &net, d2, SessionStrategy::LogBased);
    let mut c = client(&net, 1);
    // Counters must advance exactly once per logical request despite
    // drops, duplicates and reordering.
    for i in 1..=30u64 {
        let r = c.call(MSP1, "relay", &[]).unwrap();
        assert_eq!(as_u64(&r[..8]), i);
        assert_eq!(as_u64(&r[8..]), i);
    }
    // Shared-variable increments are exactly-once too.
    for i in 1..=10u64 {
        assert_eq!(as_u64(&c.call(MSP1, "bump_sv", &[]).unwrap()), i);
    }
    m1.shutdown();
    m2.shutdown();
    net.shutdown();
}

#[test]
fn crash_recovery_restores_sessions_and_shared_state() {
    let net = net();
    let cluster = cluster_same_domain();
    let disk = Arc::new(MemDisk::new());
    let m1 = counter_msp(
        MSP1,
        1,
        cluster.clone(),
        &net,
        Arc::clone(&disk),
        SessionStrategy::LogBased,
    );
    let mut c = client(&net, 1);
    for i in 1..=10u64 {
        assert_eq!(as_u64(&c.call(MSP1, "counter", &[]).unwrap()), i);
    }
    for i in 1..=4u64 {
        assert_eq!(as_u64(&c.call(MSP1, "bump_sv", &[]).unwrap()), i);
    }
    m1.crash();

    // Restart over the same disk: session and shared state recover.
    let m1b = counter_msp(MSP1, 1, cluster, &net, disk, SessionStrategy::LogBased);
    assert_eq!(m1b.stats().crash_recoveries, 1);
    // The same client (same session) keeps counting where it left off.
    for i in 11..=15u64 {
        assert_eq!(as_u64(&c.call(MSP1, "counter", &[]).unwrap()), i);
    }
    assert_eq!(
        as_u64(&c.call(MSP1, "read_sv", &[]).unwrap()),
        4,
        "shared state rolled forward"
    );
    assert_eq!(as_u64(&c.call(MSP1, "bump_sv", &[]).unwrap()), 5);
    m1b.shutdown();
    net.shutdown();
}

#[test]
fn crash_mid_traffic_preserves_exactly_once() {
    // The client hammers the MSP while it crashes; after restart the
    // counter must continue without gaps or repeats from the client's
    // point of view.
    let net = net();
    let cluster = cluster_same_domain();
    let disk = Arc::new(MemDisk::new());
    let m1 = counter_msp(
        MSP1,
        1,
        cluster.clone(),
        &net,
        Arc::clone(&disk),
        SessionStrategy::LogBased,
    );
    let mut c = client(&net, 1);
    for i in 1..=5u64 {
        assert_eq!(as_u64(&c.call(MSP1, "counter", &[]).unwrap()), i);
    }
    m1.crash();
    // Fire a request while the MSP is down; it will be resent until the
    // restarted MSP answers.
    let handle = std::thread::spawn({
        let net = net.clone();
        move || {
            // A second client talking to the dead MSP must also converge.
            let mut c2 = client(&net, 2);
            c2.call(MSP1, "counter", &[]).map(|r| as_u64(&r))
        }
    });
    std::thread::sleep(Duration::from_millis(50));
    let m1b = counter_msp(MSP1, 1, cluster, &net, disk, SessionStrategy::LogBased);
    assert_eq!(as_u64(&c.call(MSP1, "counter", &[]).unwrap()), 6);
    assert_eq!(
        handle.join().unwrap().unwrap(),
        1,
        "fresh session starts at 1"
    );
    m1b.shutdown();
    net.shutdown();
}

#[test]
fn orphan_recovery_after_peer_crash() {
    // LoOptimistic: both MSPs in one domain. MSP2 crashes right after
    // replying, losing its buffered log records; MSP1's session becomes
    // an orphan and must roll back, re-executing against the recovered
    // MSP2 — exactly once from the client's point of view.
    let net = net();
    let cluster = cluster_same_domain();
    let d1 = Arc::new(MemDisk::new());
    let d2 = Arc::new(MemDisk::new());
    let m1 = counter_msp(
        MSP1,
        1,
        cluster.clone(),
        &net,
        Arc::clone(&d1),
        SessionStrategy::LogBased,
    );
    let m2 = counter_msp(
        MSP2,
        1,
        cluster.clone(),
        &net,
        Arc::clone(&d2),
        SessionStrategy::LogBased,
    );
    let mut c = client(&net, 1);
    for i in 1..=5u64 {
        let r = c.call(MSP1, "relay", &[]).unwrap();
        assert_eq!((as_u64(&r[..8]), as_u64(&r[8..])), (i, i));
    }
    // Kill MSP2 with its log tail unflushed (optimistic logging means the
    // records behind the replies MSP1 consumed may not be durable).
    m2.crash();
    let m2b = counter_msp(MSP2, 1, cluster, &net, d2, SessionStrategy::LogBased);
    // Continue: whatever was lost is re-executed; the end-to-end
    // sequence stays exactly-once.
    for i in 6..=10u64 {
        let r = c.call(MSP1, "relay", &[]).unwrap();
        assert_eq!(
            as_u64(&r[..8]),
            i,
            "MSP1 session counter survives peer crash"
        );
        assert_eq!(as_u64(&r[8..]), i, "MSP2 session counter is exactly-once");
    }
    m1.shutdown();
    m2b.shutdown();
    net.shutdown();
}

#[test]
fn pessimistic_cross_domain_configuration_works() {
    let net = net();
    let cluster = cluster_split_domains();
    let d1 = Arc::new(MemDisk::new());
    let d2 = Arc::new(MemDisk::new());
    let m1 = counter_msp(
        MSP1,
        1,
        cluster.clone(),
        &net,
        d1,
        SessionStrategy::LogBased,
    );
    let m2 = counter_msp(MSP2, 2, cluster, &net, d2, SessionStrategy::LogBased);
    let mut c = client(&net, 1);
    for i in 1..=10u64 {
        let r = c.call(MSP1, "relay", &[]).unwrap();
        assert_eq!((as_u64(&r[..8]), as_u64(&r[8..])), (i, i));
    }
    // Pessimistic logging means MSP1 flushed before sending request2 and
    // before each reply: at least 2 flushes per request plus MSP2's.
    let flushes = m1.log_stats().unwrap().flushes;
    assert!(
        flushes >= 20,
        "pessimistic logging must flush per message, got {flushes}"
    );
    m1.shutdown();
    m2.shutdown();
    net.shutdown();
}

#[test]
fn locally_optimistic_uses_fewer_flushes_than_pessimistic() {
    // The paper's headline: one (distributed, parallel) flush per end
    // client request instead of 2m+1 sequential ones.
    let run = |cluster: ClusterConfig, d1: Arc<MemDisk>, d2: Arc<MemDisk>| {
        let net = net();
        let dom2 = cluster.domain_of(MSP2).unwrap().0;
        let m1 = counter_msp(
            MSP1,
            1,
            cluster.clone(),
            &net,
            d1,
            SessionStrategy::LogBased,
        );
        let m2 = counter_msp(MSP2, dom2, cluster, &net, d2, SessionStrategy::LogBased);
        let mut c = client(&net, 1);
        for _ in 0..20 {
            c.call(MSP1, "relay", &[]).unwrap();
        }
        let total = m1.log_stats().unwrap().flushes + m2.log_stats().unwrap().flushes;
        m1.shutdown();
        m2.shutdown();
        net.shutdown();
        total
    };
    let optimistic = run(
        cluster_same_domain(),
        Arc::new(MemDisk::new()),
        Arc::new(MemDisk::new()),
    );
    let pessimistic = run(
        cluster_split_domains(),
        Arc::new(MemDisk::new()),
        Arc::new(MemDisk::new()),
    );
    assert!(
        optimistic < pessimistic,
        "locally optimistic ({optimistic} flushes) must beat pessimistic ({pessimistic})"
    );
}

#[test]
fn nolog_baseline_works_without_a_log() {
    let net = net();
    let disk = Arc::new(MemDisk::new());
    let msp = counter_msp(
        MSP1,
        1,
        cluster_same_domain(),
        &net,
        disk,
        SessionStrategy::NoLog,
    );
    let mut c = client(&net, 1);
    for i in 1..=10u64 {
        assert_eq!(as_u64(&c.call(MSP1, "counter", &[]).unwrap()), i);
    }
    assert!(msp.log_stats().is_none());
    msp.shutdown();
    net.shutdown();
}

#[test]
fn psession_baseline_round_trips_the_database() {
    let net = net();
    let db = Arc::new(
        msp_kv::KvStore::open(
            Arc::new(MemDisk::new()),
            DiskModel::zero(),
            msp_kv::KvOptions::zero(),
        )
        .unwrap(),
    );
    let disk = Arc::new(MemDisk::new());
    let msp = counter_msp(
        MSP1,
        1,
        cluster_same_domain(),
        &net,
        disk,
        SessionStrategy::Psession(Arc::clone(&db)),
    );
    let mut c = client(&net, 1);
    for i in 1..=10u64 {
        assert_eq!(as_u64(&c.call(MSP1, "counter", &[]).unwrap()), i);
    }
    let stats = db.stats();
    assert_eq!(stats.read_txns, 10, "a read transaction per request");
    assert_eq!(stats.write_txns, 10, "a write transaction per request");
    msp.shutdown();
    net.shutdown();
}

#[test]
fn state_server_baseline_stores_and_survives_worker_restart() {
    let net = net();
    let server_ep = EndpointId::Client(999);
    let server = StateServer::start(&net, server_ep);
    let disk = Arc::new(MemDisk::new());
    let msp = counter_msp(
        MSP1,
        1,
        cluster_same_domain(),
        &net,
        Arc::clone(&disk),
        SessionStrategy::StateServer(server_ep),
    );
    let mut c = client(&net, 1);
    for i in 1..=5u64 {
        assert_eq!(as_u64(&c.call(MSP1, "counter", &[]).unwrap()), i);
    }
    assert_eq!(server.len(), 1);
    // Restart the worker (not the state server): the session state comes
    // back from the state server.
    msp.shutdown();
    let msp2 = counter_msp(
        MSP1,
        1,
        cluster_same_domain(),
        &net,
        Arc::new(MemDisk::new()),
        SessionStrategy::StateServer(server_ep),
    );
    for i in 6..=8u64 {
        assert_eq!(as_u64(&c.call(MSP1, "counter", &[]).unwrap()), i);
    }
    msp2.shutdown();
    server.shutdown();
    net.shutdown();
}

#[test]
fn session_checkpoints_are_taken_and_bound_replay() {
    let net = net();
    let cluster = cluster_same_domain();
    let disk = Arc::new(MemDisk::new());
    let logging = LoggingConfig {
        session_ckpt_threshold: 400, // tiny: checkpoint every ~8 requests
        ..fast_logging()
    };
    let m1 = MspBuilder::new(cfg(MSP1, 1).with_logging(logging.clone()), cluster.clone())
        .disk_model(DiskModel::zero())
        .shared_var("SV", 0u64.to_le_bytes().to_vec())
        .service("counter", |ctx, _| {
            let n = ctx
                .get_session("n")
                .map(|v| u64::from_le_bytes(v.try_into().unwrap()))
                .unwrap_or(0)
                + 1;
            ctx.set_session("n", n.to_le_bytes().to_vec());
            Ok(n.to_le_bytes().to_vec())
        })
        .start(&net, Arc::clone(&disk) as Arc<dyn msp_wal::Disk>)
        .unwrap();
    let mut c = client(&net, 1);
    for i in 1..=60u64 {
        assert_eq!(as_u64(&c.call(MSP1, "counter", &[]).unwrap()), i);
    }
    let ckpts = m1.stats().session_checkpoints;
    assert!(
        ckpts >= 2,
        "expected several session checkpoints, got {ckpts}"
    );
    m1.crash();

    let m1b = MspBuilder::new(cfg(MSP1, 1).with_logging(logging), cluster)
        .disk_model(DiskModel::zero())
        .shared_var("SV", 0u64.to_le_bytes().to_vec())
        .service("counter", |ctx, _| {
            let n = ctx
                .get_session("n")
                .map(|v| u64::from_le_bytes(v.try_into().unwrap()))
                .unwrap_or(0)
                + 1;
            ctx.set_session("n", n.to_le_bytes().to_vec());
            Ok(n.to_le_bytes().to_vec())
        })
        .start(&net, disk)
        .unwrap();
    assert_eq!(as_u64(&c.call(MSP1, "counter", &[]).unwrap()), 61);
    // Replay was bounded by the checkpoint: far fewer requests replayed
    // than were ever executed.
    let replayed = m1b.stats().replayed_requests;
    assert!(
        replayed < 60,
        "checkpoint must bound replay, replayed {replayed}"
    );
    m1b.shutdown();
    net.shutdown();
}

#[test]
fn end_session_discards_state() {
    let net = net();
    let disk = Arc::new(MemDisk::new());
    let msp = counter_msp(
        MSP1,
        1,
        cluster_same_domain(),
        &net,
        disk,
        SessionStrategy::LogBased,
    );
    let mut c = client(&net, 1);
    assert_eq!(as_u64(&c.call(MSP1, "counter", &[]).unwrap()), 1);
    assert_eq!(msp.session_count(), 1);
    c.end_session(MSP1).unwrap();
    assert_eq!(msp.session_count(), 0);
    // A new session starts fresh.
    assert_eq!(as_u64(&c.call(MSP1, "counter", &[]).unwrap()), 1);
    msp.shutdown();
    net.shutdown();
}

#[test]
fn concurrent_clients_have_isolated_sessions() {
    let net = net();
    let disk = Arc::new(MemDisk::new());
    let msp = counter_msp(
        MSP1,
        1,
        cluster_same_domain(),
        &net,
        disk,
        SessionStrategy::LogBased,
    );
    let net2 = net.clone();
    let mut handles = Vec::new();
    for cid in 0..6u64 {
        let net = net2.clone();
        handles.push(std::thread::spawn(move || {
            let mut c = client(&net, cid);
            for i in 1..=15u64 {
                let r = c.call(MSP1, "counter", &[]).unwrap();
                assert_eq!(as_u64(&r), i, "client {cid} sees its own counter");
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(msp.session_count(), 6);
    msp.shutdown();
    net.shutdown();
}
