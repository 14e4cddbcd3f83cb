//! Starting the MSPs through the public builder, with the workload's
//! service methods — wrapped in spans on a traced run — and the
//! benchmark's own disks.

use std::sync::Arc;

use msp_core::config::LoggingConfig;
use msp_core::{ClusterConfig, Envelope, MspBuilder, MspConfig, MspHandle, ServiceContext};
use msp_harness::workload::{
    initial_shared, make_service_method1, service_method2, MSP1, MSP1_VARS, MSP2, MSP2_VARS,
};
use msp_net::Network;
use msp_types::{DomainId, MspId, MspResult};
use msp_wal::{Disk, DiskModel, FlushPolicy};

use crate::disk::{ChunkDisk, DiskCounts, TimedDisk};
use crate::gen::payload_id;
use crate::trace::{self, Kind, Span};

type Body = Box<dyn Fn(&mut ServiceContext<'_>, &[u8]) -> Result<Vec<u8>, String> + Send + Sync>;

/// Record one span per body execution, marked live or replay.
fn traced(kind: Kind, body: Body) -> Body {
    Box::new(move |ctx, payload| {
        let replay = ctx.is_replaying();
        let start = trace::now();
        let out = body(ctx, payload);
        trace::record(Span {
            kind,
            key: payload_id(payload),
            start,
            end: trace::now(),
            replay,
        });
        out
    })
}

/// How one MSP is run.
#[derive(Clone)]
pub struct Setup {
    /// Time scale of the disk, network and protocol models.
    pub scale: f64,
    pub logging: LoggingConfig,
    /// Record spans and hand the MSP a [`TimedDisk`].
    pub traced: bool,
}

/// One running MSP and the disk under it.
pub struct Msp {
    pub handle: MspHandle,
    pub disk: Arc<ChunkDisk>,
    timed: Option<Arc<TimedDisk>>,
}

impl Msp {
    /// Start MSP `id` of the paper workload over `disk` (which may hold a
    /// crash image to recover). MSP1 runs `ServiceMethod1` over SV0/SV1,
    /// MSP2 `ServiceMethod2` over SV2/SV3.
    pub fn start(
        net: &Network<Envelope>,
        cluster: &ClusterConfig,
        id: MspId,
        disk: Arc<ChunkDisk>,
        setup: &Setup,
    ) -> MspResult<Msp> {
        let model = DiskModel::default().with_scale(setup.scale);
        let cfg = MspConfig::new(id, cluster.domain_of(id).expect("MSP in cluster"))
            .with_time_scale(setup.scale)
            .with_logging(setup.logging.clone());
        let mut b = MspBuilder::new(cfg, cluster.clone())
            .disk_model(model.clone())
            // Group commit: every device write takes the whole tail.
            .flush_policy(FlushPolicy::immediate());
        let (vars, name, kind, body): (_, _, _, Body) = if id == MSP1 {
            (
                MSP1_VARS,
                "ServiceMethod1",
                Kind::M1,
                Box::new(make_service_method1(None, 0)),
            )
        } else {
            (
                MSP2_VARS,
                "ServiceMethod2",
                Kind::M2,
                Box::new(service_method2),
            )
        };
        for var in vars {
            b = b.shared_var(var, initial_shared());
        }
        let body = if setup.traced {
            traced(kind, body)
        } else {
            body
        };
        b = b.service(name, body);
        let timed = setup
            .traced
            .then(|| Arc::new(TimedDisk::new(Arc::clone(&disk), model)));
        let device: Arc<dyn Disk> = match &timed {
            Some(t) => Arc::clone(t) as Arc<dyn Disk>,
            None => Arc::clone(&disk) as Arc<dyn Disk>,
        };
        let handle = b.start_with_disks(net, vec![device])?;
        Ok(Msp {
            handle,
            disk,
            timed,
        })
    }

    /// The timed disk's counters (zero on an untraced run).
    pub fn disk_counts(&self) -> DiskCounts {
        self.timed.as_ref().map(|t| t.counts()).unwrap_or_default()
    }
}

/// MSP1 and MSP2 in one service domain: the LoOptimistic configuration.
pub fn pair_cluster() -> ClusterConfig {
    ClusterConfig::new()
        .with_msp(MSP1, DomainId(1))
        .with_msp(MSP2, DomainId(1))
}

/// MSP2 alone, the target of the recovery workload.
pub fn solo_cluster() -> ClusterConfig {
    ClusterConfig::new().with_msp(MSP2, DomainId(2))
}
