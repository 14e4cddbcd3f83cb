//! Recovery processing (§4): session orphan recovery, shared-state roll
//! forward, and MSP crash recovery.
//!
//! Three flows share the replay engine in [`crate::replay`]:
//!
//! * **Session orphan recovery** (§4.1) — a live session whose DV refers
//!   to a state some peer lost: reset to the last checkpoint and replay
//!   the position stream; replay terminates at the orphan record, writes
//!   an EOS, and the in-progress method continues live.
//! * **Session recovery after the scan** (§4.3) — the same procedure over
//!   a position stream rebuilt by the analysis scan, with the EOS-found
//!   handling for skip ranges recorded by pre-crash recoveries.
//! * **MSP crash recovery** (§4.3, Figure 12) — re-initialize from the
//!   anchored MSP checkpoint, run a pipelined analysis scan (a prefetch
//!   stage streams 64 KB chunks ahead of decode) that rebuilds position
//!   streams / rolls shared variables forward / gathers recovered-state
//!   knowledge, broadcast our own recovered state number, checkpoint,
//!   then replay all sessions **in parallel** on a dedicated recovery
//!   pool — longest window first, through a shared read-only block cache
//!   — while the worker pool is already accepting new work.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use msp_types::{Lsn, MspError, MspResult, RecoveryRecord, SessionId};
use msp_wal::log::DATA_START;
use msp_wal::record::MspCheckpointBody;
use msp_wal::{CrashPoint, LogRecord, PositionStream, WalReplayCache};

use crate::envelope::ReplyStatus;
use crate::replay::{Consume, ReplayCursor};
use crate::runtime::MspInner;
use crate::service::{take_fatal, ServiceContext};
use crate::session::{SessionCell, SessionState};

/// What `crash_recover` hands back to the builder.
pub(crate) struct RecoveryOutcome {
    /// Our recovery record to broadcast in the domain (`None` on a fresh
    /// log — nothing to recover, nothing to announce).
    pub announce: Option<RecoveryRecord>,
    /// Sessions to hand to the recovery pool, paired with their replay
    /// window's byte span and pre-ordered for the pool: longest window
    /// first (LPT makespan scheduling), or by id under `serial_recovery`.
    pub sessions_to_replay: Vec<(SessionId, u64)>,
}

impl MspInner {
    /// Recover one session to its most recent non-orphan state (§4.1).
    /// The caller holds the session's state lock, so new requests bounce
    /// with *Busy* until recovery completes.
    pub(crate) fn recover_session_locked(
        &self,
        cell: &SessionCell,
        st: &mut SessionState,
    ) -> MspResult<()> {
        let r = self.recover_session_inner(cell, st);
        if r.is_err() {
            // Leave a breadcrumb so the next interception retries.
            st.needs_recovery = true;
        }
        r
    }

    fn recover_session_inner(&self, cell: &SessionCell, st: &mut SessionState) -> MspResult<()> {
        self.stats.orphan_recoveries.fetch_add(1, Ordering::Relaxed);
        let log = self.log();
        let me = self.cfg.id;

        // During crash recovery all sessions share one read-only block
        // cache over the immutable crash-time log; outside it (live
        // orphan recovery, serial baseline) reads go to the log directly.
        let cache = self.replay_cache.lock().clone();

        // Snapshot the replay window, then reset the session to its most
        // recent checkpoint (or to a fresh state).
        let positions: Vec<Lsn> = st.positions.iter().collect();
        let ckpt_record = match st.last_ckpt {
            Some(ckpt) => Some((
                ckpt,
                match &cache {
                    Some(c) => c.read_record(ckpt)?,
                    None => log.read_record(ckpt)?,
                },
            )),
            None => None,
        };
        let restored = match ckpt_record {
            Some((ckpt, LogRecord::SessionCheckpoint { body, .. })) => {
                SessionState::restore_from_checkpoint(&body, me, self.epoch(), ckpt)
            }
            Some((ckpt, other)) => {
                return Err(MspError::LogCorrupt {
                    offset: ckpt.0,
                    reason: format!(
                        "session {} checkpoint anchor points at {}",
                        cell.id,
                        other.kind()
                    ),
                })
            }
            None => SessionState::fresh(),
        };
        *st = restored;

        // I/O accounting: with the shared cache, each 64 KB block is
        // charged once, on its cache miss — overlapping replay windows no
        // longer bill the same bytes once per session. Without a cache,
        // charge the whole window sequentially (§5.4: replay reads 64 KB
        // chunks).
        if cache.is_none() {
            if let (Some(&first), Some(&last)) = (positions.first(), positions.last()) {
                log.charge_sequential_read(last.0 - first.0 + 1);
            }
        }

        let mut cursor = ReplayCursor::new(positions).with_cache(cache);
        loop {
            // Crash site: the kill lands mid-replay of this recovery —
            // the crash-during-recovery case of §4.5. The error unwinds
            // the replaying thread (pool or inline) with the session left
            // marked `needs_recovery` for the *next* incarnation.
            if log.fault_point(CrashPoint::ReplayStep) {
                return Err(MspError::Shutdown);
            }
            let step = {
                // Re-read knowledge each iteration: another MSP may crash
                // *during* this recovery, and replay must see it (§4.1,
                // "orphan recovery upon multiple crashes").
                let knowledge = self.knowledge.read();
                cursor.consume(log, &knowledge, me, cell.id)?
            };
            match step {
                Consume::WentLive => break,
                Consume::Record {
                    lsn,
                    record,
                    framed,
                } => match record {
                    LogRecord::RequestReceive {
                        seq,
                        method,
                        payload,
                        sender_dv,
                        ..
                    } => {
                        self.stats.replayed_requests.fetch_add(1, Ordering::Relaxed);
                        if let Some(dv) = &sender_dv {
                            st.dv.merge_from(dv);
                        }
                        st.note_logged(me, self.epoch(), lsn, framed);
                        let Some(svc) = self.services.get(&method).cloned() else {
                            return Err(MspError::LogCorrupt {
                                offset: lsn.0,
                                reason: format!("logged request for unknown method {method}"),
                            });
                        };
                        // Re-execute; the context consumes this request's
                        // records from the cursor and may switch to live
                        // execution at the replay boundary.
                        let (result, fatal) = {
                            let mut ctx = ServiceContext::replaying(self, cell.id, st, &mut cursor);
                            let r = svc(&mut ctx, &payload);
                            let f = ctx.fatal.take();
                            (r, f)
                        };
                        let result = take_fatal(result, fatal)?;
                        let status = match result {
                            Ok(p) => ReplyStatus::Ok(p),
                            Err(e) => ReplyStatus::Err(e),
                        };
                        // Replies are buffered, never pushed: any client
                        // that is still waiting is resending, and the
                        // duplicate path returns the buffered reply.
                        st.buffered_reply = Some((seq, status));
                        st.next_expected = seq.next();
                    }
                    LogRecord::SessionEnd { .. } => {
                        st.ended = true;
                        break;
                    }
                    other => {
                        // SessionCheckpoint cannot appear (streams are
                        // truncated at checkpoints); SharedRead /
                        // ReplyReceive outside a request would be a
                        // determinism violation.
                        return Err(MspError::LogCorrupt {
                            offset: lsn.0,
                            reason: format!(
                                "unexpected {} at request boundary during replay",
                                other.kind()
                            ),
                        });
                    }
                },
            }
        }
        st.needs_recovery = false;
        cell.sync_anchor(st);
        if st.ended {
            self.tombstone_session(cell.id);
        }
        Ok(())
    }

    /// MSP crash recovery (Figure 12). Runs before the runtime goes live;
    /// returns the broadcast record and the sessions the recovery pool
    /// should replay (pre-ordered, with their window spans).
    pub(crate) fn crash_recover(&self) -> MspResult<RecoveryOutcome> {
        let log = self.log();
        if log.durable_lsn().0 <= DATA_START && log.end_lsn().0 <= DATA_START {
            // First boot. Make incarnation 0 durable before serving:
            // without this marker, a crash before our first data flush
            // leaves an empty durable log again, the next boot cannot
            // tell it was a recovery, and the crash is never announced —
            // peers then keep state that depended on the lost tail
            // forever (no epoch bump means no orphan can ever be
            // detected). With the marker, that crash recovers to epoch 1
            // with a recovered LSN just past the marker, orphaning
            // everything the lost incarnation handed out.
            let lsn = log.append(&LogRecord::RecoveryComplete {
                new_epoch: msp_types::Epoch(0),
                recovered_lsn: Lsn(DATA_START),
            });
            log.flush_to(lsn)?;
            return Ok(RecoveryOutcome {
                announce: None,
                sessions_to_replay: Vec::new(),
            });
        }
        self.stats.crash_recoveries.fetch_add(1, Ordering::Relaxed);
        let me = self.cfg.id;
        let t_analysis = Instant::now();

        // 1. Re-initialize from the most recent MSP checkpoint (via the
        //    log anchor); absent one, scan the whole log.
        let anchor_lsn = self.anchor.as_ref().expect("LogBased").read()?;
        let mut epoch_base = msp_types::Epoch(0);
        let mut scan_start = Lsn(DATA_START);
        if let Some(ckpt_lsn) = anchor_lsn {
            match log.read_record(ckpt_lsn)? {
                LogRecord::MspCheckpoint(body) => {
                    self.absorb_msp_checkpoint_body(&body, &mut epoch_base);
                    scan_start = body.min_lsn;
                }
                other => {
                    return Err(MspError::LogCorrupt {
                        offset: ckpt_lsn.0,
                        reason: format!("log anchor points at {}", other.kind()),
                    })
                }
            }
        }
        // Truncation keeps the floor at or below every anchored scan
        // start, so this clamp is normally a no-op — it is defense in
        // depth against ever scanning bytes the device reclaimed.
        scan_start = scan_start.max(log.floor());

        // 2. Analysis scan: rebuild position streams, roll shared
        //    variables forward, gather knowledge. The parallel engine
        //    streams chunks off the disk in a prefetch stage so decode
        //    overlaps I/O; the serial baseline alternates read/decode.
        //
        //    The shared replay pool is built *before* the scan so that
        //    under overlapped recovery the scan's own chunk stream warms
        //    it: every 64 KB block the analysis reads off the disk is
        //    dropped into the pool in passing, and session replay — which
        //    re-reads exactly this window — starts against a hot pool
        //    instead of paying the disk a second time. Records recovery
        //    appends from here on land past the pool's limit (the
        //    crash-time durable end) and fall back to direct log reads.
        if !self.cfg.serial_recovery {
            let pool = Arc::new(msp_wal::BufferPool::new(self.cfg.replay_cache_blocks));
            *self.replay_cache.lock() = Some(Arc::new(WalReplayCache::with_pool(log, &pool)));
        }
        let mut streams: HashMap<SessionId, PositionStream> = HashMap::new();
        let mut anchors: HashMap<SessionId, (Lsn, bool)> = HashMap::new();
        let mut ended: HashSet<SessionId> = HashSet::new();
        let warm_cache = (!self.cfg.serial_recovery && self.cfg.overlapped_recovery)
            .then(|| self.replay_cache.lock().clone())
            .flatten();
        let mut scan = if self.cfg.serial_recovery {
            log.scan_from(scan_start)
        } else if let Some(cache) = &warm_cache {
            log.scan_from_pipelined_fed(scan_start, cache)
        } else {
            log.scan_from_pipelined(scan_start)
        };
        for item in &mut scan {
            let (lsn, record) = item?;
            match &record {
                LogRecord::SessionCheckpoint { session, .. } => {
                    anchors.insert(*session, (lsn, true));
                    streams.insert(*session, PositionStream::new());
                }
                LogRecord::SessionEnd { session } => {
                    ended.insert(*session);
                    anchors.remove(session);
                    streams.remove(session);
                }
                LogRecord::RequestReceive { session, .. }
                | LogRecord::ReplyReceive { session, .. }
                | LogRecord::SharedRead { session, .. }
                | LogRecord::OutgoingBind { session, .. }
                | LogRecord::Eos { session, .. } => {
                    if !ended.contains(session) {
                        anchors.entry(*session).or_insert((lsn, false));
                        streams.entry(*session).or_default().push(lsn);
                    }
                }
                LogRecord::SharedCheckpoint { var, value } => {
                    if let Some(v) = self.shared.get(*var) {
                        let mut vst = v.state.lock();
                        vst.value = value.clone();
                        vst.dv.clear();
                        vst.chain_head = lsn;
                        vst.last_ckpt = Some(lsn);
                        vst.writes_since_ckpt = 0;
                        vst.ops_since_value = 0;
                        v.sync_anchor(&vst);
                    }
                }
                LogRecord::SharedWrite {
                    session,
                    var,
                    value,
                    writer_dv,
                    ..
                } => {
                    // The write belongs to *two* recovery units: the
                    // variable rolls forward from it below, and it joins
                    // the writing session's replay stream — the replay
                    // write-half consumes it, so a write the crash cut
                    // off surfaces as end-of-stream and re-executes live
                    // instead of being silently dropped (on a striped log
                    // the write lives on the variable's stripe and can be
                    // lost while the session's own records survive).
                    if !ended.contains(session) {
                        anchors.entry(*session).or_insert((lsn, false));
                        streams.entry(*session).or_default().push(lsn);
                    }
                    if let Some(v) = self.shared.get(*var) {
                        let mut vst = v.state.lock();
                        vst.value = value.clone();
                        vst.dv = writer_dv.clone();
                        vst.chain_head = lsn;
                        if vst.first_write.is_none() {
                            vst.first_write = Some(lsn);
                        }
                        vst.writes_since_ckpt += 1;
                        vst.ops_since_value = 0;
                        v.sync_anchor(&vst);
                    }
                }
                LogRecord::SharedOp {
                    session,
                    var,
                    op,
                    args,
                    writer_dv,
                    ..
                } => {
                    // Like a write, the op belongs to two recovery units:
                    // the session's stream (the replay op-half consumes
                    // it) and the variable, which rolls forward by
                    // re-applying the registered operation. The scan
                    // starts at or before the variable's anchor, so the
                    // whole chain from the last value bearer is replayed
                    // in order and the forward application is exact.
                    if !ended.contains(session) {
                        anchors.entry(*session).or_insert((lsn, false));
                        streams.entry(*session).or_default().push(lsn);
                    }
                    if let Some(v) = self.shared.get(*var) {
                        let Some(f) = self.shared.op_fn(*op) else {
                            return Err(MspError::LogCorrupt {
                                offset: lsn.0,
                                reason: format!("logged shared op {op} is not registered"),
                            });
                        };
                        let mut vst = v.state.lock();
                        vst.value = f(&vst.value, args);
                        vst.dv = writer_dv.clone();
                        vst.chain_head = lsn;
                        if vst.first_write.is_none() {
                            vst.first_write = Some(lsn);
                        }
                        vst.writes_since_ckpt += 1;
                        vst.ops_since_value += 1;
                        v.sync_anchor(&vst);
                    }
                }
                LogRecord::RecoveryAnnouncement(rec) => {
                    self.knowledge.write().record(*rec);
                }
                LogRecord::RecoveryComplete { new_epoch, .. } => {
                    epoch_base = epoch_base.max(*new_epoch);
                }
                LogRecord::MspCheckpoint(body) => {
                    self.absorb_msp_checkpoint_body(body, &mut epoch_base);
                }
                // The striped scanner unwraps stripe envelopes before
                // yielding; one surviving here means a stripe device was
                // scanned without its merge layer.
                LogRecord::Striped { .. } => {
                    return Err(MspError::LogCorrupt {
                        offset: lsn.0,
                        reason: "stripe envelope leaked into analysis scan".into(),
                    })
                }
            }
        }

        // Sessions whose SessionEnd survived are gone for good: seed the
        // runtime tombstones so no late traffic can resurrect them.
        self.ended_sessions.lock().extend(ended.iter().copied());

        // 3. The largest persistent LSN bounds what survived; everything
        //    at or beyond the scan end is lost.
        let recovered_lsn = Lsn(scan.position().0.saturating_sub(1));
        drop(scan);
        self.stats
            .recovery_analysis_nanos
            .store(t_analysis.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let new_epoch = epoch_base.next();
        self.epoch.store(new_epoch.0, Ordering::Release);
        let own = RecoveryRecord {
            msp: me,
            new_epoch,
            recovered_lsn,
        };
        // Our own history backs flush-request verdicts about old epochs.
        self.knowledge.write().record(own);
        let lsn = log.append(&LogRecord::RecoveryComplete {
            new_epoch,
            recovered_lsn,
        });
        log.flush_to(lsn)?;

        // 4. Materialize the sessions in "awaiting replay" state. Their
        //    requests either bounce Busy or recover inline (through the
        //    shared replay cache built before the scan) until the
        //    recovery pool reaches them.
        let mut to_replay = Vec::new();
        {
            let mut sessions = self.sessions.lock();
            for (sid, (anchor, is_ckpt)) in anchors {
                let stream = streams.remove(&sid).unwrap_or_default();
                let span = stream.span_bytes();
                let mut st = SessionState::fresh();
                st.positions = stream;
                st.first_lsn = Some(anchor);
                st.last_ckpt = is_ckpt.then_some(anchor);
                st.needs_recovery = true;
                sessions.insert(sid, Arc::new(SessionCell::new(sid, st)));
                to_replay.push((sid, span));
            }
        }
        if self.cfg.serial_recovery {
            // The legacy deterministic order: ascending session id.
            to_replay.sort_unstable_by_key(|&(sid, _)| sid);
        } else {
            // Longest window first: LPT scheduling minimizes the replay
            // pool's makespan (ties broken by id for determinism).
            to_replay.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        }
        Ok(RecoveryOutcome {
            announce: Some(own),
            sessions_to_replay: to_replay,
        })
    }

    fn absorb_msp_checkpoint_body(
        &self,
        body: &MspCheckpointBody,
        epoch_base: &mut msp_types::Epoch,
    ) {
        self.knowledge.write().merge_from(&body.knowledge);
        *epoch_base = (*epoch_base).max(body.epoch);
    }
}
