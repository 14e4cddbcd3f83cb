//! The request generator: one thread, one client endpoint, many
//! sessions.
//!
//! Each session follows `MspClient`'s discipline — one request in flight,
//! resend after `resend_timeout` without a reply, resend after
//! `busy_backoff` when the server answers *Busy*, give up after
//! `max_attempts` — so the server sees the traffic `MspClient` would send.
//! The waits are timers on one event loop rather than sleeps, which lets
//! a single thread hold every session and keep an open-loop schedule.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use msp_core::client::ClientOptions;
use msp_core::envelope::{ReplyMsg, RequestMsg};
use msp_core::{Envelope, ReplyStatus};
use msp_harness::workload::{reply_counter, request_payload};
use msp_net::{Endpoint, EndpointId, Network};
use msp_types::{MspError, MspId, RequestSeq, SessionId};

use crate::ledger::Ledger;

/// One request the generator attempted.
#[derive(Debug, Clone)]
pub struct Req {
    pub seq: RequestSeq,
    /// When the request was due: its scheduled arrival (open loop) or
    /// its submission.
    pub sched: Instant,
    /// First transmission.
    pub sent: Option<Instant>,
    pub done: Option<Instant>,
    pub ok: bool,
    pub attempts: u32,
    pub busy: u32,
    /// Counted in the measured window.
    pub measured: bool,
}

impl Req {
    /// Latency from when the request was due to its reply; infinite for a
    /// request that failed or never completed, so it counts as over any
    /// limit.
    pub fn latency_ms(&self) -> f64 {
        match (self.ok, self.done) {
            (true, Some(d)) => d.duration_since(self.sched).as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        }
    }
}

/// The benchmark request id carried in bytes 8..16 of the payload. The
/// workload reads only byte 0 (the call count `m`), and `ServiceMethod1`
/// forwards its payload unchanged, so both service spans of a request
/// carry its id.
pub fn payload_id(payload: &[u8]) -> u64 {
    payload
        .get(8..16)
        .map(|b| u64::from_le_bytes(b.try_into().expect("eight bytes")))
        .unwrap_or(0)
}

struct Sess {
    id: SessionId,
    next_seq: RequestSeq,
    queue: VecDeque<usize>,
    inflight: Option<usize>,
    /// Bumped on every (re)arm; a timer carrying an older token is stale.
    token: u64,
}

/// Poisson arrivals at a fixed rate, handed to sessions round-robin.
struct OpenLoad {
    rng: StdRng,
    rate: f64,
    next_at: Instant,
    rr: usize,
}

impl OpenLoad {
    fn advance(&mut self) {
        let u: f64 = 1.0 - self.rng.random::<f64>(); // (0, 1]
        self.next_at += Duration::from_secs_f64(-u.ln() / self.rate);
    }
}

pub struct Gen {
    ep: Endpoint<Envelope>,
    me: EndpointId,
    target: EndpointId,
    method: &'static str,
    m: u8,
    opts: ClientOptions,
    sessions: Vec<Sess>,
    index: HashMap<SessionId, usize>,
    pub reqs: Vec<Req>,
    timers: BinaryHeap<Reverse<(Instant, usize, u64)>>,
    pub ledger: Ledger,
    /// The open loop, while it issues requests.
    open: Option<OpenLoad>,
    /// Sessions join the load one by one over this span after its start,
    /// so their periodic checkpoints do not all fall due together.
    ramp: (Instant, Duration),
    active: usize,
    pub measuring: bool,
    pub first_ok: Option<Instant>,
    pending: usize,
    err: Option<String>,
}

impl Gen {
    /// A generator sending `method` with call count `m` to `target`, over
    /// `sessions` given as `(id, next seq)`. `prior[i]` is the Ok-reply
    /// count session `i` already has (the ledger's starting point).
    pub fn new(
        net: &Network<Envelope>,
        target: MspId,
        method: &'static str,
        m: u8,
        sessions: &[(SessionId, RequestSeq)],
        prior: Vec<u64>,
    ) -> Gen {
        let me = EndpointId::Client(1);
        Gen {
            ep: net.register(me),
            me,
            target: EndpointId::Msp(target),
            method,
            m,
            opts: ClientOptions::default(),
            index: sessions.iter().enumerate().map(|(i, s)| (s.0, i)).collect(),
            sessions: sessions
                .iter()
                .map(|&(id, next_seq)| Sess {
                    id,
                    next_seq,
                    queue: VecDeque::new(),
                    inflight: None,
                    token: 0,
                })
                .collect(),
            reqs: Vec::new(),
            timers: BinaryHeap::new(),
            ledger: Ledger::new(prior),
            open: None,
            ramp: (Instant::now(), Duration::ZERO),
            active: 0,
            measuring: false,
            first_ok: None,
            pending: 0,
            err: None,
        }
    }

    /// The sessions' ids and next sequence numbers.
    pub fn session_state(&self) -> Vec<(SessionId, RequestSeq)> {
        self.sessions.iter().map(|s| (s.id, s.next_seq)).collect()
    }

    /// Start an open loop: Poisson arrivals at `rate`/s from now on,
    /// handed round-robin to the sessions joined so far; all have joined
    /// after `ramp`.
    pub fn start_open(&mut self, rate: f64, seed: u64, ramp: Duration) {
        let mut load = OpenLoad {
            rng: StdRng::seed_from_u64(seed),
            rate,
            next_at: Instant::now(),
            rr: 0,
        };
        load.advance();
        self.open = Some(load);
        self.ramp = (Instant::now(), ramp);
        self.active = 0;
    }

    /// Sessions joined by `now`: a linear ramp, at least one.
    fn joined(&self, now: Instant) -> usize {
        let n = self.sessions.len();
        let (start, span) = self.ramp;
        if span.is_zero() {
            return n;
        }
        let frac = now.duration_since(start).as_secs_f64() / span.as_secs_f64();
        ((frac * n as f64).ceil() as usize).clamp(1, n)
    }

    /// Stop issuing new requests; those already submitted run on.
    pub fn stop_issuing(&mut self) {
        self.open = None;
    }

    /// Requests submitted and not yet completed or failed.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Queue a request on `session`, due at `sched`.
    pub fn submit(&mut self, session: usize, sched: Instant) {
        let seq = RequestSeq(0); // assigned when the request reaches the wire
        self.reqs.push(Req {
            seq,
            sched,
            sent: None,
            done: None,
            ok: false,
            attempts: 0,
            busy: 0,
            measured: self.measuring,
        });
        self.pending += 1;
        let r = self.reqs.len() - 1;
        let s = &mut self.sessions[session];
        if s.inflight.is_none() {
            self.begin(session, r);
        } else {
            s.queue.push_back(r);
        }
    }

    fn begin(&mut self, session: usize, r: usize) {
        let s = &mut self.sessions[session];
        s.inflight = Some(r);
        self.reqs[r].seq = s.next_seq;
        self.transmit(session);
    }

    fn transmit(&mut self, session: usize) {
        let now = Instant::now();
        let r = self.sessions[session]
            .inflight
            .expect("transmit without a request in flight");
        if self.reqs[r].attempts >= self.opts.max_attempts {
            // `MspClient` reports Timeout here, and its next call reuses
            // the sequence number.
            self.complete(session, now, false);
            return;
        }
        let req = &mut self.reqs[r];
        req.attempts += 1;
        req.sent.get_or_insert(now);
        let mut payload = request_payload(self.m);
        payload[8..16].copy_from_slice(&(r as u64 + 1).to_le_bytes());
        let s = &mut self.sessions[session];
        self.ep.send(
            self.target,
            Envelope::Request(RequestMsg {
                session: s.id,
                seq: req.seq,
                method: self.method.to_string(),
                payload,
                reply_to: self.me,
                sender_dv: None,
                durable_hint: None,
                recoveries: Vec::new(),
            }),
        );
        s.token += 1;
        self.timers
            .push(Reverse((now + self.opts.resend_timeout, session, s.token)));
    }

    fn complete(&mut self, session: usize, now: Instant, ok: bool) {
        let s = &mut self.sessions[session];
        let r = s.inflight.take().expect("completion without a request");
        if ok {
            s.next_seq = s.next_seq.next();
        }
        s.token += 1;
        let req = &mut self.reqs[r];
        req.done = Some(now);
        req.ok = ok;
        self.pending -= 1;
        if let Some(next) = s.queue.pop_front() {
            self.begin(session, next);
        }
    }

    fn on_reply(&mut self, rep: ReplyMsg) {
        let now = Instant::now();
        let Some(&session) = self.index.get(&rep.session) else {
            return;
        };
        let s = &mut self.sessions[session];
        let Some(r) = s.inflight else {
            return; // a duplicate of an already-completed request's reply
        };
        if self.reqs[r].seq != rep.seq {
            return;
        }
        match rep.status {
            ReplyStatus::Busy => {
                self.reqs[r].busy += 1;
                s.token += 1;
                self.timers
                    .push(Reverse((now + self.opts.busy_backoff, session, s.token)));
            }
            ReplyStatus::Ok(payload) => {
                if let Err(e) = self.ledger.on_ok(session, reply_counter(&payload)) {
                    self.err.get_or_insert(e);
                }
                self.first_ok.get_or_insert(now);
                self.complete(session, now, true);
            }
            ReplyStatus::Err(e) => {
                self.err
                    .get_or_insert(format!("service method failed: {e}"));
                self.complete(session, now, false);
            }
        }
    }

    fn issue_due(&mut self, now: Instant) {
        if self.open.is_none() {
            return;
        }
        self.active = self.joined(now).max(self.active);
        while let Some(load) = self.open.as_mut() {
            if load.next_at > now {
                break;
            }
            let (session, sched) = (load.rr, load.next_at);
            load.rr = (load.rr + 1) % self.active;
            load.advance();
            self.submit(session, sched);
        }
    }

    fn fire_timers(&mut self, now: Instant) {
        while let Some(&Reverse((at, session, token))) = self.timers.peek() {
            if at > now {
                break;
            }
            self.timers.pop();
            if self.sessions[session].token == token && self.sessions[session].inflight.is_some() {
                self.transmit(session);
            }
        }
    }

    /// Run the event loop until `until`, or earlier once `done` holds
    /// (checked at least every `poll`). Returns the first exactly-once or
    /// service failure seen.
    pub fn pump(
        &mut self,
        until: Instant,
        poll: Duration,
        mut done: impl FnMut(&Gen) -> bool,
    ) -> Result<(), String> {
        loop {
            let now = Instant::now();
            self.issue_due(now);
            self.fire_timers(now);
            if let Some(e) = self.err.take() {
                return Err(e);
            }
            if now >= until || done(self) {
                return Ok(());
            }
            let mut wake = until.min(now + poll);
            if let Some(load) = &self.open {
                wake = wake.min(load.next_at);
            }
            if let Some(Reverse((at, _, _))) = self.timers.peek() {
                wake = wake.min(*at);
            }
            if wake > now {
                match self.ep.recv_timeout(wake - now) {
                    Ok(env) => self.handle(env),
                    Err(MspError::Timeout) => {}
                    Err(e) => return Err(format!("client endpoint: {e}")),
                }
            }
            while let Some(env) = self.ep.try_recv() {
                self.handle(env);
            }
        }
    }

    fn handle(&mut self, env: Envelope) {
        if let Envelope::Reply(rep) = env {
            self.on_reply(rep);
        }
    }

    /// Run until every submitted request completed, or fail at
    /// `deadline`.
    pub fn drain(&mut self, deadline: Instant) -> Result<(), String> {
        self.pump(deadline, Duration::from_millis(50), |g| g.pending == 0)?;
        match self.pending {
            0 => Ok(()),
            n => Err(format!("{n} requests still pending at the drain deadline")),
        }
    }
}
