//! The open-loop load generator.
//!
//! One thread sends a seeded Poisson stream over at most `nproc`
//! connections, whatever the daemon's progress: users are independent,
//! so a slow daemon gets the same offered load and the backlog can grow.
//! At most `window` requests are outstanding at once, a number no larger
//! than the daemon's admission queue: a request due while the window is
//! full waits in the generator, as behind a client's connection pool, so
//! the backlog grows there and the daemon never has to refuse one. Each
//! request is timed from when it was due, so a stall, and the wait for a
//! free slot, count against every request that waited behind it. There
//! are no retries: an error reply is a failed request. Responses come
//! back in request order per connection (the LSRV contract), so each
//! reply is matched to the oldest outstanding request on its connection.

use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind as IoKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use lotus_net::{Events, Interest, Poller, Token};
use lotus_serve::proto::{try_parse_frame, write_request, FrameProgress, Request, Response};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::check::{Oracle, Verdict};
use crate::measure::{nearest_rank, sorted};
use crate::trace::{SpanId, Tracer};

/// One scheduled request.
pub struct Planned {
    pub due: Duration,
    pub request: Request,
}

/// Seeded Poisson arrivals at `rate` per second for `window`, each
/// request drawn from `mix`.
pub fn poisson(
    rng: &mut SmallRng,
    rate: f64,
    window: Duration,
    mix: &mut dyn FnMut(&mut SmallRng) -> Request,
) -> Vec<Planned> {
    let mut plan = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= window.as_secs_f64() {
            return plan;
        }
        plan.push(Planned {
            due: Duration::from_secs_f64(t),
            request: mix(rng),
        });
    }
}

/// Fewest answers a one-second window needs to count in `window_p`.
const WINDOW_MIN: usize = 100;

struct Outstanding {
    request: Request,
    due: Instant,
    window: usize,
    span: SpanId,
    id: u64,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    pending: VecDeque<Outstanding>,
}

/// The generator's connections to one daemon, kept across phases.
pub struct Client {
    addr: SocketAddr,
    conns: Vec<Conn>,
    poller: Poller,
    next_id: u64,
    /// Most requests outstanding at once, over all connections.
    window: usize,
}

/// Where a phase's requests come from.
pub enum Arrivals<'a> {
    /// Open loop: each request is due at its planned time, whatever the
    /// backlog; every planned request is sent.
    Scheduled(&'a [Planned]),
    /// Closed loop: a new request as soon as a slot of the window is
    /// free, until the phase's window of time closes. Each is due when
    /// it is sent.
    Saturating(&'a mut dyn FnMut() -> Request),
}

/// Outcome of one phase at one offered rate.
#[derive(Debug, Default)]
pub struct Phase {
    pub offered_rps: f64,
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    pub wrong: u64,
    pub failures: BTreeMap<&'static str, u64>,
    /// Latencies of OK answers in ms, ascending.
    pub ok_ms: Vec<f64>,
    /// The same latencies grouped by the second their request was due.
    pub ok_ms_by_window: Vec<Vec<f64>>,
    /// OK latencies by request kind, in µs, ascending.
    pub ok_us_by_kind: BTreeMap<&'static str, Vec<f64>>,
    /// How late each request was sent, in ms, ascending.
    pub lag_ms: Vec<f64>,
    /// Requests due but unanswered when the send window closed.
    pub backlog: usize,
    /// OK answers that arrived before the send window closed, and the
    /// window's length in seconds: the phase's goodput.
    pub ok_in_window: u64,
    pub window_s: f64,
    /// Count requests, and those repeating a (graph, request) pair
    /// answered earlier while the graph stayed resident.
    pub counts: u64,
    pub count_repeats: u64,
}

impl Phase {
    pub fn ok_p(&self, p: f64) -> f64 {
        nearest_rank(&self.ok_ms, p)
    }

    /// The median over the phase's one-second windows (by due time) of
    /// each window's nearest-rank `p`-th percentile, counting windows
    /// with at least `WINDOW_MIN` answers. A host stall of a few hundred
    /// milliseconds moves one window, not the result; the percentile over
    /// the pooled sample stays in the properties.
    pub fn window_p(&self, p: f64) -> f64 {
        let per_window = self.per_window_p(p);
        if per_window.is_empty() {
            return self.ok_p(p);
        }
        crate::measure::median(&sorted(per_window))
    }

    /// Each counted window's nearest-rank `p`-th percentile, in order.
    pub fn per_window_p(&self, p: f64) -> Vec<f64> {
        self.ok_ms_by_window
            .iter()
            .filter(|w| w.len() >= WINDOW_MIN)
            .map(|w| nearest_rank(&sorted(w.clone()), p))
            .collect()
    }

    /// OK answers per second of the send window.
    pub fn goodput(&self) -> f64 {
        self.ok_in_window as f64 / self.window_s
    }

    /// Adds a later phase at the same offered rate: its one-second
    /// windows follow this phase's.
    pub fn absorb(&mut self, later: Phase) {
        self.attempted += later.attempted;
        self.ok += later.ok;
        self.failed += later.failed;
        self.wrong += later.wrong;
        for (k, v) in later.failures {
            *self.failures.entry(k).or_default() += v;
        }
        self.ok_ms = sorted([std::mem::take(&mut self.ok_ms), later.ok_ms].concat());
        self.ok_ms_by_window.extend(later.ok_ms_by_window);
        for (k, v) in later.ok_us_by_kind {
            let mine = self.ok_us_by_kind.entry(k).or_default();
            *mine = sorted([std::mem::take(mine), v].concat());
        }
        self.lag_ms = sorted([std::mem::take(&mut self.lag_ms), later.lag_ms].concat());
        self.backlog = self.backlog.max(later.backlog);
        self.ok_in_window += later.ok_in_window;
        self.window_s += later.window_s;
        self.counts += later.counts;
        self.count_repeats += later.count_repeats;
    }
}

pub fn kind(request: &Request) -> &'static str {
    match request {
        Request::Ping => "ping",
        Request::Stats => "stats",
        Request::Count { .. } => "count",
        Request::PerVertex { .. } => "per_vertex",
        Request::KClique { .. } => "kclique",
        Request::LoadGraph { .. } => "load_graph",
        Request::Batch(_) => "batch",
        _ => "other",
    }
}

/// Residency epochs as the client sees them: a graph's epoch moves on
/// whenever an answer shows it was (re)built, which drops what was
/// answered before.
#[derive(Debug, Default)]
pub struct Repeats {
    epoch: BTreeMap<String, u64>,
    seen: BTreeMap<String, u64>,
}

impl Repeats {
    fn observe(&mut self, request: &Request, response: &Response, phase: &mut Phase) {
        match (request, response) {
            (Request::Count { name, .. }, Response::Count { cached, .. }) => {
                let epoch = self.epoch.entry(name.clone()).or_default();
                if !cached {
                    *epoch += 1;
                }
                phase.counts += 1;
                if *cached && self.seen.get(name) == Some(epoch) {
                    phase.count_repeats += 1;
                }
                self.seen.insert(name.clone(), *epoch);
            }
            (Request::LoadGraph { name, .. }, Response::Loaded { .. }) => {
                *self.epoch.entry(name.clone()).or_default() += 1;
            }
            (Request::Batch(items), Response::Batch(replies)) => {
                for (q, a) in items.iter().zip(replies) {
                    self.observe(q, a, phase);
                }
            }
            _ => {}
        }
    }
}

fn dial(addr: SocketAddr) -> std::io::Result<Conn> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(Conn {
        stream,
        out: Vec::new(),
        out_pos: 0,
        inbuf: Vec::new(),
        pending: VecDeque::new(),
    })
}

impl Client {
    /// Opens `connections` connections that together keep at most
    /// `window` requests outstanding.
    pub fn connect(addr: SocketAddr, connections: usize, window: usize) -> std::io::Result<Client> {
        let poller = Poller::new()?;
        let mut conns = Vec::new();
        for i in 0..connections {
            let conn = dial(addr)?;
            poller.register(conn.stream.as_raw_fd(), Token(i as u64), Interest::READ)?;
            conns.push(conn);
        }
        Ok(Client {
            addr,
            conns,
            poller,
            next_id: 1,
            window: window.max(1),
        })
    }

    /// Replaces connection `i` after its replies went missing, so late
    /// replies cannot be matched to the next phase's requests.
    fn redial(&mut self, i: usize) -> std::io::Result<()> {
        let _ = self.poller.deregister(self.conns[i].stream.as_raw_fd());
        self.conns[i] = dial(self.addr)?;
        self.poller.register(
            self.conns[i].stream.as_raw_fd(),
            Token(i as u64),
            Interest::READ,
        )
    }

    /// Sends the phase's requests and collects every reply, waiting at
    /// most `drain` after the send window closes. Unanswered requests
    /// fail as timeouts.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &mut self,
        mut arrivals: Arrivals<'_>,
        offered_rps: f64,
        window: Duration,
        drain: Duration,
        oracle: &Oracle,
        repeats: &mut Repeats,
        tracer: &mut Tracer,
    ) -> std::io::Result<Phase> {
        let mut phase = Phase {
            offered_rps,
            window_s: window.as_secs_f64(),
            ..Phase::default()
        };
        let mut lag = Vec::new();
        let mut events = Events::with_capacity(8);
        let start = Instant::now();
        let window_end = start + window;
        let mut backlog_taken = false;
        let mut next = 0usize;
        loop {
            let now = Instant::now();
            let mut outstanding: usize = self.conns.iter().map(|c| c.pending.len()).sum();
            while outstanding < self.window {
                let (due, request) = match &mut arrivals {
                    Arrivals::Scheduled(plan) => match plan.get(next) {
                        Some(item) if start + item.due <= now => {
                            (start + item.due, item.request.clone())
                        }
                        _ => break,
                    },
                    Arrivals::Saturating(source) if now < window_end => (now, source()),
                    Arrivals::Saturating(_) => break,
                };
                let id = self.next_id;
                self.next_id += 1;
                // The connection with the fewest outstanding, lowest first.
                let conn_ix = (0..self.conns.len())
                    .min_by_key(|&i| self.conns[i].pending.len())
                    .unwrap_or(0);
                let span = tracer.begin_at("loadgen.request", SpanId::ROOT, id, due);
                let encode = tracer.begin("serve.proto.encode", span, id);
                let conn = &mut self.conns[conn_ix];
                write_request(&mut conn.out, &request)
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                tracer.end(encode);
                lag.push(now.duration_since(due).as_secs_f64() * 1e3);
                conn.pending.push_back(Outstanding {
                    request,
                    due,
                    window: due.duration_since(start).as_secs() as usize,
                    span,
                    id,
                });
                phase.attempted += 1;
                next += 1;
                outstanding += 1;
            }
            for conn in &mut self.conns {
                flush(conn)?;
            }
            if !backlog_taken && now >= window_end {
                let waiting = match &arrivals {
                    Arrivals::Scheduled(plan) => plan.len() - next,
                    Arrivals::Saturating(_) => 0,
                };
                phase.backlog = outstanding + waiting;
                backlog_taken = true;
            }
            for conn in &mut self.conns {
                receive(conn, oracle, repeats, tracer, window_end, &mut phase)?;
            }
            let all_sent = match &arrivals {
                Arrivals::Scheduled(plan) => next == plan.len(),
                Arrivals::Saturating(_) => Instant::now() >= window_end,
            };
            let outstanding: usize = self.conns.iter().map(|c| c.pending.len()).sum();
            if all_sent && outstanding == 0 && Instant::now() >= window_end {
                break;
            }
            let now = Instant::now();
            if now >= window_end + drain {
                let unsent = match &arrivals {
                    Arrivals::Scheduled(plan) => (plan.len() - next) as u64,
                    Arrivals::Saturating(_) => 0,
                };
                phase.attempted += unsent;
                phase.failed += unsent;
                *phase.failures.entry("timeout").or_default() += unsent;
                for i in 0..self.conns.len() {
                    let lost = self.conns[i].pending.len() as u64;
                    if lost > 0 {
                        phase.failed += lost;
                        *phase.failures.entry("timeout").or_default() += lost;
                        self.redial(i)?;
                    }
                }
                break;
            }
            // Wake for the next request while a slot is free, else for
            // the next reply (or the end of the send window).
            let wake = match &arrivals {
                _ if outstanding >= self.window => window_end.max(now + Duration::from_millis(1)),
                Arrivals::Scheduled(plan) if next < plan.len() => start + plan[next].due,
                Arrivals::Saturating(_) if now < window_end => now,
                _ => window_end.max(now + Duration::from_millis(1)),
            };
            let wait = wake.saturating_duration_since(now);
            let writing = self.conns.iter().any(|c| c.out_pos < c.out.len());
            if wait >= Duration::from_millis(1) && !writing {
                self.poller.wait(&mut events, Some(wait))?;
            } else if !wait.is_zero() {
                // epoll waits in whole milliseconds; sleep short gaps.
                self.poller.wait(&mut events, Some(Duration::ZERO))?;
                if events.is_empty() {
                    std::thread::sleep(wait.min(Duration::from_micros(200)));
                }
            }
        }
        phase.ok_ms = sorted(std::mem::take(&mut phase.ok_ms));
        for v in phase.ok_us_by_kind.values_mut() {
            *v = sorted(std::mem::take(v));
        }
        phase.lag_ms = sorted(lag);
        Ok(phase)
    }
}

fn flush(conn: &mut Conn) -> std::io::Result<()> {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Err(std::io::Error::other("connection closed while sending")),
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == IoKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == IoKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    conn.out.clear();
    conn.out_pos = 0;
    Ok(())
}

fn receive(
    conn: &mut Conn,
    oracle: &Oracle,
    repeats: &mut Repeats,
    tracer: &mut Tracer,
    window_end: Instant,
    phase: &mut Phase,
) -> std::io::Result<()> {
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                if conn.pending.is_empty() {
                    return Ok(());
                }
                return Err(std::io::Error::other(
                    "daemon closed a connection with requests outstanding",
                ));
            }
            Ok(n) => conn.inbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == IoKind::WouldBlock => break,
            Err(e) if e.kind() == IoKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let mut consumed_total = 0;
    loop {
        match try_parse_frame(&conn.inbuf[consumed_total..]) {
            FrameProgress::Incomplete => break,
            FrameProgress::Damaged(e) => return Err(std::io::Error::other(e.to_string())),
            FrameProgress::Frame { payload, consumed } => {
                consumed_total += consumed;
                let Some(out) = conn.pending.pop_front() else {
                    return Err(std::io::Error::other("reply without a request"));
                };
                let decode = tracer.begin("serve.proto.decode", out.span, out.id);
                let response = Response::decode(&payload);
                tracer.end(decode);
                let done = Instant::now();
                tracer.end_at(out.span, done);
                let verdict = match &response {
                    Ok(r) => oracle.check(&out.request, r),
                    Err(_) => Verdict::Failed("undecodable"),
                };
                match verdict {
                    Verdict::Ok => {
                        let ms = done.duration_since(out.due).as_secs_f64() * 1e3;
                        phase.ok += 1;
                        phase.ok_in_window += u64::from(done < window_end);
                        phase.ok_ms.push(ms);
                        if phase.ok_ms_by_window.len() <= out.window {
                            phase.ok_ms_by_window.resize(out.window + 1, Vec::new());
                        }
                        phase.ok_ms_by_window[out.window].push(ms);
                        phase
                            .ok_us_by_kind
                            .entry(kind(&out.request))
                            .or_default()
                            .push(ms * 1e3);
                        if let Ok(r) = &response {
                            repeats.observe(&out.request, r, phase);
                        }
                    }
                    Verdict::Failed(why) => {
                        phase.failed += 1;
                        *phase.failures.entry(why).or_default() += 1;
                    }
                    Verdict::Wrong => {
                        phase.failed += 1;
                        phase.wrong += 1;
                        *phase.failures.entry("wrong_answer").or_default() += 1;
                    }
                }
            }
        }
    }
    conn.inbuf.drain(..consumed_total);
    Ok(())
}
