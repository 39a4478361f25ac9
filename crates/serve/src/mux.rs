//! The load-generator driver: thousands of client connections on one
//! thread, over the same `lotus_net` readiness shim the daemon uses.
//!
//! Every connection is a small state machine (seeded request mix →
//! pipelined in-flight window → in-order response matching →
//! backoff-scheduled retries) multiplexed over one [`Poller`], so a
//! single loadgen process drives ≥1024 connections with request
//! pipelining.
//!
//! Each connection's request stream is deterministic (an RNG derived
//! from `(seed, index)`; the mix is picked lazily per connection, so
//! interleaving cannot perturb it), and retry accounting is honest:
//! every attempt's latency is recorded, retried attempts are counted in
//! `retries` but not `sent`, and each logical request is classified
//! exactly once.

use std::time::{Duration, Instant};

use lotus_net::{Events, Interest, Poller, Token};
use lotus_resilience::RetryPolicy;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::loadgen::{pick_request, LoadgenConfig, LoadgenReport};
use crate::pipe::{dial, Pipe, PipeError};
use crate::proto::{ErrorKind, Request, Response};

/// A connection with requests outstanding but no response bytes for
/// this long fails the run — a hung daemon must not hang CI.
const STALL_TIMEOUT: Duration = Duration::from_secs(60);

/// Upper bound on one poller wait, so parked retries and stall checks
/// run even when no socket turns ready.
const MAX_WAIT: Duration = Duration::from_millis(100);

/// One in-flight attempt of a logical request.
struct Flight {
    request: Request,
    attempt: u32,
    sent_at: Instant,
}

/// A retried attempt parked until its backoff delay elapses.
struct ParkedRetry {
    due: Instant,
    conn: usize,
    flight: Flight,
}

/// One multiplexed client connection.
struct MuxConn {
    /// Attempts on the wire ride the pipe as its tags, in send order.
    pipe: Pipe<Flight>,
    rng: SmallRng,
    retry: RetryPolicy,
    /// Logical requests picked so far. The mix is derived per
    /// connection, so pipelining cannot perturb the stream.
    issued: usize,
    /// Logical requests with a final outcome.
    completed: usize,
    /// Attempts parked for backoff (they still occupy a window slot,
    /// otherwise a retry storm would exceed the pipeline depth).
    parked: usize,
    last_rx: Instant,
    /// Failed or closed: out of the poller and no longer driven.
    dead: bool,
}

impl MuxConn {
    fn new(pipe: Pipe<Flight>, config: &LoadgenConfig, index: usize, retry: RetryPolicy) -> Self {
        MuxConn {
            pipe,
            rng: SmallRng::seed_from_u64(
                config
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(index as u64),
            ),
            retry,
            issued: 0,
            completed: 0,
            parked: 0,
            last_rx: Instant::now(),
            dead: false,
        }
    }

    /// Still has work to issue or answers to collect.
    fn finished(&self, requests: usize) -> bool {
        self.dead || (self.completed >= requests && self.pipe.in_flight() == 0)
    }

    fn window_free(&self, pipeline: usize, requests: usize) -> bool {
        self.issued < requests && self.pipe.in_flight() + self.parked < pipeline
    }

    /// Queues one attempt. Encoding cannot fail for the generated mix;
    /// if it did, dropping the attempt is safer than desynchronizing
    /// the response window.
    fn send(&mut self, flight: Flight) {
        let request = flight.request.clone();
        let _ = self.pipe.send(&request, flight);
    }
}

/// The run's poller, measurements and retry queue, shared by every
/// connection.
struct Driver<'a> {
    config: &'a LoadgenConfig,
    poller: Poller,
    report: LoadgenReport,
    parked: Vec<ParkedRetry>,
    start: Instant,
    completions_us: Vec<u64>,
}

/// Drives the full run over one poller on the calling thread.
///
/// # Errors
/// Returns a message when no connection can be established or the run
/// produces no measurements; individual request failures are
/// *measurements* (counted in the report), not errors.
pub(crate) fn run(config: &LoadgenConfig, vertices: u32) -> Result<LoadgenReport, String> {
    let pipeline = config.pipeline.max(1);
    let mut driver = Driver::new(config)?;

    // Connect sequentially and blocking: a burst of nonblocking
    // connects overflows the listener's SYN backlog, which shows up as
    // spurious resets under exactly the load this tool measures.
    let mut conns: Vec<MuxConn> = Vec::with_capacity(config.connections);
    let mut connect_failure: Option<String> = None;
    let mut connect_failures = 0u64;
    for index in 0..config.connections {
        let retry = RetryPolicy {
            seed: config.retry.seed.wrapping_add(index as u64),
            ..config.retry
        };
        let (stream, retries) = dial(config.addr.as_str(), &retry, None);
        driver.report.retries += u64::from(retries);
        match stream.and_then(Pipe::new) {
            Ok(pipe) => {
                driver
                    .poller
                    .register(pipe.fd(), Token(conns.len() as u64), Interest::READ)
                    .map_err(|e| format!("registering connection {index}: {e}"))?;
                conns.push(MuxConn::new(pipe, config, index, retry));
            }
            Err(e) => {
                connect_failures += 1;
                connect_failure.get_or_insert(format!(
                    "connection {index}: connecting to {}: {e}",
                    config.addr
                ));
            }
        }
    }
    if conns.is_empty() {
        return Err(
            connect_failure.unwrap_or_else(|| "no connection could be established".to_string())
        );
    }
    driver.report.errors += connect_failures;
    driver.report.open_conns = conns.len() as u64;

    driver.start = Instant::now();
    let mut events = Events::with_capacity(1024);

    loop {
        // Fill every free pipeline slot and flush.
        for (i, conn) in conns.iter_mut().enumerate() {
            if conn.dead || conn.completed >= config.requests {
                continue;
            }
            while conn.window_free(pipeline, config.requests) {
                let request = pick_request(&mut conn.rng, config, vertices);
                conn.issued += 1;
                conn.send(Flight {
                    request,
                    attempt: 0,
                    sent_at: Instant::now(),
                });
            }
            driver.flush(i, conn);
        }

        if driver.parked.is_empty() && conns.iter().all(|c| c.finished(config.requests)) {
            break;
        }

        // Wait for readiness, bounded by the nearest parked retry.
        let now = Instant::now();
        let timeout = driver
            .parked
            .iter()
            .map(|p| p.due.saturating_duration_since(now))
            .min()
            .unwrap_or(MAX_WAIT)
            .clamp(Duration::from_millis(1), MAX_WAIT);
        let _ = driver.poller.wait(&mut events, Some(timeout));

        for event in &events {
            let idx = event.token.0 as usize;
            let Some(conn) = conns.get_mut(idx) else {
                continue;
            };
            if event.writable {
                driver.flush(idx, conn);
            }
            if event.readable || event.closed {
                driver.pump(idx, conn);
            }
        }

        // Re-send parked retries whose backoff has elapsed.
        let now = Instant::now();
        let mut i = 0;
        while i < driver.parked.len() {
            if driver.parked[i].due <= now {
                let entry = driver.parked.swap_remove(i);
                let conn = &mut conns[entry.conn];
                conn.parked -= 1;
                if !conn.dead {
                    conn.send(Flight {
                        sent_at: Instant::now(),
                        ..entry.flight
                    });
                    driver.flush(entry.conn, conn);
                }
            } else {
                i += 1;
            }
        }

        // Stall detection: outstanding work but no response bytes.
        for conn in &mut conns {
            if !conn.dead
                && conn.pipe.in_flight() > 0
                && now.saturating_duration_since(conn.last_rx) > STALL_TIMEOUT
            {
                driver.fail(conn);
            }
        }
    }

    let mut report = driver.report;
    report.wall_ms = driver.start.elapsed().as_millis() as u64;
    report.latencies_us.sort_unstable();
    report.max_sustained_rps = max_sustained_rps(&mut driver.completions_us, report.wall_ms);
    if report.sent == 0 {
        return Err("run produced no measurements (all connections failed)".to_string());
    }
    Ok(report)
}

impl<'a> Driver<'a> {
    fn new(config: &'a LoadgenConfig) -> Result<Self, String> {
        Ok(Driver {
            config,
            poller: Poller::new().map_err(|e| format!("opening poller: {e}"))?,
            report: LoadgenReport {
                connections: config.connections,
                ..LoadgenReport::default()
            },
            parked: Vec::new(),
            start: Instant::now(),
            completions_us: Vec::new(),
        })
    }

    /// Writes what the socket accepts and keeps write interest
    /// registered only while bytes stay queued.
    fn flush(&mut self, idx: usize, conn: &mut MuxConn) {
        if conn.dead {
            return;
        }
        let flushed = conn.pipe.flush().is_ok()
            && conn.pipe.interest_change().is_none_or(|want| {
                self.poller
                    .reregister(conn.pipe.fd(), Token(idx as u64), want)
                    .is_ok()
            });
        if !flushed {
            self.fail(conn);
        }
    }

    /// Reads everything available and settles each reply in order.
    fn pump(&mut self, idx: usize, conn: &mut MuxConn) {
        if conn.dead {
            return;
        }
        let mut replies = Vec::new();
        let outcome = conn.pipe.read(&mut replies);
        if matches!(outcome, Ok(n) if n > 0) {
            conn.last_rx = Instant::now();
        }
        for (flight, response) in replies {
            self.settle(idx, conn, flight, response);
        }
        match outcome {
            Ok(_) => {}
            // EOF is only an error while the daemon still owed answers.
            Err(PipeError::Closed) if conn.finished(self.config.requests) => self.retire(conn),
            Err(_) => self.fail(conn),
        }
    }

    /// Classifies one reply, or parks its attempt for a backoff retry
    /// when it was an `Overloaded` rejection with retries left.
    fn settle(&mut self, idx: usize, conn: &mut MuxConn, flight: Flight, response: Response) {
        self.report
            .latencies_us
            .push(flight.sent_at.elapsed().as_micros() as u64);
        let overloaded = matches!(
            &response,
            Response::Error {
                kind: ErrorKind::Overloaded,
                ..
            }
        );
        let attempt = flight.attempt + 1;
        if overloaded && conn.retry.should_retry(attempt) {
            self.report.retries += 1;
            conn.parked += 1;
            self.parked.push(ParkedRetry {
                due: Instant::now() + conn.retry.delay_for(attempt),
                conn: idx,
                flight: Flight { attempt, ..flight },
            });
            return;
        }
        conn.completed += 1;
        self.report.sent += 1;
        self.completions_us
            .push(self.start.elapsed().as_micros() as u64);
        match response {
            Response::Error { kind, .. } => match kind {
                ErrorKind::Overloaded => self.report.overloaded += 1,
                ErrorKind::DeadlineExpired => self.report.deadline_expired += 1,
                _ => self.report.errors += 1,
            },
            _ => self.report.ok += 1,
        }
    }

    /// Transport or protocol damage mid-run: count one error (and one
    /// sent) and stop driving this connection; the others keep
    /// measuring. Every failure path of a connection ends here, and a
    /// connection fails at most once.
    fn fail(&mut self, conn: &mut MuxConn) {
        if conn.dead {
            return;
        }
        self.report.errors += 1;
        self.report.sent += 1;
        self.retire(conn);
    }

    /// Stops driving a connection and drops it from the poller.
    fn retire(&self, conn: &mut MuxConn) {
        conn.dead = true;
        let _ = self.poller.deregister(conn.pipe.fd());
    }
}

/// Best completion rate over any 1 s sliding window (two pointers over
/// the sorted completion timestamps). Runs shorter than the window
/// fall back to the overall rate.
fn max_sustained_rps(completions_us: &mut [u64], wall_ms: u64) -> f64 {
    if completions_us.is_empty() {
        return 0.0;
    }
    completions_us.sort_unstable();
    if wall_ms < 1000 {
        return completions_us.len() as f64 / (wall_ms.max(1) as f64 / 1e3);
    }
    let mut best = 0usize;
    let mut lo = 0usize;
    for hi in 0..completions_us.len() {
        while completions_us[hi] - completions_us[lo] > 1_000_000 {
            lo += 1;
        }
        best = best.max(hi - lo + 1);
    }
    best as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{read_frame, write_response, NO_DEADLINE};
    use std::io::Read;
    use std::net::{Shutdown, TcpListener, TcpStream};

    fn config(addr: &str, connections: usize) -> LoadgenConfig {
        LoadgenConfig {
            addr: addr.to_string(),
            connections,
            requests: 50,
            seed: 3,
            graph: "rmat:9:8:7".to_string(),
            deadline_ms: NO_DEADLINE,
            retry: RetryPolicy::serve_default(3),
            pipeline: 4,
            cluster: false,
        }
    }

    /// Closes the write half and reads until the client hangs up, so
    /// the close is a clean FIN, never a reset.
    fn hang_up(mut peer: TcpStream) {
        let _ = peer.shutdown(Shutdown::Write);
        let _ = std::io::copy(&mut peer, &mut std::io::sink());
    }

    fn answer_one(peer: &mut TcpStream, response: &Response) {
        read_frame(peer).expect("request frame");
        write_response(peer, response).expect("reply");
    }

    #[test]
    fn peers_leaving_mid_run_count_one_error_per_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let peers = std::thread::spawn(move || {
            let mut handlers = Vec::new();
            for k in 0..8 {
                let (mut peer, _) = listener.accept().expect("accept");
                handlers.push(std::thread::spawn(move || match k % 4 {
                    0 => hang_up(peer),
                    1 => {
                        answer_one(&mut peer, &Response::Pong);
                        hang_up(peer);
                    }
                    2 => {
                        let overloaded = Response::error(ErrorKind::Overloaded, "full");
                        answer_one(&mut peer, &overloaded);
                        hang_up(peer);
                    }
                    // Leave requests unread and drop: the kernel resets.
                    _ => {
                        let _ = peer.read(&mut [0u8; 1]);
                    }
                }));
            }
            handlers
        });
        let report = run(&config(&addr, 8), 512).expect("run measures");
        for handler in peers.join().expect("peers") {
            handler.join().expect("peer");
        }
        assert_eq!(report.errors, 8, "{report:?}");
        assert_eq!(report.ok, 2, "{report:?}");
        assert_eq!(report.sent, 10, "{report:?}");
        assert!(report.retries >= 2, "{report:?}");
    }

    #[test]
    fn a_write_side_reset_counts_one_error() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let config = config(&addr, 1);
        let mut driver = Driver::new(&config).expect("driver");
        let stream = dial(addr.as_str(), &RetryPolicy::no_retry(), None)
            .0
            .expect("dial");
        let pipe = Pipe::new(stream).expect("pipe");
        driver
            .poller
            .register(pipe.fd(), Token(0), Interest::READ)
            .expect("register");
        let mut conn = MuxConn::new(pipe, &config, 0, config.retry);
        let (peer, _) = listener.accept().expect("accept");

        let flight = || Flight {
            request: Request::Ping,
            attempt: 0,
            sent_at: Instant::now(),
        };
        conn.send(flight());
        driver.flush(0, &mut conn);
        // The peer drops with the request unread, so the kernel resets
        // the connection; wait until the reset has arrived.
        peer.peek(&mut [0u8; 1]).expect("request arrives");
        drop(peer);
        let start = Instant::now();
        while !conn.pipe.peer_closed() {
            assert!(start.elapsed() < Duration::from_secs(5), "reset never seen");
            std::thread::sleep(Duration::from_millis(1));
        }
        conn.send(flight());
        driver.flush(0, &mut conn);
        assert!(conn.dead, "a write into a reset connection fails it");
        driver.pump(0, &mut conn);
        driver.flush(0, &mut conn);
        assert_eq!(driver.report.errors, 1);
        assert_eq!(driver.report.sent, 1);
    }

    #[test]
    fn sustained_rps_finds_the_densest_window() {
        // 10 completions in the first second, 100 in the third.
        let mut times: Vec<u64> = (0..10u64).map(|i| i * 100_000).collect();
        times.extend((0..100u64).map(|i| 2_000_000 + i * 10_000));
        assert!((max_sustained_rps(&mut times, 3000) - 100.0).abs() < f64::EPSILON);
    }

    #[test]
    fn short_runs_fall_back_to_overall_rate() {
        let mut times = vec![0, 100, 200, 300];
        let rps = max_sustained_rps(&mut times, 500);
        assert!((rps - 8.0).abs() < f64::EPSILON);
    }

    #[test]
    fn empty_run_is_zero() {
        assert!(max_sustained_rps(&mut Vec::new(), 0).abs() < f64::EPSILON);
    }
}
