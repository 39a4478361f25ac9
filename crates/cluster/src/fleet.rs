//! The coordinator's fan-out engine: one multiplexed nonblocking
//! connection per shard daemon, pipelined requests, deadline-bounded
//! collection (DESIGN.md §16).
//!
//! A [`Fleet`] holds at most one [`Pipe`] per shard endpoint and
//! reuses it across broadcasts. [`Fleet::broadcast`] queues every
//! request up front (pipelining — the LSRV daemon answers frames in
//! order per connection, so the pipe's FIFO of call indices matches
//! replies to calls), then drives the links through the fleet's one
//! [`lotus_net::Poller`] until every call resolves or the deadline
//! expires. A shard that is slow, dead, or desynced resolves its
//! pending calls to [`FleetError`] — never a hang — and its connection
//! is dropped so the next broadcast re-dials. An idle link the shard
//! has closed (its idle timeout) is re-dialed before it is used.
//!
//! Connects go through [`lotus_serve::pipe::dial`]: transient failures
//! retry under the workspace's seeded backoff policy, bounded by the
//! broadcast deadline.

use std::time::Duration;

use lotus_net::{Events, Interest, Poller, Token};
use lotus_resilience::retry::RetryPolicy;
use lotus_resilience::Deadline;
use lotus_serve::pipe::{dial, Pipe};
use lotus_serve::proto::{Request, Response};

/// Why a shard call failed to produce a response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The shard could not be dialed (after retries) or its connection
    /// died mid-broadcast.
    Unavailable(String),
    /// The broadcast deadline expired before the shard answered.
    DeadlineExpired,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Unavailable(detail) => write!(f, "shard unavailable: {detail}"),
            FleetError::DeadlineExpired => write!(f, "deadline expired awaiting shard reply"),
        }
    }
}

/// One shard call of a broadcast: `(shard index, request)`.
pub type ShardCall = (usize, Request);

/// Per-call outcomes of one broadcast; `None` until resolved.
type Slots = [Option<Result<Response, FleetError>>];

/// Poll granularity: short enough that deadline expiry is noticed
/// promptly even when no readiness arrives, long enough to stay cheap.
const WAIT_SLICE: Duration = Duration::from_millis(25);

#[derive(Debug)]
struct Link {
    addr: String,
    /// The connection, tagged with broadcast-local call indices;
    /// registered with the fleet's poller (token = shard index) for as
    /// long as it exists.
    pipe: Option<Pipe<usize>>,
}

/// The per-shard connection set. Not internally synchronized — the
/// coordinator serializes broadcasts behind one traced mutex.
#[derive(Debug)]
pub struct Fleet {
    links: Vec<Link>,
    retry: RetryPolicy,
    poller: Poller,
}

impl Fleet {
    /// A fleet over `endpoints` (shard index = position), dialing with
    /// the given retry policy.
    #[must_use]
    pub fn new(endpoints: &[String], retry: RetryPolicy) -> Fleet {
        let mut fleet = Fleet {
            links: Vec::with_capacity(endpoints.len()),
            retry,
            poller: Poller::new().unwrap_or_else(|_| Poller::fallback()),
        };
        for addr in endpoints {
            fleet.push_endpoint(addr);
        }
        fleet
    }

    /// Appends a newly joined shard endpoint.
    pub fn push_endpoint(&mut self, addr: &str) {
        self.links.push(Link {
            addr: addr.to_string(),
            pipe: None,
        });
    }

    /// Endpoints currently tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the fleet tracks no shards.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Sends every call to its shard (pipelined per connection) and
    /// collects responses until all resolve or `deadline` expires.
    ///
    /// Returns one result per call, in call order. A dead or slow shard
    /// yields [`FleetError`] for each of its calls; its connection is
    /// dropped so a later broadcast re-dials. Calls naming a shard
    /// index outside the fleet resolve to [`FleetError::Unavailable`].
    pub fn broadcast(
        &mut self,
        calls: &[ShardCall],
        deadline: Deadline,
    ) -> Vec<Result<Response, FleetError>> {
        let mut results: Vec<Option<Result<Response, FleetError>>> = vec![None; calls.len()];
        for (call_idx, (shard, request)) in calls.iter().enumerate() {
            if let Err(detail) = self.enqueue(*shard, request, call_idx, deadline) {
                results[call_idx] = Some(Err(FleetError::Unavailable(detail)));
            }
        }
        for shard in 0..self.links.len() {
            self.flush(shard, &mut results);
        }

        let mut events = Events::with_capacity(64);
        while results.iter().any(Option::is_none) && !deadline.expired() {
            let timeout = deadline.remaining().min(WAIT_SLICE);
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                break;
            }
            for event in &events {
                let shard = event.token.0 as usize;
                if event.writable {
                    self.flush(shard, &mut results);
                }
                if event.readable || event.closed {
                    self.read(shard, &mut results);
                }
            }
        }

        // Anything still unresolved hit the deadline. The connection's
        // FIFO no longer matches what the shard will send, so drop it.
        calls
            .iter()
            .zip(results)
            .map(|((shard, _), slot)| {
                slot.unwrap_or_else(|| {
                    self.disconnect(*shard);
                    Err(FleetError::DeadlineExpired)
                })
            })
            .collect()
    }

    /// Queues one call on its shard's link, dialing first when the link
    /// has no connection or its idle connection was closed by the shard.
    fn enqueue(
        &mut self,
        shard: usize,
        request: &Request,
        call_idx: usize,
        deadline: Deadline,
    ) -> Result<(), String> {
        let size = self.links.len();
        let link = self
            .links
            .get_mut(shard)
            .ok_or_else(|| format!("shard {shard} is not in the fleet (size {size})"))?;
        let pipe = match link.pipe.take() {
            Some(pipe) if pipe.in_flight() > 0 || !pipe.peer_closed() => pipe,
            stale => {
                if let Some(pipe) = stale {
                    let _ = self.poller.deregister(pipe.fd());
                }
                self.dial(shard, deadline)?
            }
        };
        self.links[shard]
            .pipe
            .insert(pipe)
            .send(request, call_idx)
            .map_err(|e| format!("encode failed: {e}"))
    }

    /// Connects to a shard, bounded by the deadline, and registers the
    /// new connection with the poller.
    fn dial(&self, shard: usize, deadline: Deadline) -> Result<Pipe<usize>, String> {
        let addr = &self.links[shard].addr;
        let (stream, _retries) = dial(addr.as_str(), &self.retry, Some(deadline));
        let pipe = stream
            .and_then(Pipe::new)
            .map_err(|e| format!("connect `{addr}`: {e}"))?;
        self.poller
            .register(pipe.fd(), Token(shard as u64), Interest::READ)
            .map_err(|e| format!("poller registration for `{addr}`: {e}"))?;
        Ok(pipe)
    }

    /// Writes as much queued output as the link's socket accepts,
    /// subscribing to writability only while bytes stay queued.
    fn flush(&mut self, shard: usize, results: &mut Slots) {
        let Some(pipe) = self.links.get_mut(shard).and_then(|l| l.pipe.as_mut()) else {
            return;
        };
        let flushed = pipe.flush().map_err(|e| e.to_string()).and_then(|()| {
            pipe.interest_change().map_or(Ok(()), |want| {
                self.poller
                    .reregister(pipe.fd(), Token(shard as u64), want)
                    .map_err(|e| format!("poller reregistration failed: {e}"))
            })
        });
        if let Err(detail) = flushed {
            self.fail_link(shard, &detail, results);
        }
    }

    /// Resolves the calls whose replies have arrived on a link.
    fn read(&mut self, shard: usize, results: &mut Slots) {
        let Some(pipe) = self.links.get_mut(shard).and_then(|l| l.pipe.as_mut()) else {
            return;
        };
        let mut replies = Vec::new();
        let outcome = pipe.read(&mut replies);
        for (call_idx, response) in replies {
            results[call_idx] = Some(Ok(response));
        }
        if let Err(e) = outcome {
            self.fail_link(shard, &e.to_string(), results);
        }
    }

    /// Resolves every pending call on a link to `Unavailable` and drops
    /// its connection (the stream's FIFO can no longer be trusted).
    fn fail_link(&mut self, shard: usize, detail: &str, results: &mut Slots) {
        let Some(pipe) = self.disconnect(shard) else {
            return;
        };
        for call_idx in pipe.into_tags() {
            results[call_idx].get_or_insert_with(|| {
                Err(FleetError::Unavailable(format!(
                    "{} ({detail})",
                    self.links[shard].addr
                )))
            });
        }
    }

    /// Takes a link's connection out of the poller and the fleet.
    fn disconnect(&mut self, shard: usize) -> Option<Pipe<usize>> {
        let pipe = self.links.get_mut(shard)?.pipe.take()?;
        let _ = self.poller.deregister(pipe.fd());
        Some(pipe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_serve::proto::{read_frame, write_response};
    use lotus_serve::{spawn, ServeConfig};
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    fn shard_daemon() -> lotus_serve::ServerHandle {
        spawn(ServeConfig {
            workers: 2,
            queue_capacity: 8,
            ..ServeConfig::default()
        })
        .expect("spawn shard daemon")
    }

    #[test]
    fn pipelined_broadcast_answers_every_call_in_order() {
        let a = shard_daemon();
        let b = shard_daemon();
        let mut fleet = Fleet::new(
            &[a.addr().to_string(), b.addr().to_string()],
            RetryPolicy::serve_default(7),
        );
        let calls: Vec<ShardCall> = (0..8).map(|i| (i % 2, Request::Ping)).collect();
        let replies = fleet.broadcast(&calls, Deadline::after(Duration::from_secs(5)));
        assert_eq!(replies.len(), 8);
        for reply in replies {
            assert_eq!(reply, Ok(Response::Pong));
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn dead_shard_resolves_typed_error_within_deadline() {
        let a = shard_daemon();
        let dead_addr = {
            let victim = shard_daemon();
            let addr = victim.addr().to_string();
            victim.shutdown();
            victim.wait();
            addr
        };
        let mut fleet = Fleet::new(
            &[a.addr().to_string(), dead_addr],
            RetryPolicy {
                max_attempts: 2,
                base_delay_ms: 1,
                max_delay_ms: 2,
                seed: 7,
            },
        );
        let start = std::time::Instant::now();
        let replies = fleet.broadcast(
            &[(0, Request::Ping), (1, Request::Ping)],
            Deadline::after(Duration::from_secs(3)),
        );
        assert!(
            start.elapsed() < Duration::from_secs(3),
            "dead shard must not consume the whole deadline"
        );
        assert_eq!(replies[0], Ok(Response::Pong));
        assert!(
            matches!(replies[1], Err(FleetError::Unavailable(_))),
            "{:?}",
            replies[1]
        );
        a.shutdown();
    }

    #[test]
    fn unknown_shard_index_is_unavailable() {
        let mut fleet = Fleet::new(&[], RetryPolicy::no_retry());
        let replies = fleet.broadcast(
            &[(3, Request::Ping)],
            Deadline::after(Duration::from_millis(100)),
        );
        assert!(matches!(replies[0], Err(FleetError::Unavailable(_))));
    }

    /// A fake shard on a plain listener: it accepts one connection per
    /// entry of `script`, reads one request on it and answers through
    /// the entry. Returns the address and a handle yielding the
    /// connections, held open until the test joins it.
    fn fake_shard(
        script: Vec<fn(&mut TcpStream)>,
    ) -> (String, std::thread::JoinHandle<Vec<TcpStream>>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || {
            script
                .into_iter()
                .map(|answer| {
                    let (mut conn, _) = listener.accept().expect("accept");
                    read_frame(&mut conn).expect("request frame");
                    answer(&mut conn);
                    conn
                })
                .collect()
        });
        (addr, handle)
    }

    fn count(triangles: u64) -> Response {
        Response::Count {
            triangles,
            cached: false,
            wall_micros: 0,
        }
    }

    #[test]
    fn an_idle_link_closed_by_the_shard_is_redialed() {
        let shard = spawn(ServeConfig {
            workers: 2,
            queue_capacity: 8,
            idle_timeout: Duration::from_millis(200),
            ..ServeConfig::default()
        })
        .expect("spawn shard daemon");
        let mut fleet = Fleet::new(&[shard.addr().to_string()], RetryPolicy::serve_default(7));
        let ping = [(0, Request::Ping)];
        let deadline = || Deadline::after(Duration::from_secs(5));
        assert_eq!(fleet.broadcast(&ping, deadline()), vec![Ok(Response::Pong)]);
        // Well past the shard's idle timeout: it has closed the link.
        std::thread::sleep(Duration::from_millis(1500));
        assert_eq!(fleet.broadcast(&ping, deadline()), vec![Ok(Response::Pong)]);
        shard.shutdown();
    }

    #[test]
    fn a_late_reply_expires_and_never_answers_the_next_broadcast() {
        let (addr, fake) = fake_shard(vec![
            |conn| {
                std::thread::sleep(Duration::from_millis(300));
                let _ = write_response(conn, &count(1));
            },
            |conn| write_response(conn, &count(2)).expect("second reply"),
        ]);
        let mut fleet = Fleet::new(&[addr], RetryPolicy::no_retry());
        let call = [(0, Request::Ping)];
        let late = fleet.broadcast(&call, Deadline::after(Duration::from_millis(100)));
        assert_eq!(late, vec![Err(FleetError::DeadlineExpired)]);
        let next = fleet.broadcast(&call, Deadline::after(Duration::from_secs(5)));
        assert_eq!(next, vec![Ok(count(2))], "the stale reply must not leak");
        fake.join().expect("fake shard");
    }

    #[test]
    fn a_damaged_frame_fails_fast_and_the_next_broadcast_redials() {
        let (addr, fake) = fake_shard(vec![
            |conn| conn.write_all(b"HTTP/1.1 200 OK\r\n\r\n").expect("garbage"),
            |conn| write_response(conn, &Response::Pong).expect("reply"),
        ]);
        let mut fleet = Fleet::new(&[addr], RetryPolicy::no_retry());
        let call = [(0, Request::Ping)];
        let start = Instant::now();
        let damaged = fleet.broadcast(&call, Deadline::after(Duration::from_secs(5)));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "damage must not wait out the deadline"
        );
        assert!(
            matches!(&damaged[0], Err(FleetError::Unavailable(detail)) if detail.contains("framing damage")),
            "{damaged:?}"
        );
        let next = fleet.broadcast(&call, Deadline::after(Duration::from_secs(5)));
        assert_eq!(next, vec![Ok(Response::Pong)]);
        assert_eq!(fake.join().expect("fake shard").len(), 2, "one re-dial");
    }
}
