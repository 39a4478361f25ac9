//! The client side of one pipelined LSRV connection, and the dial
//! helper every client connects through.
//!
//! A [`Pipe`] owns a nonblocking `TcpStream`, an output buffer, a read
//! buffer and a FIFO of caller tags, one per request on the wire. The
//! daemon answers frames in order on each connection, so the front tag
//! owns the next reply. The cluster fleet (tag = call index) and the
//! loadgen mux (tag = in-flight attempt) both drive their connections
//! through it; the caller owns the [`lotus_net::Poller`] and registers
//! [`Pipe::fd`] under its own token.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

use lotus_net::Interest;
use lotus_resilience::retry::{is_transient_io, retry, RetryPolicy};
use lotus_resilience::Deadline;

use crate::proto::{try_parse_frame, write_request, FrameProgress, ProtoError, Request, Response};

const READ_CHUNK: usize = 16 * 1024;

/// Longest single connect attempt under a deadline, so one black-holed
/// SYN cannot eat the whole budget and leave no time for a retry.
const CONNECT_SLICE: Duration = Duration::from_secs(1);

/// Connects to `addr`, retrying transient failures (refused/reset — a
/// daemon mid-restart) under `policy`. With a `deadline`, each attempt
/// is bounded by the time left and no retry starts after it expires.
/// Returns the blocking, `TCP_NODELAY` stream (or the last error) plus
/// the retries spent, which callers count even when every attempt
/// failed.
pub fn dial(
    addr: impl ToSocketAddrs,
    policy: &RetryPolicy,
    deadline: Option<Deadline>,
) -> (io::Result<TcpStream>, u32) {
    let (connected, retries) = retry(
        policy,
        |e: &io::Error| is_transient_io(e) && !deadline.is_some_and(|d| d.expired()),
        || connect_once(&addr, deadline),
    );
    let stream = connected.and_then(|stream| {
        stream.set_nodelay(true)?;
        Ok(stream)
    });
    (stream, retries)
}

fn connect_once(addr: &impl ToSocketAddrs, deadline: Option<Deadline>) -> io::Result<TcpStream> {
    let Some(deadline) = deadline else {
        return TcpStream::connect(addr);
    };
    let timeout = deadline.remaining().min(CONNECT_SLICE);
    if timeout.is_zero() {
        return Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "deadline expired before connect",
        ));
    }
    let sock_addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing")
    })?;
    TcpStream::connect_timeout(&sock_addr, timeout)
}

/// Why a pipe can carry no further replies. The stream cannot be
/// resynchronized after any of these: drop the pipe (deregistering it
/// first); [`Pipe::into_tags`] yields the requests left unanswered.
#[derive(Debug)]
pub enum PipeError {
    /// The peer closed the connection.
    Closed,
    /// A read or write failed, or a write was accepted with zero bytes.
    Io(io::Error),
    /// The reply stream carried a damaged frame.
    Damaged(ProtoError),
    /// A well-framed reply failed to decode.
    Undecodable(ProtoError),
    /// A reply arrived with no request awaiting it.
    Unsolicited,
}

impl std::fmt::Display for PipeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipeError::Closed => write!(f, "peer closed connection"),
            PipeError::Io(e) => write!(f, "transport failed: {e}"),
            PipeError::Damaged(e) => write!(f, "framing damage: {e}"),
            PipeError::Undecodable(e) => write!(f, "undecodable reply: {e}"),
            PipeError::Unsolicited => write!(f, "unsolicited frame"),
        }
    }
}

/// One nonblocking, pipelined client connection; see the module docs.
#[derive(Debug)]
pub struct Pipe<T> {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    read_buf: Vec<u8>,
    /// Tags of the requests on the wire, in send order.
    tags: VecDeque<T>,
    /// The interest last handed out by [`Pipe::interest_change`].
    interest: Interest,
}

impl<T> Pipe<T> {
    /// Wraps a connected stream, switching it to nonblocking mode. The
    /// caller registers [`Pipe::fd`] with [`Interest::READ`].
    ///
    /// # Errors
    /// Returns the failure of `set_nonblocking`.
    pub fn new(stream: TcpStream) -> io::Result<Pipe<T>> {
        stream.set_nonblocking(true)?;
        Ok(Pipe {
            stream,
            out: Vec::new(),
            out_pos: 0,
            read_buf: Vec::new(),
            tags: VecDeque::new(),
            interest: Interest::READ,
        })
    }

    /// The socket descriptor to register with a poller.
    #[must_use]
    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Requests sent and not yet answered.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.tags.len()
    }

    /// Queues `request` under `tag`; [`Pipe::flush`] puts it on the wire.
    ///
    /// # Errors
    /// Returns the encoding failure; nothing is queued then.
    pub fn send(&mut self, request: &Request, tag: T) -> Result<(), ProtoError> {
        write_request(&mut self.out, request)?;
        self.tags.push_back(tag);
        Ok(())
    }

    /// Writes as much queued output as the socket accepts.
    ///
    /// # Errors
    /// Returns the transport failure ([`PipeError::Io`]).
    pub fn flush(&mut self) -> Result<(), PipeError> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(PipeError::Io(io::ErrorKind::WriteZero.into())),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(PipeError::Io(e)),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(())
    }

    /// The poller interest this pipe needs now (read always, write
    /// while output is queued) when it differs from the one last
    /// returned here. A new pipe starts at [`Interest::READ`], so
    /// callers re-register only on a change.
    pub fn interest_change(&mut self) -> Option<Interest> {
        let want = Interest {
            readable: true,
            writable: self.out_pos < self.out.len(),
        };
        (want != self.interest).then(|| {
            self.interest = want;
            want
        })
    }

    /// Reads everything the socket holds and appends each complete
    /// reply, with the tag of the request it answers, to `replies` in
    /// order. Returns the number of bytes read.
    ///
    /// # Errors
    /// Returns why the connection is finished; replies that arrived
    /// before the failure are still appended.
    pub fn read(&mut self, replies: &mut Vec<(T, Response)>) -> Result<usize, PipeError> {
        let mut chunk = [0u8; READ_CHUNK];
        let mut total = 0;
        let ended = loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => break Some(PipeError::Closed),
                Ok(n) => {
                    total += n;
                    self.read_buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break None,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => break Some(PipeError::Io(e)),
            }
        };
        match self.parse(replies).err().or(ended) {
            Some(e) => Err(e),
            None => Ok(total),
        }
    }

    /// Matches every complete frame in the read buffer to its tag.
    fn parse(&mut self, replies: &mut Vec<(T, Response)>) -> Result<(), PipeError> {
        let mut pos = 0;
        let parsed = loop {
            match try_parse_frame(&self.read_buf[pos..]) {
                FrameProgress::Incomplete => break Ok(()),
                FrameProgress::Damaged(e) => break Err(PipeError::Damaged(e)),
                FrameProgress::Frame { payload, consumed } => {
                    // Decode before popping: on failure the tag stays
                    // with the unanswered ones.
                    let response = match Response::decode(&payload) {
                        Ok(response) => response,
                        Err(e) => break Err(PipeError::Undecodable(e)),
                    };
                    let Some(tag) = self.tags.pop_front() else {
                        break Err(PipeError::Unsolicited);
                    };
                    pos += consumed;
                    replies.push((tag, response));
                }
            }
        };
        self.read_buf.drain(..pos);
        parsed
    }

    /// Whether this idle pipe can no longer carry a request: the peer
    /// closed or reset it (a daemon's idle timeout), or sent bytes
    /// nobody asked for. Never blocks.
    #[must_use]
    pub fn peer_closed(&self) -> bool {
        if !self.read_buf.is_empty() {
            return true;
        }
        let mut probe = [0u8; 1];
        loop {
            match self.stream.peek(&mut probe) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                _ => return true,
            }
        }
    }

    /// Consumes the pipe, yielding the tags of the unanswered requests
    /// in send order.
    pub fn into_tags(self) -> impl Iterator<Item = T> {
        self.tags.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{read_frame, write_response};
    use std::net::TcpListener;
    use std::time::Instant;

    fn count(triangles: u64) -> Response {
        Response::Count {
            triangles,
            cached: true,
            wall_micros: 0,
        }
    }

    /// Reads until the pipe has taken `bytes` more bytes off the socket.
    fn read_bytes(
        pipe: &mut Pipe<&'static str>,
        replies: &mut Vec<(&'static str, Response)>,
        bytes: usize,
    ) {
        let start = Instant::now();
        let mut got = 0;
        while got < bytes {
            got += pipe.read(replies).expect("healthy pipe");
            std::thread::yield_now();
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "reply bytes never arrived"
            );
        }
    }

    #[test]
    fn replies_delivered_byte_by_byte_match_their_tags_in_order() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let (stream, retries) = dial(&addr, &RetryPolicy::no_retry(), None);
        assert_eq!(retries, 0);
        let mut pipe = Pipe::new(stream.expect("dial")).expect("pipe");
        let (mut server, _) = listener.accept().expect("accept");

        for tag in ["a", "b", "c"] {
            pipe.send(&Request::Ping, tag).expect("encode");
        }
        assert_eq!(pipe.interest_change(), Some(Interest::BOTH));
        pipe.flush().expect("flush");
        assert_eq!(pipe.interest_change(), Some(Interest::READ));
        assert_eq!(pipe.interest_change(), None);
        for _ in 0..3 {
            let payload = read_frame(&mut server).expect("request frame");
            assert_eq!(Request::decode(&payload).expect("decode"), Request::Ping);
        }

        let mut wire = Vec::new();
        for n in 1..=3 {
            write_response(&mut wire, &count(n)).expect("encode reply");
        }
        assert_eq!(wire.len() % 3, 0, "equal-length reply frames");
        let frame_len = wire.len() / 3;
        let mut replies = Vec::new();
        for (i, byte) in wire.iter().enumerate() {
            server.write_all(&[*byte]).expect("write one byte");
            read_bytes(&mut pipe, &mut replies, 1);
            assert_eq!(replies.len(), (i + 1) / frame_len, "after byte {i}");
        }
        assert_eq!(
            replies,
            vec![("a", count(1)), ("b", count(2)), ("c", count(3))]
        );
        assert_eq!(pipe.in_flight(), 0);
        assert!(!pipe.peer_closed());

        drop(server);
        let start = Instant::now();
        while !pipe.peer_closed() {
            assert!(start.elapsed() < Duration::from_secs(5), "close never seen");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(matches!(pipe.read(&mut replies), Err(PipeError::Closed)));
    }

    #[test]
    fn an_unanswered_request_survives_a_failure_as_a_tag() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let mut pipe =
            Pipe::new(dial(&addr, &RetryPolicy::no_retry(), None).0.expect("dial")).expect("pipe");
        let (mut server, _) = listener.accept().expect("accept");
        pipe.send(&Request::Ping, 1).expect("encode");
        pipe.send(&Request::Ping, 2).expect("encode");
        pipe.flush().expect("flush");

        let mut wire = Vec::new();
        write_response(&mut wire, &Response::Pong).expect("encode reply");
        wire.extend_from_slice(b"garbage!");
        server.write_all(&wire).expect("write");

        let start = Instant::now();
        let mut replies = Vec::new();
        let failure = loop {
            match pipe.read(&mut replies) {
                Ok(_) => assert!(start.elapsed() < Duration::from_secs(5), "no failure seen"),
                Err(e) => break e,
            }
        };
        assert!(matches!(failure, PipeError::Damaged(_)), "{failure}");
        assert_eq!(replies, vec![(1, Response::Pong)]);
        assert_eq!(pipe.into_tags().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn dial_reports_retries_spent_on_a_refused_address() {
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        };
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay_ms: 1,
            max_delay_ms: 1,
            seed: 1,
        };
        let (stream, retries) = dial(&addr, &policy, None);
        assert!(stream.is_err());
        assert_eq!(retries, 2);
        let expired = Deadline::after(Duration::ZERO);
        let (stream, retries) = dial(&addr, &policy, Some(expired));
        assert_eq!(stream.expect_err("expired").kind(), io::ErrorKind::TimedOut);
        assert_eq!(retries, 0, "no retry starts after the deadline");
    }
}
