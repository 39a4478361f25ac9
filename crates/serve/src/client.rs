//! A minimal blocking client for the `lotus-serve` protocol.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use lotus_resilience::retry::RetryPolicy;

use crate::pipe::dial;
use crate::proto::{read_response, write_request, ProtoError, Request, Response};

/// One connection to a daemon; requests run strictly in order.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to `addr` (any `host:port` form), without retries.
    ///
    /// # Errors
    /// Returns the connect failure as [`ProtoError::Io`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ProtoError> {
        let (stream, _) = dial(addr, &RetryPolicy::no_retry(), None);
        Ok(Client { stream: stream? })
    }

    /// Connects with capped-backoff retries on *transient* connect
    /// failures (refused/reset — e.g. a daemon mid-restart). Returns
    /// the client plus how many retries were spent.
    ///
    /// # Errors
    /// The final attempt's failure as [`ProtoError::Io`]; non-transient
    /// errors are returned immediately without retrying.
    pub fn connect_with_retry(
        addr: &str,
        policy: &RetryPolicy,
    ) -> Result<(Client, u32), ProtoError> {
        let (stream, retries) = dial(addr, policy, None);
        Ok((Client { stream: stream? }, retries))
    }

    /// Bounds how long one [`Client::call`] may wait for its response.
    ///
    /// # Errors
    /// Returns the socket-option failure as [`ProtoError::Io`].
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ProtoError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Sends one request and reads its response.
    ///
    /// # Errors
    /// Propagates framing, checksum, and transport failures as
    /// [`ProtoError`]; after an error the connection should be dropped.
    pub fn call(&mut self, request: &Request) -> Result<Response, ProtoError> {
        write_request(&mut self.stream, request)?;
        read_response(&mut self.stream)
    }
}
