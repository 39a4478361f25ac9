//! `lotus-serve`: the graph query service of the LOTUS workspace.
//!
//! A dependency-free `std::net` TCP daemon that serves triangle and
//! clique queries over fully preprocessed LOTUS graphs:
//!
//! - [`proto`] — the length-prefixed binary wire protocol (magic +
//!   version + CRC32 trailer, untrusted-length hardening shared with
//!   `lotus_graph::io`).
//! - [`registry`] — the preprocessed-graph registry: load/build once,
//!   serve many times, LRU-evicted against a
//!   `lotus_resilience::MemoryBudget`.
//! - [`pool`] — the bounded worker pool behind admission control.
//! - [`event_loop`] — the connection frontend: acceptor, readiness
//!   loops, quotas, pipelining and drain, answering through a
//!   [`Handler`]; the cluster coordinator runs on it too.
//! - [`server`] — the daemon itself: the registry-backed handler,
//!   per-request deadlines, panic isolation, durability.
//! - [`client`] — a minimal blocking client.
//! - [`pipe`] — the client side of one nonblocking, pipelined
//!   connection (used by the loadgen and the cluster fleet), and the
//!   [`pipe::dial`] helper every client connects through.
//! - [`loadgen`] — the load-generator harness measuring request
//!   latency percentiles for the BENCH `serve` section.
//!
//! The daemon speaks nine request types — `Ping`, `Stats`, `Count`,
//! `PerVertex`, `KClique`, `Batch`, and the admin `LoadGraph` /
//! `EvictGraph` / `Drain` — and always answers with a structured
//! [`proto::Response`], including typed errors for overload, expired
//! deadlines, and isolated worker panics. See DESIGN.md §11.

pub mod client;
pub mod event_loop;
pub mod journal;
pub mod loadgen;
pub(crate) mod mux;
pub mod pipe;
pub mod pool;
pub mod proto;
pub mod recovery;
pub mod registry;
pub mod server;
pub mod shards;
pub mod store;
pub mod timer;

pub use client::Client;
pub use event_loop::{Frontend, Handler};
pub use journal::{Journal, JournalRecord};
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use proto::{ErrorKind, LoopStat, ProtoError, Request, Response, StatsReply};
pub use recovery::{recover, RecoveredState, RecoveryReport};
pub use registry::{GraphSpec, PreparedGraph, Registry, RegistryError};
pub use server::{spawn, ServeConfig, ServeError, ServeStats, ServerHandle, ServerState};
pub use shards::{ShardStore, StoredShard};
pub use store::{DurableStore, StoreError};
