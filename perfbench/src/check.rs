//! Reference answers and the per-op answer check.
//!
//! Every graph a workload queries gets its answers computed at set-up by
//! direct library calls, before any timed op. Every response is compared
//! with them; a mismatch is a failed op and makes the run incorrect.

use std::collections::BTreeMap;

use lotus_serve::proto::{ErrorKind, Request, Response};

/// What the answers for one graph must be.
#[derive(Debug, Clone, Default)]
pub struct Reference {
    pub vertices: u32,
    pub edges: u64,
    pub triangles: u64,
    pub per_vertex: Vec<u64>,
    /// `k`-clique counts for the `k` the workload asks for.
    pub kcliques: BTreeMap<u32, u64>,
}

/// How one op ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// An error reply (`Overloaded`, `DeadlineExpired`, ...), a timeout, or
    /// a reply of the wrong shape.
    Failed(&'static str),
    /// A well-formed answer that differs from the reference.
    Wrong,
}

/// Reference answers by registry name.
#[derive(Debug, Default)]
pub struct Oracle {
    pub graphs: BTreeMap<String, Reference>,
}

impl Oracle {
    pub fn check(&self, request: &Request, response: &Response) -> Verdict {
        if let Response::Error { kind, .. } = response {
            return Verdict::Failed(error_name(*kind));
        }
        let reference = |name: &str| self.graphs.get(name);
        match (request, response) {
            (Request::Ping, Response::Pong) | (Request::Stats, Response::Stats(_)) => Verdict::Ok,
            (Request::Count { name, .. }, Response::Count { triangles, .. }) => {
                match reference(name) {
                    Some(r) if r.triangles == *triangles => Verdict::Ok,
                    _ => Verdict::Wrong,
                }
            }
            (
                Request::PerVertex {
                    name, start, end, ..
                },
                Response::PerVertex {
                    start: got_start,
                    counts,
                },
            ) => match reference(name) {
                Some(r) => {
                    let end = (*end).min(r.vertices) as usize;
                    let want = r.per_vertex.get(*start as usize..end);
                    if *got_start == *start && want == Some(counts.as_slice()) {
                        Verdict::Ok
                    } else {
                        Verdict::Wrong
                    }
                }
                None => Verdict::Wrong,
            },
            (Request::KClique { name, k, .. }, Response::KClique { cliques, .. }) => {
                match reference(name).and_then(|r| r.kcliques.get(k)) {
                    Some(want) if want == cliques => Verdict::Ok,
                    _ => Verdict::Wrong,
                }
            }
            (
                Request::LoadGraph { name, .. },
                Response::Loaded {
                    vertices, edges, ..
                },
            ) => match reference(name) {
                Some(r) if r.vertices == *vertices && r.edges == *edges => Verdict::Ok,
                _ => Verdict::Wrong,
            },
            (Request::Batch(items), Response::Batch(replies)) if items.len() == replies.len() => {
                items
                    .iter()
                    .zip(replies)
                    .map(|(q, a)| self.check(q, a))
                    .find(|v| *v != Verdict::Ok)
                    .unwrap_or(Verdict::Ok)
            }
            _ => Verdict::Failed("unexpected_reply"),
        }
    }

    /// Corrupts one reference so every answer about that graph's total is
    /// wrong: the self-test that shows the check fires.
    pub fn plant_wrong(&mut self) {
        if let Some(r) = self.graphs.values_mut().next() {
            r.triangles += 1;
        }
    }
}

fn error_name(kind: ErrorKind) -> &'static str {
    match kind {
        ErrorKind::Overloaded => "overloaded",
        ErrorKind::DeadlineExpired => "deadline_expired",
        ErrorKind::ShardUnavailable => "shard_unavailable",
        ErrorKind::NotFound => "not_found",
        ErrorKind::BadRequest => "bad_request",
        _ => "error_reply",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lotus_serve::proto::NO_DEADLINE;

    fn oracle() -> Oracle {
        let mut graphs = BTreeMap::new();
        graphs.insert(
            "g".to_string(),
            Reference {
                vertices: 4,
                edges: 5,
                triangles: 2,
                per_vertex: vec![2, 1, 2, 1],
                kcliques: [(3, 2)].into_iter().collect(),
            },
        );
        Oracle { graphs }
    }

    fn count() -> Request {
        Request::Count {
            name: "g".into(),
            deadline_ms: NO_DEADLINE,
        }
    }

    fn answer(triangles: u64) -> Response {
        Response::Count {
            triangles,
            cached: true,
            wall_micros: 1,
        }
    }

    #[test]
    fn right_answers_pass() {
        let o = oracle();
        assert_eq!(o.check(&count(), &answer(2)), Verdict::Ok);
        let pv = Request::PerVertex {
            name: "g".into(),
            start: 1,
            end: 3,
            deadline_ms: NO_DEADLINE,
        };
        let got = Response::PerVertex {
            start: 1,
            counts: vec![1, 2],
        };
        assert_eq!(o.check(&pv, &got), Verdict::Ok);
        let batch = Request::Batch(vec![count(), Request::Ping]);
        assert_eq!(
            o.check(&batch, &Response::Batch(vec![answer(2), Response::Pong])),
            Verdict::Ok
        );
    }

    #[test]
    fn planted_wrong_reference_fires() {
        let mut o = oracle();
        o.plant_wrong();
        assert_eq!(o.check(&count(), &answer(2)), Verdict::Wrong);
        let batch = Request::Batch(vec![count(), Request::Ping]);
        assert_eq!(
            o.check(&batch, &Response::Batch(vec![answer(2), Response::Pong])),
            Verdict::Wrong
        );
    }

    #[test]
    fn error_replies_fail() {
        let o = oracle();
        let overloaded = Response::error(ErrorKind::Overloaded, "full");
        assert_eq!(
            o.check(&count(), &overloaded),
            Verdict::Failed("overloaded")
        );
        assert_eq!(
            o.check(&count(), &Response::Pong),
            Verdict::Failed("unexpected_reply")
        );
    }
}
