//! Fault-injection coverage: every registered fault point, when armed,
//! must surface as a clean typed error — never an unhandled panic and
//! never a silently wrong count.
//!
//! Requires `--features fault-injection`; the registry is process-global
//! so every test that arms faults serializes on [`TEST_LOCK`].
#![cfg(feature = "fault-injection")]

use std::sync::Mutex;

use lotus_algos::forward::{forward_count, forward_count_guarded};
use lotus_core::config::{HubCount, LotusConfig};
use lotus_core::count::{CountError, LotusCounter, Phase};
use lotus_core::preprocess::build_lotus_graph;
use lotus_graph::io::{read_binary, read_edge_list_text, write_binary};
use lotus_graph::{EdgeList, GraphError, UndirectedCsr};
use lotus_resilience::fault::{
    arm, arm_plan, hits, reset, seeded_plan, FaultKind, PlannedFault, POINTS,
};
use lotus_resilience::{isolate, RunGuard};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn test_graph() -> UndirectedCsr {
    lotus_gen::Rmat::new(9, 8).generate(5)
}

fn counter() -> LotusCounter {
    LotusCounter::new(LotusConfig::default().with_hub_count(HubCount::Fixed(64)))
}

fn sample_binary() -> Vec<u8> {
    let el = EdgeList::from_pairs(vec![(0, 1), (1, 2), (0, 2), (2, 3)]).canonicalized();
    let mut buf = Vec::new();
    write_binary(&el, &mut buf).expect("in-memory write");
    buf
}

/// Arms `point` and drives the operation that passes through it,
/// asserting the injected fault surfaces as the layer's typed error.
/// Panics on an unknown point so extending [`POINTS`] without a test
/// here fails loudly.
fn exercise(point: &'static str) {
    match point {
        "io.read_binary.header" | "io.read_binary.payload" => {
            let err = read_binary(&sample_binary()[..]).expect_err(point);
            assert!(matches!(err, GraphError::Io(_)), "{point}: {err:?}");
            assert!(err.to_string().contains(point), "{point}: {err}");
        }
        "io.read_text.line" => {
            let err = read_edge_list_text(&b"0 1\n1 2\n0 2\n"[..]).expect_err(point);
            assert!(matches!(err, GraphError::Io(_)), "{point}: {err:?}");
        }
        "core.preprocess.build" => {
            let err = counter()
                .count_guarded(&test_graph(), &RunGuard::unlimited())
                .expect_err(point);
            match err {
                CountError::PhasePanic { phase, message, .. } => {
                    assert_eq!(phase, Phase::Preprocess);
                    assert!(message.contains(point), "{message}");
                }
                other => panic!("{point}: expected PhasePanic, got {other:?}"),
            }
        }
        "core.phase.hhh_hhn" | "core.phase.hnn" | "core.phase.nnn" => {
            let want_phase = match point {
                "core.phase.hhh_hhn" => Phase::HhhHhn,
                "core.phase.hnn" => Phase::Hnn,
                _ => Phase::Nnn,
            };
            let err = counter()
                .count_guarded(&test_graph(), &RunGuard::unlimited())
                .expect_err(point);
            match err {
                CountError::PhasePanic { phase, message, .. } => {
                    assert_eq!(phase, want_phase, "{point}");
                    assert!(message.contains(point), "{message}");
                }
                other => panic!("{point}: expected PhasePanic, got {other:?}"),
            }
            // The plain entry points run the same phases and re-raise
            // the caught panic with its message.
            let g = test_graph();
            let lg = build_lotus_graph(&g, counter().config());
            for caught in [
                isolate(|| counter().count(&g)).expect_err(point),
                isolate(|| counter().count_prepared(&lg)).expect_err(point),
            ] {
                assert!(caught.message.contains(point), "{}", caught.message);
            }
        }
        "algos.forward.count" => {
            let caught = isolate(|| forward_count_guarded(&test_graph(), &RunGuard::unlimited()))
                .expect_err(point);
            assert!(caught.message.contains(point), "{}", caught.message);
        }
        "serve.snapshot.write"
        | "serve.snapshot.fsync"
        | "serve.snapshot.rename"
        | "serve.journal.append" => {
            // Every durable-store fault must surface as a typed
            // StoreError naming the failed step — the daemon turns it
            // into a DurabilityFailed response, never a crash.
            let dir = std::env::temp_dir().join(format!(
                "lotus-fault-{}-{}",
                point.replace('.', "_"),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("tmp dir");
            let (store, _state) = lotus_serve::DurableStore::open(&dir).expect("open store");
            let err = store
                .record_register("g", "rmat:6:4:1", &lotus_gen::Rmat::new(6, 4).generate(1))
                .expect_err(point);
            assert!(
                matches!(err, lotus_serve::StoreError::Io { .. }),
                "{point}: {err:?}"
            );
            assert!(err.to_string().contains(point), "{point}: {err}");
            let _ = std::fs::remove_dir_all(&dir);
        }
        other => panic!("fault point '{other}' has no injection test"),
    }
}

#[test]
fn every_registered_point_yields_a_typed_error() {
    let _guard = locked();
    for &point in POINTS {
        reset();
        // fire() maps IoError to Err at fallible sites; fire_panic()
        // panics for any armed kind, so one kind covers both site forms.
        arm(point, FaultKind::IoError, 1);
        exercise(point);
    }
    reset();
}

#[test]
fn short_reads_and_panics_are_equally_clean() {
    let _guard = locked();
    for kind in [FaultKind::ShortRead, FaultKind::Panic] {
        reset();
        arm("io.read_binary.payload", kind, 1);
        let result = std::panic::catch_unwind(|| read_binary(&sample_binary()[..]));
        match kind {
            FaultKind::Panic => {
                // fire() panics for an armed Panic fault; the reader must
                // not be relied on to catch it, callers isolate().
                assert!(result.is_err() || result.unwrap().is_err());
            }
            _ => {
                let err = result.expect("no panic").expect_err("typed error");
                assert!(matches!(err, GraphError::Io(_)), "{err:?}");
            }
        }
    }
    reset();
}

#[test]
fn nth_hit_arming_fires_from_n_onward() {
    let _guard = locked();
    reset();
    let buf = sample_binary();
    // Hits at this point: one per payload edge per read (4 edges).
    arm("io.read_binary.payload", FaultKind::ShortRead, 3);
    let err = read_binary(&buf[..]).expect_err("third edge read fails");
    assert!(matches!(err, GraphError::Io(_)), "{err:?}");
    assert_eq!(hits("io.read_binary.payload"), 3);
    // Persistent: the next read fails at its first edge (hit 4 >= 3).
    assert!(read_binary(&buf[..]).is_err());
    reset();
}

#[test]
fn unarmed_runs_count_exactly() {
    let _guard = locked();
    reset();
    let g = test_graph();
    let want = forward_count(&g);
    let r = counter()
        .count_guarded(&g, &RunGuard::unlimited())
        .expect("no faults armed");
    assert_eq!(r.total(), want, "fault-injection build must stay exact");
    // The phase points were hit (probed) even though nothing was armed.
    assert!(hits("core.phase.hhh_hhn") > 0);
    assert!(hits("core.phase.hnn") > 0);
    assert!(hits("core.phase.nnn") > 0);
    reset();
}

#[test]
fn seeded_plans_inject_reproducibly_and_never_escape() {
    let _guard = locked();
    let buf = sample_binary();
    let g = test_graph();
    for seed in 0..8u64 {
        let plan: Vec<PlannedFault> = seeded_plan(seed, POINTS, 2);
        assert_eq!(plan, seeded_plan(seed, POINTS, 2), "seed {seed}");
        reset();
        arm_plan(&plan);
        // Whatever the plan injects, the pipeline must fail typed: the
        // I/O layer returns GraphError, the counting layer CountError,
        // and isolate() confines the panics.
        let outcome = isolate(|| match read_binary(&buf[..]) {
            Err(e) => Err(format!("load: {e}")),
            Ok(_) => match counter().count_guarded(&g, &RunGuard::unlimited()) {
                Err(e) => Err(format!("count: {e}")),
                Ok(r) => Ok(r.total()),
            },
        });
        match outcome {
            Ok(Err(typed)) => assert!(typed.contains("fault point"), "seed {seed}: {typed}"),
            Ok(Ok(_)) => panic!("seed {seed}: every point armed, yet the run succeeded"),
            Err(caught) => {
                // An injected panic at a fallible I/O site escapes to the
                // outer isolate — still confined, still attributed.
                assert!(
                    caught.message.contains("fault point"),
                    "seed {seed}: {}",
                    caught.message
                );
            }
        }
    }
    reset();
}
