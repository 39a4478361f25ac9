//! LOTUS statistics must not depend on how many threads split the work.

use lotus_core::count::LotusCounter;
use lotus_core::preprocess::build_lotus_graph;
use lotus_core::stats::LotusStats;
use lotus_resilience::RunGuard;

#[test]
fn stats_are_identical_at_every_thread_count() {
    // Skewed R-MAT: hub-first relabeling piles most of the HNN and NNN
    // work into the first vertices, so the pool's chunks are uneven.
    let g = lotus_gen::Rmat::new(13, 16).generate(11);
    let stats_at = |threads: usize| -> [LotusStats; 3] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            let counter = LotusCounter::default();
            let lg = build_lotus_graph(&g, counter.config());
            [
                counter.count(&g).stats,
                counter
                    .count_guarded(&g, &RunGuard::unlimited())
                    .expect("an unlimited guard never stops the run")
                    .stats,
                counter.count_prepared(&lg).stats,
            ]
        })
    };
    let want = stats_at(1);
    assert!(want[0].total() > 0, "the graph must have triangles");
    assert!(want.iter().all(|s| *s == want[0]), "entry points disagree");
    for threads in [2, 3, 4, 8] {
        assert_eq!(stats_at(threads), want, "{threads} threads");
    }
}
