//! Degrees of separation (the paper's Q6 scenario): "shortest path queries
//! can be the basis of a query that needs to target a particular user or a
//! community of users, essentially finding the degrees of separation from
//! one person to another."
//!
//! Also demonstrates the two engines' different path primitives: arbordb's
//! bidirectional BFS against bitgraph's `SinglePairShortestPathBFS`, a
//! unidirectional BFS that returns only the hop count and allocates
//! nothing per expanded node (dense visited bitset, reused frontiers). The
//! one-sided search is deliberate: it is the weaker primitive the paper's
//! Figure 4(g)/(h) attributes to Sparksee. On this 2,000-user graph most
//! pairs are 2–3 hops apart, where the two engines are close; the
//! medium-scale `experiments fig4 g` / `fig4 h` panels show arbordb ahead
//! at 3–4 hops.
//!
//! ```sh
//! cargo run --release --example degrees_of_separation
//! ```

use micrograph_common::rng::SplitMix64;
use micrograph_common::stats::{OnlineStats, Timer};
use micrograph_core::engine::MicroblogEngine;
use micrograph_core::ingest::build_engines;
use micrograph_datagen::{generate, GenConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = GenConfig::small();
    config.users = 2_000;
    let dataset = generate(&config);
    let dir = std::env::temp_dir().join("micrograph-paths");
    let _ = std::fs::remove_dir_all(&dir);
    let files = dataset.write_csv(&dir)?;
    let (arbor, bit, _) = build_engines(&files)?;

    let users = dataset.users.len() as u64;
    let mut rng = SplitMix64::new(6);
    let max_hops = 5;

    println!("Random pair separations (max {max_hops} hops), mean lookup per separation:");
    // separation -> (arbordb ms, bitgraph ms)
    let mut by_len = std::collections::BTreeMap::new();
    for _ in 0..300 {
        let a = rng.next_range(1, users + 1) as i64;
        let b = rng.next_range(1, users + 1) as i64;
        if a == b {
            continue;
        }
        let t = Timer::start();
        let len_a = arbor.shortest_path_len(a, b, max_hops)?;
        let arbor_ms = t.elapsed_ms();
        let t = Timer::start();
        let len_b = bit.shortest_path_len(a, b, max_hops)?;
        let bit_ms = t.elapsed_ms();
        assert_eq!(len_a, len_b, "engines must agree on path length");
        let (arbor_stats, bit_stats) =
            by_len.entry(len_a).or_insert_with(|| (OnlineStats::new(), OnlineStats::new()));
        arbor_stats.add(arbor_ms);
        bit_stats.add(bit_ms);
    }
    for (len, (arbor_stats, bit_stats)) in &by_len {
        let label = match len {
            Some(l) => format!("{l} hops"),
            None => format!("> {max_hops} hops"),
        };
        let n = arbor_stats.count();
        println!(
            "   {label:>9}: {n:>4} pairs  arbordb {:.3} ms  bitgraph {:.3} ms  {}",
            arbor_stats.mean(),
            bit_stats.mean(),
            "#".repeat(n as usize / 4)
        );
    }
    println!(
        "\narbordb runs a bidirectional BFS, bitgraph a unidirectional one. The paper's \
         Figure 4(g)/(h): the bidirectional primitive pulls ahead as paths get longer."
    );
    Ok(())
}
