//! Set-oriented kernel execution (DESIGN.md §4h): batching a kernel's uid
//! list into ONE engine call — and exchanging BFS frontiers from both
//! endpoints — are pure performance moves. This suite pins the semantic
//! half of the bargain:
//!
//! * every batched `*_kernel(uids)` answers byte-identically to the
//!   per-uid loop it replaced (`kernel(&[uid])` per uid + the documented
//!   client-side merge), across the 8-engine matrix and both ArborQL
//!   executor modes, for adversarial uid lists (duplicates, missing
//!   users, unsorted order);
//! * the `*_counts_for_kernel` candidate probes equal the full kernel
//!   filtered to the candidate keys (the trait-default shape);
//! * an empty uid list is a valid query: empty results, never an error;
//! * Q6.1's sharded bidirectional frontier exchange returns exactly what
//!   both monoliths' native BFS returns, at every max-hops cap.

use arbor_ql::ExecMode;
use micrograph_core::engine::MicroblogEngine;
use micrograph_core::ingest::{build_engines, build_sharded_engines};
use micrograph_datagen::{generate, GenConfig};
use proptest::prelude::*;

/// Removes the temp dir on drop.
struct Guard(std::path::PathBuf);
impl Drop for Guard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const USERS: u64 = 60;

fn base_config(seed: u64) -> GenConfig {
    let mut cfg = GenConfig::unit();
    cfg.seed = seed;
    cfg.users = USERS;
    cfg.poster_fraction = 0.4;
    cfg.tweets_per_poster = 5;
    cfg.mentions_per_tweet = 1.5;
    cfg.tags_per_tweet = 1.0;
    cfg
}

/// The 8-engine matrix: the arbordb and bitgraph monoliths first, then
/// both backends sharded at N ∈ {1, 2, 4}.
struct Matrix {
    engines: Vec<Box<dyn MicroblogEngine>>,
    _guard: Guard,
}

impl Matrix {
    fn refs(&self) -> Vec<&dyn MicroblogEngine> {
        self.engines.iter().map(|e| e.as_ref()).collect()
    }
}

fn matrix(seed: u64) -> Matrix {
    let cfg = base_config(seed);
    let dir = micrograph_common::unique_temp_dir(&format!("setkern-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    let dataset = generate(&cfg);
    let files = dataset.write_csv(&dir).unwrap();
    let (a, b, _) = build_engines(&files).unwrap();
    let mut engines: Vec<Box<dyn MicroblogEngine>> = vec![Box::new(a), Box::new(b)];
    for shards in [1usize, 2, 4] {
        let (sa, sb) =
            build_sharded_engines(&dataset, &dir.join(format!("shards-{shards}")), shards)
                .unwrap();
        engines.push(Box::new(sa));
        engines.push(Box::new(sb));
    }
    Matrix { engines, _guard: Guard(dir) }
}

// ---- per-uid-loop baselines ------------------------------------------------
// Each reconstructs a batched kernel's contract from single-uid calls plus
// the documented client-side merge — the exact shape the adapters ran
// before batching.

fn per_uid_posted(e: &dyn MicroblogEngine, uids: &[i64]) -> Vec<i64> {
    let mut out = Vec::new();
    for &u in uids {
        out.extend(e.posted_tweets_kernel(&[u]).unwrap());
    }
    out.sort_unstable();
    out
}

fn per_uid_hashtags(e: &dyn MicroblogEngine, uids: &[i64]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for &u in uids {
        out.extend(e.hashtags_kernel(&[u]).unwrap());
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn per_uid_frontier(e: &dyn MicroblogEngine, uids: &[i64]) -> Vec<i64> {
    let mut out: Vec<i64> = Vec::new();
    for &u in uids {
        out.extend(e.follow_frontier_kernel(&[u]).unwrap());
    }
    out.sort_unstable();
    out.dedup();
    out
}

fn per_uid_counts(
    per_uid: impl Fn(i64) -> Vec<(i64, u64)>,
    uids: &[i64],
) -> Vec<(i64, u64)> {
    let mut all: Vec<(i64, u64)> = Vec::new();
    for &u in uids {
        all.extend(per_uid(u));
    }
    all.sort_unstable();
    let mut out: Vec<(i64, u64)> = Vec::new();
    for (k, c) in all {
        match out.last_mut() {
            Some(last) if last.0 == k => last.1 += c,
            _ => out.push((k, c)),
        }
    }
    out
}

/// The trait-default candidate-probe shape: the full list filtered to the
/// ascending-sorted candidate keys.
fn filtered<K: Ord + Clone>(full: &[(K, u64)], keys: &[K]) -> Vec<(K, u64)> {
    full.iter()
        .filter(|(k, _)| keys.binary_search(k).is_ok())
        .cloned()
        .collect()
}

/// Distinct sorted keys drawn from a count list, plus some absent probes.
fn candidate_keys(full: &[(i64, u64)]) -> Vec<i64> {
    let mut keys: Vec<i64> = full.iter().step_by(2).map(|(k, _)| *k).collect();
    keys.push(-7); // never a uid
    keys.push(i64::MAX);
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Runs `check` under every executor mode the engine supports. Engines
/// with no declarative layer (bitgraph) run once in their only mode.
fn for_each_exec_mode(e: &dyn MicroblogEngine, mut check: impl FnMut()) {
    if e.exec_mode().is_some() {
        for mode in [ExecMode::Tuple, ExecMode::Vectorized] {
            assert!(e.set_exec_mode(mode));
            check();
        }
    } else {
        check();
    }
}

#[test]
fn empty_uid_list_yields_empty_results_not_errors() {
    let m = matrix(301);
    for e in m.refs() {
        for_each_exec_mode(e, || {
            let none: &[i64] = &[];
            assert_eq!(e.posted_tweets_kernel(none).unwrap(), Vec::<i64>::new(), "{}", e.name());
            assert_eq!(e.hashtags_kernel(none).unwrap(), Vec::<String>::new(), "{}", e.name());
            assert_eq!(e.count_followees_kernel(none).unwrap(), vec![], "{}", e.name());
            assert_eq!(e.count_followers_kernel(none).unwrap(), vec![], "{}", e.name());
            assert_eq!(e.follow_frontier_kernel(none).unwrap(), Vec::<i64>::new(), "{}", e.name());
            // Candidate probes with an empty key list are empty too.
            assert_eq!(e.co_mention_counts_for_kernel(1, &[]).unwrap(), vec![], "{}", e.name());
            assert_eq!(e.count_followees_counts_for_kernel(&[1], &[]).unwrap(), vec![], "{}", e.name());
            assert_eq!(e.count_followers_counts_for_kernel(&[1], &[]).unwrap(), vec![], "{}", e.name());
            assert_eq!(
                e.co_tag_counts_for_kernel("tag1", &[]).unwrap(),
                vec![],
                "{}",
                e.name()
            );
        });
    }
}

#[test]
fn duplicate_uids_count_per_occurrence() {
    // The kernel contract is per-OCCURRENCE: a uid listed twice
    // contributes twice to count kernels and posted-tweet concatenation
    // (the `IN` dedup inside the batched query must be compensated
    // client-side). Checked against the looped baseline on a list that is
    // nothing but duplicates.
    let m = matrix(302);
    let uids = [3i64, 3, 3, 7, 7];
    for e in m.refs() {
        for_each_exec_mode(e, || {
            assert_eq!(
                e.posted_tweets_kernel(&uids).unwrap(),
                per_uid_posted(e, &uids),
                "{}: posted",
                e.name()
            );
            assert_eq!(
                e.count_followees_kernel(&uids).unwrap(),
                per_uid_counts(|u| e.count_followees_kernel(&[u]).unwrap(), &uids),
                "{}: followee counts",
                e.name()
            );
            assert_eq!(
                e.count_followers_kernel(&uids).unwrap(),
                per_uid_counts(|u| e.count_followers_kernel(&[u]).unwrap(), &uids),
                "{}: follower counts",
                e.name()
            );
        });
    }
}

#[test]
fn sharded_bfs_matches_both_monoliths() {
    // Both monoliths run their engine's native BFS (arbordb's is
    // bidirectional, bitgraph's one-sided), so together they pin the
    // sharded frontier exchange to two independent searches.
    let m = matrix(303);
    let es = m.refs();
    let pairs =
        [(1i64, 2i64), (3, 50), (10, 55), (5, 5), (7, 59), (40, 2), (1, 99999), (99999, 1)];
    let mut found = 0;
    for (a, b) in pairs {
        for max in [0u32, 1, 2, 3, 4, 6, 10] {
            let expected = es[0].shortest_path_len(a, b, max).unwrap();
            found += usize::from(expected.is_some_and(|d| d > 1));
            for e in &es[1..] {
                assert_eq!(
                    expected,
                    e.shortest_path_len(a, b, max).unwrap(),
                    "{}: {a}->{b} max {max}: diverged from {}",
                    e.name(),
                    es[0].name()
                );
            }
        }
    }
    assert!(found > 0, "vacuous: no multi-hop path in the grid");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For random uid lists — unsorted, with duplicates and missing users
    /// — every batched kernel equals its per-uid loop, and every
    /// candidate probe equals the filtered full kernel, on all 8 engines
    /// under both executor modes.
    #[test]
    fn batched_kernels_match_per_uid_loops(
        seed in 310u64..340,
        uids in prop::collection::vec(0i64..(USERS as i64 + 10), 1..10),
    ) {
        let m = matrix(seed);
        for e in m.refs() {
            let mut failed: Option<String> = None;
            for_each_exec_mode(e, || {
                if failed.is_some() {
                    return;
                }
                let checks: [(&str, bool); 5] = [
                    (
                        "posted",
                        e.posted_tweets_kernel(&uids).unwrap() == per_uid_posted(e, &uids),
                    ),
                    (
                        "hashtags",
                        e.hashtags_kernel(&uids).unwrap() == per_uid_hashtags(e, &uids),
                    ),
                    (
                        "followee counts",
                        e.count_followees_kernel(&uids).unwrap()
                            == per_uid_counts(|u| e.count_followees_kernel(&[u]).unwrap(), &uids),
                    ),
                    (
                        "follower counts",
                        e.count_followers_kernel(&uids).unwrap()
                            == per_uid_counts(|u| e.count_followers_kernel(&[u]).unwrap(), &uids),
                    ),
                    (
                        "frontier",
                        e.follow_frontier_kernel(&uids).unwrap() == per_uid_frontier(e, &uids),
                    ),
                ];
                for (label, ok) in checks {
                    if !ok {
                        failed = Some(format!("{}: batched {label} != per-uid loop", e.name()));
                        return;
                    }
                }
                // Candidate probes against the filtered full kernels.
                let full_out = e.count_followees_kernel(&uids).unwrap();
                let keys = candidate_keys(&full_out);
                if e.count_followees_counts_for_kernel(&uids, &keys).unwrap()
                    != filtered(&full_out, &keys)
                {
                    failed = Some(format!("{}: followee counts_for probe", e.name()));
                    return;
                }
                let full_in = e.count_followers_kernel(&uids).unwrap();
                let keys = candidate_keys(&full_in);
                if e.count_followers_counts_for_kernel(&uids, &keys).unwrap()
                    != filtered(&full_in, &keys)
                {
                    failed = Some(format!("{}: follower counts_for probe", e.name()));
                    return;
                }
                let subject = uids[0];
                let full_cm = e.co_mention_counts_kernel(subject).unwrap();
                let keys = candidate_keys(&full_cm);
                if e.co_mention_counts_for_kernel(subject, &keys).unwrap()
                    != filtered(&full_cm, &keys)
                {
                    failed = Some(format!("{}: co-mention counts_for probe", e.name()));
                    return;
                }
                let full_ct = e.co_tag_counts_kernel("tag1").unwrap();
                let mut tag_keys: Vec<String> =
                    full_ct.iter().step_by(2).map(|(k, _)| k.clone()).collect();
                tag_keys.push("zz-no-such-tag".to_owned());
                tag_keys.sort();
                tag_keys.dedup();
                if e.co_tag_counts_for_kernel("tag1", &tag_keys).unwrap()
                    != filtered(&full_ct, &tag_keys)
                {
                    failed = Some(format!("{}: co-tag counts_for probe", e.name()));
                }
            });
            prop_assert!(failed.is_none(), "seed {}: {}", seed, failed.unwrap());
        }
    }
}
