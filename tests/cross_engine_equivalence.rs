//! The load-bearing invariant of the reproduction: **both engine
//! architectures answer every Table 2 query identically** on the same
//! dataset — and so does the sharded composition over either backend, at
//! any shard count. The paper compares the two systems' performance; that
//! is only meaningful because the answers agree.
//!
//! Every workload assertion goes through one generic path ([`agree`]) over
//! `&dyn MicroblogEngine`. The [`matrix`] builds twelve engines per
//! dataset: the two monolithic adapters, `ShardedEngine` over each
//! backend at N ∈ {1, 2, 4} shards, plus R-way replicated sharded
//! engines at 2 shards × R ∈ {2, 3} — adding a backend, a partitioning
//! scheme or a replication factor means adding elements there, not
//! another copy of the assertions. Engine-specific alternate implementations (phrasings,
//! traversal-API variants) are compared against the trait answer on their
//! concrete types at the end.

use micrograph_core::engine::MicroblogEngine;
use micrograph_core::ingest::{build_engines, build_replicated_engines, build_sharded_engines};
use micrograph_core::{ArborEngine, BitEngine};
use micrograph_datagen::{generate, GenConfig};

/// Removes the temp dir on drop.
struct Guard(std::path::PathBuf);
impl Drop for Guard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn base_config(seed: u64, users: u64) -> GenConfig {
    let mut cfg = GenConfig::unit();
    cfg.seed = seed;
    cfg.users = users;
    cfg.poster_fraction = 0.3;
    cfg.tweets_per_poster = 6;
    cfg.mentions_per_tweet = 1.2;
    cfg.tags_per_tweet = 0.8;
    cfg
}

fn engines(seed: u64, users: u64) -> (ArborEngine, BitEngine, Guard) {
    let dir = micrograph_common::unique_temp_dir(&format!("xengine-{seed}-{users}"));
    let _ = std::fs::remove_dir_all(&dir);
    let files = generate(&base_config(seed, users)).write_csv(&dir).unwrap();
    let (a, b, _) = build_engines(&files).unwrap();
    (a, b, Guard(dir))
}

/// Both engines as trait objects (for the concrete-type comparisons).
fn pair<'a>(a: &'a ArborEngine, b: &'a BitEngine) -> [&'a dyn MicroblogEngine; 2] {
    [a, b]
}

/// The full agreement matrix over one dataset: both monolithic engines,
/// `ShardedEngine` over each backend at 1, 2 and 4 shards, and R-way
/// replicated sharded engines at 2 shards × R ∈ {2, 3}.
struct Matrix {
    engines: Vec<Box<dyn MicroblogEngine>>,
    _guard: Guard,
}

impl Matrix {
    fn refs(&self) -> Vec<&dyn MicroblogEngine> {
        self.engines.iter().map(|e| e.as_ref()).collect()
    }
}

fn matrix(seed: u64, users: u64) -> Matrix {
    let cfg = base_config(seed, users);
    let dir = micrograph_common::unique_temp_dir(&format!("xmatrix-{seed}-{users}"));
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
    // The replica axis (DESIGN.md §4i): R-way replica groups at 2 shards —
    // replication shapes only routing and failover, never answers.
    for replicas in [2usize, 3] {
        let (ra, rb) =
            build_replicated_engines(&dataset, &dir.join(format!("replicas-{replicas}")), 2, replicas)
                .unwrap();
        engines.push(Box::new(ra));
        engines.push(Box::new(rb));
    }
    Matrix { engines, _guard: Guard(dir) }
}

/// The single generic assertion path: runs `f` on every engine through
/// `&dyn MicroblogEngine` and asserts all answers equal the first one.
fn agree<T, F>(engines: &[&dyn MicroblogEngine], label: &str, f: F) -> T
where
    T: PartialEq + std::fmt::Debug,
    F: Fn(&dyn MicroblogEngine) -> T,
{
    let reference = engines.first().expect("at least one engine");
    let expected = f(*reference);
    for e in &engines[1..] {
        let got = f(*e);
        assert_eq!(expected, got, "{label}: {} vs {}", reference.name(), e.name());
    }
    expected
}

#[test]
fn q1_selection_agrees() {
    let m = matrix(11, 150);
    let es = m.refs();
    for th in [0, 1, 3, 10, 100] {
        agree(&es, &format!("Q1.1 threshold {th}"), |e| {
            e.users_with_followers_over(th).unwrap()
        });
    }
}

#[test]
fn q2_adjacency_agrees() {
    let m = matrix(12, 150);
    let es = m.refs();
    for uid in 1..=30 {
        agree(&es, &format!("Q2.1 uid {uid}"), |e| e.followees(uid).unwrap());
        agree(&es, &format!("Q2.2 uid {uid}"), |e| e.followee_tweets(uid).unwrap());
        agree(&es, &format!("Q2.3 uid {uid}"), |e| e.followee_hashtags(uid).unwrap());
    }
}

#[test]
fn q3_cooccurrence_agrees() {
    let m = matrix(13, 150);
    let es = m.refs();
    for uid in 1..=40 {
        agree(&es, &format!("Q3.1 uid {uid}"), |e| e.co_mentioned_users(uid, 10).unwrap());
    }
    for t in 1..=8 {
        let tag = format!("tag{t}");
        agree(&es, &format!("Q3.2 {tag}"), |e| e.co_occurring_hashtags(&tag, 10).unwrap());
    }
}

#[test]
fn q4_recommendation_agrees() {
    let m = matrix(14, 150);
    let es = m.refs();
    for uid in 1..=30 {
        agree(&es, &format!("Q4.1 uid {uid}"), |e| e.recommend_followees(uid, 10).unwrap());
        agree(&es, &format!("Q4.2 uid {uid}"), |e| e.recommend_followers(uid, 10).unwrap());
    }
}

#[test]
fn q5_influence_agrees() {
    let m = matrix(16, 150);
    let es = m.refs();
    for uid in 1..=40 {
        agree(&es, &format!("Q5.1 uid {uid}"), |e| e.current_influence(uid, 10).unwrap());
        agree(&es, &format!("Q5.2 uid {uid}"), |e| e.potential_influence(uid, 10).unwrap());
    }
}

#[test]
fn q5_partitions_mentioners() {
    // Current and potential influence never share a user — on either engine.
    let m = matrix(17, 120);
    let es = m.refs();
    for uid in 1..=20 {
        agree(&es, &format!("Q5 partition uid {uid}"), |e| {
            let cur = e.current_influence(uid, 1000).unwrap();
            let pot = e.potential_influence(uid, 1000).unwrap();
            let cur_keys: std::collections::HashSet<i64> = cur.iter().map(|r| r.key).collect();
            for p in &pot {
                assert!(
                    !cur_keys.contains(&p.key),
                    "{}: uid {uid}: {} in both partitions",
                    e.name(),
                    p.key
                );
            }
            (cur, pot)
        });
    }
}

#[test]
fn huge_top_n_limits_agree_across_the_matrix() {
    // A top-n size past `i64::MAX` is a legal `usize` and means "every
    // candidate". Each query runs at two huge n on a subject whose answer
    // is non-empty, and every engine of the matrix must return the same
    // full ranking — no wrapped LIMIT binding, no overflowing `k + 1`.
    type TopN = fn(&dyn MicroblogEngine, i64, usize) -> Vec<(String, u64)>;
    fn keyed(r: Vec<micrograph_core::engine::Ranked<i64>>) -> Vec<(String, u64)> {
        r.into_iter().map(|r| (r.key.to_string(), r.count)).collect()
    }
    let queries: [(&str, TopN); 6] = [
        ("Q3.1", |e, s, n| keyed(e.co_mentioned_users(s, n).unwrap())),
        ("Q3.2", |e, s, n| {
            let r = e.co_occurring_hashtags(&format!("tag{s}"), n).unwrap();
            r.into_iter().map(|r| (r.key, r.count)).collect()
        }),
        ("Q4.1", |e, s, n| keyed(e.recommend_followees(s, n).unwrap())),
        ("Q4.2", |e, s, n| keyed(e.recommend_followers(s, n).unwrap())),
        ("Q5.1", |e, s, n| keyed(e.current_influence(s, n).unwrap())),
        ("Q5.2", |e, s, n| keyed(e.potential_influence(s, n).unwrap())),
    ];
    let m = matrix(19, 60);
    let es = m.refs();
    for (label, run) in queries {
        // Subjects are uids, or tag numbers for Q3.2; bitgraph picks them
        // at a small n.
        let subject = (1..=60)
            .find(|&s| !run(es[1], s, 10).is_empty())
            .unwrap_or_else(|| panic!("{label}: no subject with a non-empty answer"));
        for n in [usize::MAX / 2, usize::MAX] {
            let got = agree(&es, &format!("{label} subject {subject} n {n}"), |e| {
                run(e, subject, n)
            });
            assert!(!got.is_empty(), "{label} subject {subject} n {n}: vacuous");
        }
    }
}

#[test]
fn q6_shortest_paths_agree() {
    let m = matrix(18, 120);
    let es = m.refs();
    for (ua, ub) in [(1, 2), (3, 50), (10, 90), (5, 5), (7, 119), (100, 2)] {
        for max in [1, 2, 3, 4, 6] {
            agree(&es, &format!("Q6.1 {ua}->{ub} max {max}"), |e| {
                e.shortest_path_len(ua, ub, max).unwrap()
            });
        }
    }
}

#[test]
fn composite_building_blocks_agree() {
    let m = matrix(21, 120);
    let es = m.refs();
    for t in 1..=6 {
        let tag = format!("tag{t}");
        let tids = agree(&es, &format!("tweets with {tag}"), |e| {
            e.tweets_with_hashtag(&tag).unwrap()
        });
        for tid in tids.into_iter().take(5) {
            agree(&es, &format!("retweet count of {tid}"), |e| e.retweet_count(tid).unwrap());
            agree(&es, &format!("poster of {tid}"), |e| e.poster_of(tid).unwrap());
        }
    }
}

#[test]
fn missing_entities_are_empty_everywhere() {
    let m = matrix(20, 60);
    let es = m.refs();
    let empty_followees =
        agree(&es, "missing user Q2.1", |e| e.followees(99999).unwrap());
    assert!(empty_followees.is_empty());
    let empty_mentions =
        agree(&es, "missing user Q3.1", |e| e.co_mentioned_users(99999, 5).unwrap());
    assert!(empty_mentions.is_empty());
    let empty_tags = agree(&es, "missing tag Q3.2", |e| {
        e.co_occurring_hashtags("no-such-tag", 5).unwrap()
    });
    assert!(empty_tags.is_empty());
    let no_path =
        agree(&es, "missing user Q6.1", |e| e.shortest_path_len(1, 99999, 3).unwrap());
    assert_eq!(no_path, None);
}

#[test]
fn several_seeds_full_sweep() {
    use micrograph_common::rng::SplitMix64;
    use micrograph_core::workload::{run_query, QueryId, QueryParams};
    for seed in [31, 32, 33] {
        let m = matrix(seed, 100);
        let es = m.refs();
        let mut rng = SplitMix64::new(seed);
        for _ in 0..5 {
            let params = QueryParams::sample(&mut rng, 100, 8);
            for q in QueryId::ALL {
                agree(&es, &format!("{} seed {seed} params {params:?}", q.label()), |e| {
                    run_query(e, q, &params).unwrap()
                });
            }
        }
    }
}

#[test]
fn update_events_agree_through_the_trait() {
    use micrograph_datagen::{StreamGen, StreamMix};
    let m = matrix(22, 120);
    let es = m.refs();
    let cfg = base_config(22, 120);
    let dataset = generate(&cfg);
    let events = StreamGen::new(&dataset, &cfg, 5, StreamMix::default()).events(150);
    for event in &events {
        agree(&es, "apply_event", |e| {
            e.apply_event(event).unwrap();
        });
    }
    for uid in 1..=25 {
        agree(&es, &format!("post-update Q2.1 uid {uid}"), |e| e.followees(uid).unwrap());
        agree(&es, &format!("post-update Q4.1 uid {uid}"), |e| {
            e.recommend_followees(uid, 10).unwrap()
        });
    }
    // Q1 reads the followers property — this pins the cross-shard follow
    // routing (edge at the follower's shard, count bump at the owner).
    for th in [0, 1, 3, 10] {
        agree(&es, &format!("post-update Q1.1 threshold {th}"), |e| {
            e.users_with_followers_over(th).unwrap()
        });
    }
}

#[test]
fn error_paths_agree_across_the_matrix() {
    use micrograph_core::CoreError;
    use micrograph_datagen::UpdateEvent;

    /// Classifies a result by error kind — error-path parity is about the
    /// *typed* error surface, not message strings.
    fn kind<T>(r: &Result<T, CoreError>) -> &'static str {
        match r {
            Ok(_) => "ok",
            Err(CoreError::NotFound(_)) => "not_found",
            Err(CoreError::Unavailable(_)) => "unavailable",
            Err(CoreError::Timeout(_)) => "timeout",
            Err(_) => "engine_error",
        }
    }

    let m = matrix(23, 60);
    let es = m.refs();

    // Missing entities surface as typed NotFound — identically on the
    // monoliths and every sharded composition.
    let k = agree(&es, "poster_of missing tid", |e| kind(&e.poster_of(9_999_999)));
    assert_eq!(k, "not_found");
    let k = agree(&es, "bad follower", |e| {
        kind(&e.apply_event(&UpdateEvent::NewFollow { follower: 9_999_990, followee: 1 }))
    });
    assert_eq!(k, "not_found");
    let k = agree(&es, "bad followee", |e| {
        kind(&e.apply_event(&UpdateEvent::NewFollow { follower: 1, followee: 9_999_991 }))
    });
    assert_eq!(k, "not_found");
    let k = agree(&es, "bad poster", |e| {
        kind(&e.apply_event(&UpdateEvent::NewTweet {
            tid: 8_000_001,
            uid: 9_999_992,
            text: "t".into(),
            mentions: vec![],
            tags: vec![],
        }))
    });
    assert_eq!(k, "not_found");
    let k = agree(&es, "bad mention", |e| {
        kind(&e.apply_event(&UpdateEvent::NewTweet {
            tid: 8_000_002,
            uid: 1,
            text: "t".into(),
            mentions: vec![2, 9_999_993],
            tags: vec![],
        }))
    });
    assert_eq!(k, "not_found");
    let k = agree(&es, "bad hashtag", |e| {
        kind(&e.apply_event(&UpdateEvent::NewTweet {
            tid: 8_000_003,
            uid: 1,
            text: "t".into(),
            mentions: vec![2],
            tags: vec!["no-such-tag".into()],
        }))
    });
    assert_eq!(k, "not_found");

    // Failed events must leave NO trace — pins the bitgraph adapter's
    // validate-before-mutate path (a half-created tweet would make
    // poster_of succeed on one engine only).
    for tid in [8_000_001i64, 8_000_002, 8_000_003] {
        let k = agree(&es, &format!("failed tweet {tid} absent"), |e| kind(&e.poster_of(tid)));
        assert_eq!(k, "not_found");
    }
    agree(&es, "post-error Q1", |e| e.users_with_followers_over(0).unwrap());
    for uid in [1i64, 2] {
        agree(&es, &format!("post-error Q2.1 uid {uid}"), |e| e.followees(uid).unwrap());
        agree(&es, &format!("post-error Q3.1 uid {uid}"), |e| {
            e.co_mentioned_users(uid, 10).unwrap()
        });
    }
}

// ---- engine-specific alternate implementations --------------------------
//
// These compare alternate *implementations inside one engine* against the
// trait answer, so they necessarily name the concrete types.

#[test]
fn q4_phrasings_agree_with_canonical() {
    use micrograph_core::adapters::RecommendationPhrasing;
    let (a, b, _g) = engines(15, 120);
    let es = pair(&a, &b);
    for uid in 1..=25 {
        let canonical =
            agree(&es, &format!("Q4.1 uid {uid}"), |e| e.recommend_followees(uid, 10).unwrap());
        let varlength = a
            .recommend_phrasing(RecommendationPhrasing::VarLength, uid, 10)
            .unwrap();
        assert_eq!(canonical, varlength, "phrasing (a) uid {uid}");
        let api = a.recommend_followees_via_api(uid, 10).unwrap();
        assert_eq!(canonical, api, "core-API variant uid {uid}");
    }
}

#[test]
fn api_recommendation_matches_language_at_the_highest_degree_user() {
    // The core-API Q4.1 probes "already followed" once per second-hop row;
    // it must agree with the language at the highest out-degree too.
    let (seed, users) = (23, 300);
    let (a, _b, _g) = engines(seed, users);
    let mut out_degree = std::collections::HashMap::new();
    for (f, _) in generate(&base_config(seed, users)).follows {
        *out_degree.entry(f as i64).or_insert(0u64) += 1;
    }
    let (&top, &degree) = out_degree.iter().max_by_key(|&(u, d)| (*d, -*u)).unwrap();
    assert!(degree >= 20, "vacuous: top out-degree {degree}");
    for uid in [top, 1, 2, 77, 150] {
        for n in [10, 1_000] {
            assert_eq!(
                a.recommend_followees(uid, n).unwrap(),
                a.recommend_followees_via_api(uid, n).unwrap(),
                "uid {uid} n {n}"
            );
        }
    }
}

#[test]
fn api_variant_matches_language() {
    let (a, _b, _g) = engines(19, 100);
    for uid in 1..=20 {
        assert_eq!(
            a.followees(uid).unwrap(),
            a.followees_via_api(uid).unwrap(),
            "uid {uid}"
        );
    }
}

#[test]
fn bitgraph_traversal_variants_match_navigation() {
    let (_a, b, _g) = engines(40, 100);
    for uid in 1..=25 {
        assert_eq!(
            b.followees(uid).unwrap(),
            b.followees_via_traversal(uid).unwrap(),
            "Q2.1 traversal vs navigation, uid {uid}"
        );
        assert_eq!(
            b.two_step_reach_nav(uid).unwrap(),
            b.two_step_reach_traversal(uid).unwrap(),
            "2-step reach, uid {uid}"
        );
    }
}
