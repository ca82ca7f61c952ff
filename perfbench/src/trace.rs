//! Outside-in tracing: a [`MicroblogEngine`] wrapper that forwards every
//! trait method to the engine it wraps and records one [`Span`] per
//! fallible call into a shared [`Recorder`].
//!
//! The wrapper sits at a layer boundary the benchmark controls: around a
//! whole engine (the trait boundary a request crosses) or around each shard
//! handed to `ShardedEngine::new` (one span per scatter leg). Spans stay in
//! memory until the benchmark drains them. Recording can be switched off at
//! run time, so one wrapped engine serves both the traced and the untraced
//! half of an overhead comparison.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use micrograph_common::topn::TopKPartial;
use micrograph_core::engine::{MicroblogEngine, Ranked, WriteMode};
use micrograph_core::fault::FaultStats;
use micrograph_core::shard::ScatterMode;
use micrograph_core::workload::QueryId;
use micrograph_core::{ExecMode, Result};
use micrograph_datagen::UpdateEvent;

/// Every fallible trait method, so a span names the call it timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    UsersWithFollowersOver,
    Followees,
    FolloweeTweets,
    FolloweeHashtags,
    CoMentionedUsers,
    CoOccurringHashtags,
    RecommendFollowees,
    RecommendFollowers,
    CurrentInfluence,
    PotentialInfluence,
    ShortestPathLen,
    TweetsWithHashtag,
    RetweetCount,
    PosterOf,
    HasUser,
    PostedTweetsKernel,
    HashtagsKernel,
    CountFolloweesKernel,
    CountFollowersKernel,
    CoMentionCountsKernel,
    CoTagCountsKernel,
    FollowFrontierKernel,
    CoMentionTopnKernel,
    CoMentionCountsForKernel,
    CoTagTopnKernel,
    CoTagCountsForKernel,
    CountFolloweesTopnKernel,
    CountFolloweesCountsForKernel,
    CountFollowersTopnKernel,
    CountFollowersCountsForKernel,
    InfluenceTopnKernel,
    EnsureUser,
    BumpFollowers,
    ApplyEvent,
    ApplyEventBatch,
    DropCaches,
}

impl Method {
    /// The Table 2 query this method answers, for the eleven query methods.
    pub fn query(self) -> Option<QueryId> {
        Some(match self {
            Method::UsersWithFollowersOver => QueryId::Q1_1,
            Method::Followees => QueryId::Q2_1,
            Method::FolloweeTweets => QueryId::Q2_2,
            Method::FolloweeHashtags => QueryId::Q2_3,
            Method::CoMentionedUsers => QueryId::Q3_1,
            Method::CoOccurringHashtags => QueryId::Q3_2,
            Method::RecommendFollowees => QueryId::Q4_1,
            Method::RecommendFollowers => QueryId::Q4_2,
            Method::CurrentInfluence => QueryId::Q5_1,
            Method::PotentialInfluence => QueryId::Q5_2,
            Method::ShortestPathLen => QueryId::Q6_1,
            _ => return None,
        })
    }

    /// True for the write path (`apply_event*`).
    pub fn is_write(self) -> bool {
        matches!(self, Method::ApplyEvent | Method::ApplyEventBatch)
    }
}

/// One timed call through a [`TracedEngine`].
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The wrapper's layer label (for example `"arbordb"` or `"leg"`).
    pub layer: &'static str,
    /// The method called.
    pub method: Method,
    /// Start, in ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder's epoch.
    pub end_ns: u64,
    /// Result rows returned (list length; 1 or 0 for scalars and options).
    pub rows: u64,
    /// Update events carried by a write call.
    pub events: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Shared in-memory span sink with an on/off switch.
pub struct Recorder {
    epoch: Instant,
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A new, enabled recorder.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            enabled: AtomicBool::new(true),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Switches recording on or off; wrapped calls still run either way.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since the recorder's epoch, on the clock spans use.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Removes and returns every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned by a panic"))
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span sink poisoned by a panic")
            .push(span);
    }
}

/// How many result rows a return value carries.
pub trait Rows {
    /// Row count.
    fn rows(&self) -> u64;
}

impl<T> Rows for Vec<T> {
    fn rows(&self) -> u64 {
        self.len() as u64
    }
}

impl<T> Rows for Option<T> {
    fn rows(&self) -> u64 {
        self.is_some() as u64
    }
}

impl<K> Rows for TopKPartial<K> {
    fn rows(&self) -> u64 {
        self.top.len() as u64
    }
}

impl Rows for u64 {
    fn rows(&self) -> u64 {
        1
    }
}

impl Rows for i64 {
    fn rows(&self) -> u64 {
        1
    }
}

impl Rows for bool {
    fn rows(&self) -> u64 {
        1
    }
}

impl Rows for () {
    fn rows(&self) -> u64 {
        0
    }
}

/// A forwarding engine that records a span around every fallible call.
pub struct TracedEngine {
    inner: Arc<dyn MicroblogEngine>,
    recorder: Arc<Recorder>,
    layer: &'static str,
}

impl TracedEngine {
    /// Wraps `inner`, labelling its spans with `layer`.
    pub fn new(
        inner: Arc<dyn MicroblogEngine>,
        recorder: Arc<Recorder>,
        layer: &'static str,
    ) -> Self {
        TracedEngine {
            inner,
            recorder,
            layer,
        }
    }

    fn span<T: Rows>(
        &self,
        method: Method,
        events: u64,
        call: impl FnOnce(&dyn MicroblogEngine) -> Result<T>,
    ) -> Result<T> {
        if !self.recorder.enabled.load(Ordering::Relaxed) {
            return call(&*self.inner);
        }
        let start_ns = self.recorder.now_ns();
        let out = call(&*self.inner);
        let end_ns = self.recorder.now_ns();
        let rows = out.as_ref().map_or(0, Rows::rows);
        self.recorder.push(Span {
            layer: self.layer,
            method,
            start_ns,
            end_ns,
            rows,
            events,
        });
        out
    }
}

impl MicroblogEngine for TracedEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn users_with_followers_over(&self, threshold: i64) -> Result<Vec<i64>> {
        self.span(Method::UsersWithFollowersOver, 0, |e| {
            e.users_with_followers_over(threshold)
        })
    }

    fn followees(&self, uid: i64) -> Result<Vec<i64>> {
        self.span(Method::Followees, 0, |e| e.followees(uid))
    }

    fn followee_tweets(&self, uid: i64) -> Result<Vec<i64>> {
        self.span(Method::FolloweeTweets, 0, |e| e.followee_tweets(uid))
    }

    fn followee_hashtags(&self, uid: i64) -> Result<Vec<String>> {
        self.span(Method::FolloweeHashtags, 0, |e| e.followee_hashtags(uid))
    }

    fn co_mentioned_users(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        self.span(Method::CoMentionedUsers, 0, |e| {
            e.co_mentioned_users(uid, n)
        })
    }

    fn co_occurring_hashtags(&self, tag: &str, n: usize) -> Result<Vec<Ranked<String>>> {
        self.span(Method::CoOccurringHashtags, 0, |e| {
            e.co_occurring_hashtags(tag, n)
        })
    }

    fn recommend_followees(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        self.span(Method::RecommendFollowees, 0, |e| {
            e.recommend_followees(uid, n)
        })
    }

    fn recommend_followers(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        self.span(Method::RecommendFollowers, 0, |e| {
            e.recommend_followers(uid, n)
        })
    }

    fn current_influence(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        self.span(Method::CurrentInfluence, 0, |e| e.current_influence(uid, n))
    }

    fn potential_influence(&self, uid: i64, n: usize) -> Result<Vec<Ranked<i64>>> {
        self.span(Method::PotentialInfluence, 0, |e| {
            e.potential_influence(uid, n)
        })
    }

    fn shortest_path_len(&self, a: i64, b: i64, max_hops: u32) -> Result<Option<u32>> {
        self.span(Method::ShortestPathLen, 0, |e| {
            e.shortest_path_len(a, b, max_hops)
        })
    }

    fn tweets_with_hashtag(&self, tag: &str) -> Result<Vec<i64>> {
        self.span(Method::TweetsWithHashtag, 0, |e| e.tweets_with_hashtag(tag))
    }

    fn retweet_count(&self, tid: i64) -> Result<u64> {
        self.span(Method::RetweetCount, 0, |e| e.retweet_count(tid))
    }

    fn poster_of(&self, tid: i64) -> Result<i64> {
        self.span(Method::PosterOf, 0, |e| e.poster_of(tid))
    }

    fn has_user(&self, uid: i64) -> Result<bool> {
        self.span(Method::HasUser, 0, |e| e.has_user(uid))
    }

    fn posted_tweets_kernel(&self, uids: &[i64]) -> Result<Vec<i64>> {
        self.span(Method::PostedTweetsKernel, 0, |e| {
            e.posted_tweets_kernel(uids)
        })
    }

    fn hashtags_kernel(&self, uids: &[i64]) -> Result<Vec<String>> {
        self.span(Method::HashtagsKernel, 0, |e| e.hashtags_kernel(uids))
    }

    fn count_followees_kernel(&self, uids: &[i64]) -> Result<Vec<(i64, u64)>> {
        self.span(Method::CountFolloweesKernel, 0, |e| {
            e.count_followees_kernel(uids)
        })
    }

    fn count_followers_kernel(&self, uids: &[i64]) -> Result<Vec<(i64, u64)>> {
        self.span(Method::CountFollowersKernel, 0, |e| {
            e.count_followers_kernel(uids)
        })
    }

    fn co_mention_counts_kernel(&self, uid: i64) -> Result<Vec<(i64, u64)>> {
        self.span(Method::CoMentionCountsKernel, 0, |e| {
            e.co_mention_counts_kernel(uid)
        })
    }

    fn co_tag_counts_kernel(&self, tag: &str) -> Result<Vec<(String, u64)>> {
        self.span(Method::CoTagCountsKernel, 0, |e| {
            e.co_tag_counts_kernel(tag)
        })
    }

    fn follow_frontier_kernel(&self, uids: &[i64]) -> Result<Vec<i64>> {
        self.span(Method::FollowFrontierKernel, 0, |e| {
            e.follow_frontier_kernel(uids)
        })
    }

    fn co_mention_topn_kernel(&self, uid: i64, k: usize) -> Result<TopKPartial<i64>> {
        self.span(Method::CoMentionTopnKernel, 0, |e| {
            e.co_mention_topn_kernel(uid, k)
        })
    }

    fn co_mention_counts_for_kernel(&self, uid: i64, keys: &[i64]) -> Result<Vec<(i64, u64)>> {
        self.span(Method::CoMentionCountsForKernel, 0, |e| {
            e.co_mention_counts_for_kernel(uid, keys)
        })
    }

    fn co_tag_topn_kernel(&self, tag: &str, k: usize) -> Result<TopKPartial<String>> {
        self.span(Method::CoTagTopnKernel, 0, |e| e.co_tag_topn_kernel(tag, k))
    }

    fn co_tag_counts_for_kernel(&self, tag: &str, keys: &[String]) -> Result<Vec<(String, u64)>> {
        self.span(Method::CoTagCountsForKernel, 0, |e| {
            e.co_tag_counts_for_kernel(tag, keys)
        })
    }

    fn count_followees_topn_kernel(
        &self,
        uids: &[i64],
        exclude: &[i64],
        k: usize,
    ) -> Result<TopKPartial<i64>> {
        self.span(Method::CountFolloweesTopnKernel, 0, |e| {
            e.count_followees_topn_kernel(uids, exclude, k)
        })
    }

    fn count_followees_counts_for_kernel(
        &self,
        uids: &[i64],
        keys: &[i64],
    ) -> Result<Vec<(i64, u64)>> {
        self.span(Method::CountFolloweesCountsForKernel, 0, |e| {
            e.count_followees_counts_for_kernel(uids, keys)
        })
    }

    fn count_followers_topn_kernel(
        &self,
        uids: &[i64],
        exclude: &[i64],
        k: usize,
    ) -> Result<TopKPartial<i64>> {
        self.span(Method::CountFollowersTopnKernel, 0, |e| {
            e.count_followers_topn_kernel(uids, exclude, k)
        })
    }

    fn count_followers_counts_for_kernel(
        &self,
        uids: &[i64],
        keys: &[i64],
    ) -> Result<Vec<(i64, u64)>> {
        self.span(Method::CountFollowersCountsForKernel, 0, |e| {
            e.count_followers_counts_for_kernel(uids, keys)
        })
    }

    fn influence_topn_kernel(&self, uid: i64, current: bool, k: usize) -> Result<TopKPartial<i64>> {
        self.span(Method::InfluenceTopnKernel, 0, |e| {
            e.influence_topn_kernel(uid, current, k)
        })
    }

    fn ensure_user(&self, uid: i64) -> Result<()> {
        self.span(Method::EnsureUser, 0, |e| e.ensure_user(uid))
    }

    fn bump_followers(&self, uid: i64, delta: i64) -> Result<()> {
        self.span(Method::BumpFollowers, 0, |e| e.bump_followers(uid, delta))
    }

    fn apply_event(&self, event: &UpdateEvent) -> Result<()> {
        self.span(Method::ApplyEvent, 1, |e| e.apply_event(event))
    }

    fn apply_event_batch(&self, events: &[UpdateEvent]) -> Result<()> {
        self.span(Method::ApplyEventBatch, events.len() as u64, |e| {
            e.apply_event_batch(events)
        })
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }

    fn ops_count(&self) -> u64 {
        self.inner.ops_count()
    }

    fn drop_caches(&self) -> Result<()> {
        self.span(Method::DropCaches, 0, |e| e.drop_caches())
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }

    fn scatter_mode(&self) -> Option<ScatterMode> {
        self.inner.scatter_mode()
    }

    fn set_scatter_mode(&self, mode: ScatterMode) -> bool {
        self.inner.set_scatter_mode(mode)
    }

    fn exec_mode(&self) -> Option<ExecMode> {
        self.inner.exec_mode()
    }

    fn set_exec_mode(&self, mode: ExecMode) -> bool {
        self.inner.set_exec_mode(mode)
    }

    fn batched_kernels(&self) -> Option<bool> {
        self.inner.batched_kernels()
    }

    fn set_batched_kernels(&self, on: bool) -> bool {
        self.inner.set_batched_kernels(on)
    }

    fn write_mode(&self) -> Option<WriteMode> {
        self.inner.write_mode()
    }

    fn set_write_mode(&self, mode: WriteMode) -> bool {
        self.inner.set_write_mode(mode)
    }

    fn replica_count(&self) -> Option<usize> {
        self.inner.replica_count()
    }
}
