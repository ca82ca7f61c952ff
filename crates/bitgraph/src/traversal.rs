//! Native traversals: BFS/DFS contexts and `SinglePairShortestPathBFS`.
//!
//! The paper used "the native function SinglePairShortestPathBFS ... where
//! maximum length of the shortest path was set to 3 hops" for Q6.1. The
//! engine's primitive is a plain **unidirectional** BFS with a hop bound —
//! by design the less sophisticated of the two engines' path primitives
//! (Figure 4(g)/(h): "Neo4j seems to perform shortest path queries more
//! efficiently"). It never searches from `to`, never meets frontiers and
//! never switches to a bottom-up step; what it does do is run
//! allocation-free per expanded node (a dense visited bitset, reused
//! frontiers, neighbors streamed from the adjacency bitmaps) and return
//! only the hop count, which is all Q6.1 asks for.

use std::collections::VecDeque;

use crate::graph::{EdgesDirection, Graph, Oid};
use crate::objects::Objects;
use crate::Result;

/// Breadth-first traversal from a start node over one edge type, up to a
/// depth bound. Yields `(node, depth)` in BFS order (start at depth 0).
pub struct TraversalBfs<'g> {
    graph: &'g Graph,
    etype: u32,
    dir: EdgesDirection,
    max_depth: u32,
    queue: VecDeque<(Oid, u32)>,
    seen: Objects,
}

impl<'g> TraversalBfs<'g> {
    /// Creates a BFS traversal context.
    pub fn new(graph: &'g Graph, start: Oid, etype: u32, dir: EdgesDirection, max_depth: u32) -> Self {
        let mut seen = Objects::new();
        seen.add(start);
        TraversalBfs {
            graph,
            etype,
            dir,
            max_depth,
            queue: VecDeque::from([(start, 0)]),
            seen,
        }
    }
}

impl Iterator for TraversalBfs<'_> {
    type Item = Result<(Oid, u32)>;

    fn next(&mut self) -> Option<Self::Item> {
        let (node, depth) = self.queue.pop_front()?;
        if depth < self.max_depth {
            match self.graph.neighbors(node, self.etype, self.dir) {
                Ok(nb) => {
                    for n in nb.iter() {
                        if self.seen.add(n) {
                            self.queue.push_back((n, depth + 1));
                        }
                    }
                }
                Err(e) => return Some(Err(e)),
            }
        }
        Some(Ok((node, depth)))
    }
}

/// Depth-first traversal (pre-order), same parameters as [`TraversalBfs`].
pub struct TraversalDfs<'g> {
    graph: &'g Graph,
    etype: u32,
    dir: EdgesDirection,
    max_depth: u32,
    stack: Vec<(Oid, u32)>,
    seen: Objects,
}

impl<'g> TraversalDfs<'g> {
    /// Creates a DFS traversal context.
    pub fn new(graph: &'g Graph, start: Oid, etype: u32, dir: EdgesDirection, max_depth: u32) -> Self {
        let mut seen = Objects::new();
        seen.add(start);
        TraversalDfs { graph, etype, dir, max_depth, stack: vec![(start, 0)], seen }
    }
}

impl Iterator for TraversalDfs<'_> {
    type Item = Result<(Oid, u32)>;

    fn next(&mut self) -> Option<Self::Item> {
        let (node, depth) = self.stack.pop()?;
        if depth < self.max_depth {
            match self.graph.neighbors(node, self.etype, self.dir) {
                Ok(nb) => {
                    for n in nb.iter() {
                        if self.seen.add(n) {
                            self.stack.push((n, depth + 1));
                        }
                    }
                }
                Err(e) => return Some(Err(e)),
            }
        }
        Some(Ok((node, depth)))
    }
}

/// `SinglePairShortestPathBFS`: the hop count of a shortest `from → to`
/// path over `etype` edges in `dir`, or `None` when there is none within
/// `max_hops` (`Some(0)` when `from == to`).
///
/// A level-synchronous unidirectional BFS. The visited set is a dense
/// bitset over the graph's oid range, the two frontiers are reused across
/// levels, and neighbors are streamed from the adjacency bitmaps by
/// [`Graph::for_each_neighbor`], so expanding a node allocates nothing.
/// `to` is recognised when it is discovered, so the last level is expanded
/// only until it turns up. Each expanded node counts as one `neighbors`
/// call.
pub fn single_pair_shortest_path_len(
    graph: &Graph,
    from: Oid,
    to: Oid,
    etype: u32,
    dir: EdgesDirection,
    max_hops: u32,
) -> Result<Option<u32>> {
    if from == to {
        return Ok(Some(0));
    }
    let n = graph.object_count();
    if from >= n {
        return Ok(None);
    }
    let mut visited = vec![0u64; n.div_ceil(64) as usize];
    visited[(from >> 6) as usize] |= 1 << (from & 63);
    let mut frontier = vec![from];
    let mut next = Vec::new();
    for depth in 1..=max_hops {
        let last = depth == max_hops;
        let mut found = false;
        for &u in &frontier {
            graph.for_each_neighbor(u, etype, dir, |v| {
                if v == to {
                    found = true;
                    return false;
                }
                let (word, bit) = (&mut visited[(v >> 6) as usize], 1u64 << (v & 63));
                if !last && *word & bit == 0 {
                    *word |= bit;
                    next.push(v);
                }
                true
            })?;
            if found {
                return Ok(Some(depth));
            }
        }
        if next.is_empty() {
            return Ok(None); // also the exit after the last level
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    Ok(None) // max_hops == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphConfig;

    /// 0 -> 1 -> 2 -> 3 -> 4, plus 0 -> 2 and 4 -> 0.
    fn chain() -> (Graph, Vec<Oid>, u32) {
        let mut g = Graph::new(GraphConfig::default());
        let user = g.new_node_type("user").unwrap();
        let follows = g.new_edge_type("follows").unwrap();
        let n: Vec<Oid> = (0..5).map(|_| g.add_node(user).unwrap()).collect();
        for w in n.windows(2) {
            g.add_edge(follows, w[0], w[1]).unwrap();
        }
        g.add_edge(follows, n[0], n[2]).unwrap();
        g.add_edge(follows, n[4], n[0]).unwrap();
        (g, n, follows)
    }

    #[test]
    fn bfs_depth_order() {
        let (g, n, f) = chain();
        let visits: Vec<(Oid, u32)> = TraversalBfs::new(&g, n[0], f, EdgesDirection::Outgoing, 2)
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(visits[0], (n[0], 0));
        let depth1: Vec<Oid> =
            visits.iter().filter(|v| v.1 == 1).map(|v| v.0).collect();
        assert_eq!(depth1.len(), 2);
        assert!(depth1.contains(&n[1]) && depth1.contains(&n[2]));
        let depth2: Vec<Oid> =
            visits.iter().filter(|v| v.1 == 2).map(|v| v.0).collect();
        assert_eq!(depth2, vec![n[3]], "n2 already seen at depth 1");
    }

    #[test]
    fn dfs_visits_same_set_as_bfs() {
        let (g, n, f) = chain();
        let mut bfs: Vec<Oid> = TraversalBfs::new(&g, n[0], f, EdgesDirection::Outgoing, 4)
            .map(|r| r.unwrap().0)
            .collect();
        let mut dfs: Vec<Oid> = TraversalDfs::new(&g, n[0], f, EdgesDirection::Outgoing, 4)
            .map(|r| r.unwrap().0)
            .collect();
        bfs.sort_unstable();
        dfs.sort_unstable();
        assert_eq!(bfs, dfs);
    }

    #[test]
    fn shortest_path_takes_shortcut() {
        let (g, n, f) = chain();
        let len = single_pair_shortest_path_len(&g, n[0], n[3], f, EdgesDirection::Outgoing, 5);
        assert_eq!(len.unwrap(), Some(2), "n0 -> n2 -> n3");
    }

    #[test]
    fn shortest_path_hop_bound() {
        let (g, n, f) = chain();
        let len = |max| {
            single_pair_shortest_path_len(&g, n[0], n[4], f, EdgesDirection::Outgoing, max).unwrap()
        };
        assert_eq!(len(2), None);
        assert_eq!(len(3), Some(3));
    }

    #[test]
    fn shortest_path_identity_and_unreachable() {
        let (mut g, n, f) = chain();
        assert_eq!(
            single_pair_shortest_path_len(&g, n[1], n[1], f, EdgesDirection::Outgoing, 0).unwrap(),
            Some(0)
        );
        let user = g.find_type("user").unwrap();
        let lonely = g.add_node(user).unwrap();
        assert_eq!(
            single_pair_shortest_path_len(&g, n[0], lonely, f, EdgesDirection::Any, 10).unwrap(),
            None
        );
        assert_eq!(
            single_pair_shortest_path_len(&g, lonely, n[0], f, EdgesDirection::Any, 10).unwrap(),
            None
        );
    }

    /// Hop distances from `from` by brute-force BFS over an adjacency list
    /// built from the generated edge list (never from a `Graph`).
    fn reference_distances(
        nodes: usize,
        edges: &[(usize, usize)],
        from: usize,
        dir: EdgesDirection,
    ) -> Vec<Option<u32>> {
        let mut adj = vec![Vec::new(); nodes];
        for &(s, d) in edges {
            if dir != EdgesDirection::Ingoing {
                adj[s].push(d);
            }
            if dir != EdgesDirection::Outgoing {
                adj[d].push(s);
            }
        }
        let mut dist = vec![None; nodes];
        dist[from] = Some(0);
        let mut queue = VecDeque::from([from]);
        while let Some(u) = queue.pop_front() {
            let du = dist[u].unwrap();
            for &v in &adj[u] {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    fn direction(i: u8) -> EdgesDirection {
        [EdgesDirection::Outgoing, EdgesDirection::Ingoing, EdgesDirection::Any][i as usize]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The length equals the reference distance, and the work is
        /// bounded by the reference: a `None` answer expands exactly the
        /// nodes within `max_hops - 1` hops, a `Some(d)` answer at most
        /// those within `d - 1` hops.
        #[test]
        fn shortest_path_len_matches_reference(
            nodes in 1usize..14,
            edges in proptest::prelude::prop::collection::vec((0usize..14, 0usize..14), 0..40),
            ends in (0usize..14, 0usize..14),
            same in 0u8..4,
            dir in 0u8..3,
            max_hops in 0u32..=5,
            materialize in proptest::prelude::any::<bool>(),
        ) {
            // Self-loops, parallel edges and isolated nodes all arise from
            // reducing random endpoints modulo `nodes`; `same == 0` forces
            // `from == to`.
            let edges: Vec<(usize, usize)> =
                edges.into_iter().map(|(s, d)| (s % nodes, d % nodes)).collect();
            let from = ends.0 % nodes;
            let to = if same == 0 { from } else { ends.1 % nodes };
            let dir = direction(dir);

            let mut g = Graph::new(GraphConfig { materialize_neighbors: materialize, ..Default::default() });
            let user = g.new_node_type("user").unwrap();
            let follows = g.new_edge_type("follows").unwrap();
            let oids: Vec<Oid> = (0..nodes).map(|_| g.add_node(user).unwrap()).collect();
            for &(s, d) in &edges {
                g.add_edge(follows, oids[s], oids[d]).unwrap();
            }

            let dist = reference_distances(nodes, &edges, from, dir);
            let expect = dist[to].filter(|&d| d <= max_hops);
            let within = |hops: u32| dist.iter().filter(|d| d.is_some_and(|d| d <= hops)).count() as u64;

            let before = g.stats().neighbors_calls;
            let got =
                single_pair_shortest_path_len(&g, oids[from], oids[to], follows, dir, max_hops).unwrap();
            let calls = g.stats().neighbors_calls - before;
            proptest::prop_assert_eq!(got, expect);
            match got {
                None => proptest::prop_assert_eq!(calls, max_hops.checked_sub(1).map_or(0, within)),
                Some(d) => proptest::prop_assert!(calls <= d.checked_sub(1).map_or(0, within)),
            }
        }
    }
}
