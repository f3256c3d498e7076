//! The Subgraph Join Tree (SJ-Tree) shape.
//!
//! Paper §3.2 defines the SJ-Tree as a binary tree whose nodes correspond to
//! subgraphs of the query graph with four properties:
//!
//! 1. the root's subgraph is the whole query graph;
//! 2. an internal node's subgraph is the join (union) of its children's;
//! 3. every node maintains a collection of matching data subgraphs;
//! 4. every internal node maintains a CUT-SUBGRAPH — the intersection of its
//!    children's query subgraphs — which is the join condition.
//!
//! This module defines the *shape* only (which query edges live at which node,
//! parents/children/cuts, leaf join order). The per-node match collections of
//! property 3 are runtime state and live in `streamworks-core`.

use crate::decompose::Primitive;
use crate::error::QueryError;
use crate::query_graph::{QueryEdgeId, QueryGraph, QueryVertexId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Index of a node within an [`SjTreeShape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SjNodeId(pub usize);

/// One node of the SJ-Tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SjNode {
    /// Dense id of the node.
    pub id: SjNodeId,
    /// Query edges covered by this node's subgraph (sorted).
    pub edges: Vec<QueryEdgeId>,
    /// Query vertices touched by `edges` (sorted).
    pub vertices: Vec<QueryVertexId>,
    /// Children (left, right) for internal nodes; `None` for leaves.
    pub children: Option<(SjNodeId, SjNodeId)>,
    /// Parent node; `None` for the root.
    pub parent: Option<SjNodeId>,
    /// For internal nodes: the query vertices shared by both children — the
    /// CUT-SUBGRAPH of paper property 4 (restricted to vertices, which is the
    /// join key; shared edges would be disallowed by edge-disjoint primitives).
    pub cut_vertices: Vec<QueryVertexId>,
}

impl SjNode {
    /// True if the node is a leaf (a search primitive).
    pub fn is_leaf(&self) -> bool {
        self.children.is_none()
    }
}

/// The static shape of an SJ-Tree for one query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SjTreeShape {
    nodes: Vec<SjNode>,
    root: SjNodeId,
    /// Leaves in join order (leftmost = matched first).
    leaves: Vec<SjNodeId>,
}

impl SjTreeShape {
    /// Builds a *left-deep* SJ-Tree from an ordered list of primitives:
    /// the first two primitives join at the lowest internal node, each further
    /// primitive joins the accumulated subtree one level higher. A single
    /// primitive yields a tree with just one (root, leaf) node.
    pub fn left_deep(query: &QueryGraph, primitives: &[Primitive]) -> Result<Self, QueryError> {
        Self::build(query, primitives, false)
    }

    /// Builds a *balanced* SJ-Tree: primitives become leaves of a (nearly)
    /// balanced binary tree, pairing adjacent primitives level by level.
    pub fn balanced(query: &QueryGraph, primitives: &[Primitive]) -> Result<Self, QueryError> {
        Self::build(query, primitives, true)
    }

    fn build(
        query: &QueryGraph,
        primitives: &[Primitive],
        balanced: bool,
    ) -> Result<Self, QueryError> {
        if primitives.is_empty() {
            return Err(QueryError::InvalidDecomposition(
                "cannot build an SJ-Tree from zero primitives".into(),
            ));
        }
        crate::decompose::validate_decomposition(query, primitives)?;

        let mut nodes: Vec<SjNode> = Vec::new();
        let mut leaves = Vec::new();
        let make_leaf = |p: &Primitive, nodes: &mut Vec<SjNode>| -> SjNodeId {
            let id = SjNodeId(nodes.len());
            nodes.push(SjNode {
                id,
                edges: p.edges.clone(),
                vertices: query.vertices_of_edges(&p.edges),
                children: None,
                parent: None,
                cut_vertices: Vec::new(),
            });
            id
        };

        // Create all leaves first, in join order.
        let leaf_ids: Vec<SjNodeId> = primitives
            .iter()
            .map(|p| {
                let id = make_leaf(p, &mut nodes);
                leaves.push(id);
                id
            })
            .collect();

        let join = |nodes: &mut Vec<SjNode>, left: SjNodeId, right: SjNodeId| -> SjNodeId {
            let id = SjNodeId(nodes.len());
            let mut edges: Vec<QueryEdgeId> = nodes[left.0]
                .edges
                .iter()
                .chain(nodes[right.0].edges.iter())
                .copied()
                .collect();
            edges.sort_unstable();
            edges.dedup();
            let vertices = query.vertices_of_edges(&edges);
            let left_set: BTreeSet<_> = nodes[left.0].vertices.iter().copied().collect();
            let cut_vertices: Vec<QueryVertexId> = nodes[right.0]
                .vertices
                .iter()
                .copied()
                .filter(|v| left_set.contains(v))
                .collect();
            nodes.push(SjNode {
                id,
                edges,
                vertices,
                children: Some((left, right)),
                parent: None,
                cut_vertices,
            });
            nodes[left.0].parent = Some(id);
            nodes[right.0].parent = Some(id);
            id
        };

        let root = if balanced {
            // Pair up level by level.
            let mut level = leaf_ids.clone();
            while level.len() > 1 {
                let mut next = Vec::with_capacity(level.len() / 2 + 1);
                let mut i = 0;
                while i + 1 < level.len() {
                    next.push(join(&mut nodes, level[i], level[i + 1]));
                    i += 2;
                }
                if i < level.len() {
                    next.push(level[i]);
                }
                level = next;
            }
            level[0]
        } else {
            // Left-deep chain.
            let mut acc = leaf_ids[0];
            for &leaf in &leaf_ids[1..] {
                acc = join(&mut nodes, acc, leaf);
            }
            acc
        };

        let shape = SjTreeShape {
            nodes,
            root,
            leaves,
        };
        shape.validate(query)?;
        Ok(shape)
    }

    /// The root node id.
    pub fn root(&self) -> SjNodeId {
        self.root
    }

    /// Node lookup.
    pub fn node(&self, id: SjNodeId) -> &SjNode {
        &self.nodes[id.0]
    }

    /// All nodes in creation order (leaves first).
    pub fn nodes(&self) -> impl Iterator<Item = &SjNode> {
        self.nodes.iter()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Leaves in join order.
    pub fn leaves(&self) -> &[SjNodeId] {
        &self.leaves
    }

    /// The query edges of a node's search primitive, as a borrowed slice.
    ///
    /// Matchers iterate this per incoming data edge; exposing the slice keeps
    /// the hot path free of per-event clones of the primitive's edge list.
    #[inline]
    pub fn primitive_edges(&self, id: SjNodeId) -> &[QueryEdgeId] {
        &self.node(id).edges
    }

    /// The sibling of a node (the other child of its parent), if any.
    pub fn sibling(&self, id: SjNodeId) -> Option<SjNodeId> {
        let parent = self.node(id).parent?;
        let (l, r) = self.node(parent).children?;
        Some(if l == id { r } else { l })
    }

    /// The query vertices on which matches at `id` must agree with matches at
    /// its sibling to be joined — i.e. the parent's cut. Empty for the root.
    pub fn join_key(&self, id: SjNodeId) -> &[QueryVertexId] {
        match self.node(id).parent {
            Some(p) => &self.node(p).cut_vertices,
            None => &[],
        }
    }

    /// Height of the tree (1 for a single node).
    pub fn height(&self) -> usize {
        fn depth(shape: &SjTreeShape, id: SjNodeId) -> usize {
            match shape.node(id).children {
                None => 1,
                Some((l, r)) => 1 + depth(shape, l).max(depth(shape, r)),
            }
        }
        depth(self, self.root)
    }

    /// Checks SJ-Tree properties 1, 2 and 4 against the query graph
    /// (property 3 concerns runtime match collections), and that every leaf
    /// is a non-empty, connected primitive.
    pub fn validate(&self, query: &QueryGraph) -> Result<(), QueryError> {
        // Property 1: root covers the whole query graph.
        let root = self.nodes.get(self.root.0).ok_or_else(|| {
            QueryError::InvalidDecomposition(format!("root {:?} is not a node", self.root))
        })?;
        let all_edges: Vec<QueryEdgeId> = query.edge_ids().collect();
        if root.edges != all_edges {
            return Err(QueryError::InvalidDecomposition(
                "root subgraph is not the full query graph".into(),
            ));
        }
        for (index, node) in self.nodes.iter().enumerate() {
            if let Some((l, r)) = node.children {
                // Children are created before the node that joins them, so
                // ids grow towards the root. The matcher's join climb splits
                // its store vector at the parent's id and relies on every
                // child lying below the split.
                if node.id.0 != index || l.0 >= index || r.0 >= index {
                    return Err(QueryError::InvalidDecomposition(format!(
                        "node {:?} at position {index} does not come after its children {l:?} and {r:?}",
                        node.id
                    )));
                }
                // Property 2: node = union of children, children edge-disjoint.
                let left = &self.nodes[l.0];
                let right = &self.nodes[r.0];
                let mut union: Vec<QueryEdgeId> = left
                    .edges
                    .iter()
                    .chain(right.edges.iter())
                    .copied()
                    .collect();
                union.sort_unstable();
                let mut dedup = union.clone();
                dedup.dedup();
                if dedup.len() != union.len() {
                    return Err(QueryError::InvalidDecomposition(format!(
                        "children of node {:?} overlap in edges",
                        node.id
                    )));
                }
                if dedup != node.edges {
                    return Err(QueryError::InvalidDecomposition(format!(
                        "node {:?} is not the join of its children",
                        node.id
                    )));
                }
                // Property 4: cut = intersection of children's vertices.
                let lset: BTreeSet<_> = left.vertices.iter().copied().collect();
                let expected: Vec<QueryVertexId> = right
                    .vertices
                    .iter()
                    .copied()
                    .filter(|v| lset.contains(v))
                    .collect();
                if expected != node.cut_vertices {
                    return Err(QueryError::InvalidDecomposition(format!(
                        "node {:?} cut-subgraph mismatch",
                        node.id
                    )));
                }
                // Parent pointers are consistent.
                if left.parent != Some(node.id) || right.parent != Some(node.id) {
                    return Err(QueryError::InvalidDecomposition(
                        "inconsistent parent pointers".into(),
                    ));
                }
            } else if !self.leaves.contains(&node.id) {
                return Err(QueryError::InvalidDecomposition(format!(
                    "node {:?} has no children but is not registered as a leaf",
                    node.id
                )));
            } else if node.edges.iter().any(|e| e.0 >= query.edge_count())
                || !query.edges_connected(&node.edges)
            {
                // The engine searches every leaf as one primitive.
                return Err(QueryError::InvalidDecomposition(format!(
                    "leaf {:?} is not a connected primitive of the query",
                    node.id
                )));
            }
        }
        Ok(())
    }

    /// Renders the tree as indented ASCII, labelling each node with the query
    /// edges it covers and its cut vertices (used by `plan explain` output and
    /// the query_plans example reproducing Fig. 2).
    pub fn render(&self, query: &QueryGraph) -> String {
        fn rec(
            shape: &SjTreeShape,
            query: &QueryGraph,
            id: SjNodeId,
            depth: usize,
            out: &mut String,
        ) {
            let node = shape.node(id);
            let indent = "  ".repeat(depth);
            let edges: Vec<String> = node.edges.iter().map(|&e| query.describe_edge(e)).collect();
            let cut: Vec<&str> = node
                .cut_vertices
                .iter()
                .map(|&v| query.vertex(v).name.as_str())
                .collect();
            let kind = if node.is_leaf() { "leaf" } else { "join" };
            out.push_str(&format!(
                "{indent}[{kind} n{}] {{{}}}{}\n",
                node.id.0,
                edges.join(", "),
                if cut.is_empty() {
                    String::new()
                } else {
                    format!(" cut on ({})", cut.join(", "))
                }
            ));
            if let Some((l, r)) = node.children {
                rec(shape, query, l, depth + 1, out);
                rec(shape, query, r, depth + 1, out);
            }
        }
        let mut out = String::new();
        rec(self, query, self.root, 0, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryGraphBuilder;
    use crate::cost::CostBasedOrdered;
    use crate::decompose::{DecompositionStrategy, ManualDecomposition};
    use crate::selectivity::SelectivityEstimator;
    use streamworks_graph::Duration;

    fn fig2_query() -> QueryGraph {
        QueryGraphBuilder::new("news_triple")
            .window(Duration::from_hours(6))
            .vertex("a1", "Article")
            .vertex("a2", "Article")
            .vertex("a3", "Article")
            .vertex("k", "Keyword")
            .vertex("l", "Location")
            .edge("a1", "mentions", "k")
            .edge("a2", "mentions", "k")
            .edge("a3", "mentions", "k")
            .edge("a1", "located", "l")
            .edge("a2", "located", "l")
            .edge("a3", "located", "l")
            .build()
            .unwrap()
    }

    fn fig2_primitives() -> Vec<Primitive> {
        // The decomposition shown in Fig. 2: one (article, keyword, location)
        // wedge per article.
        vec![
            Primitive::new(vec![QueryEdgeId(0), QueryEdgeId(3)]),
            Primitive::new(vec![QueryEdgeId(1), QueryEdgeId(4)]),
            Primitive::new(vec![QueryEdgeId(2), QueryEdgeId(5)]),
        ]
    }

    #[test]
    fn left_deep_tree_satisfies_paper_properties() {
        let q = fig2_query();
        let shape = SjTreeShape::left_deep(&q, &fig2_primitives()).unwrap();
        shape.validate(&q).unwrap();
        assert_eq!(shape.leaves().len(), 3);
        assert_eq!(shape.node_count(), 5);
        assert_eq!(shape.height(), 3);
        // Root covers all 6 edges.
        assert_eq!(shape.node(shape.root()).edges.len(), 6);
        // The lowest join's cut is {k, l}: the shared keyword and location.
        let first_join = shape.node(shape.leaves()[1]).parent.unwrap();
        let cut_names: Vec<&str> = shape
            .node(first_join)
            .cut_vertices
            .iter()
            .map(|&v| q.vertex(v).name.as_str())
            .collect();
        assert_eq!(cut_names, vec!["k", "l"]);
    }

    #[test]
    fn balanced_tree_has_lower_height_for_many_primitives() {
        let q = QueryGraphBuilder::new("path")
            .edge("v0", "t", "v1")
            .edge("v1", "t", "v2")
            .edge("v2", "t", "v3")
            .edge("v3", "t", "v4")
            .edge("v4", "t", "v5")
            .edge("v5", "t", "v6")
            .edge("v6", "t", "v7")
            .edge("v7", "t", "v8")
            .build()
            .unwrap();
        let prims: Vec<Primitive> = q.edge_ids().map(|e| Primitive::new(vec![e])).collect();
        let deep = SjTreeShape::left_deep(&q, &prims).unwrap();
        let balanced = SjTreeShape::balanced(&q, &prims).unwrap();
        deep.validate(&q).unwrap();
        balanced.validate(&q).unwrap();
        assert_eq!(deep.height(), 8 + 1 - 1);
        assert!(balanced.height() < deep.height());
        assert_eq!(balanced.node_count(), deep.node_count());
    }

    #[test]
    fn sibling_and_join_key_are_consistent() {
        let q = fig2_query();
        let shape = SjTreeShape::left_deep(&q, &fig2_primitives()).unwrap();
        let l0 = shape.leaves()[0];
        let l1 = shape.leaves()[1];
        assert_eq!(shape.sibling(l0), Some(l1));
        assert_eq!(shape.sibling(l1), Some(l0));
        assert_eq!(shape.join_key(l0), shape.join_key(l1));
        assert!(!shape.join_key(l0).is_empty());
        assert!(shape.join_key(shape.root()).is_empty());
        assert_eq!(shape.sibling(shape.root()), None);
    }

    #[test]
    fn single_primitive_tree_is_root_leaf() {
        let q = QueryGraphBuilder::new("one")
            .edge("a", "t", "b")
            .build()
            .unwrap();
        let prims = vec![Primitive::new(vec![QueryEdgeId(0)])];
        let shape = SjTreeShape::left_deep(&q, &prims).unwrap();
        assert_eq!(shape.node_count(), 1);
        assert_eq!(shape.root(), shape.leaves()[0]);
        assert_eq!(shape.height(), 1);
        shape.validate(&q).unwrap();
    }

    #[test]
    fn strategy_output_builds_valid_trees() {
        let q = fig2_query();
        let est = SelectivityEstimator::without_summary();
        let single_edges = q.edge_ids().map(|e| vec![e]).collect();
        for strategy in [
            Box::new(CostBasedOrdered::default()) as Box<dyn DecompositionStrategy>,
            Box::new(CostBasedOrdered {
                max_primitive_size: 1,
            }),
            Box::new(ManualDecomposition::new(single_edges)),
        ] {
            let prims = strategy.decompose(&q, &est).unwrap();
            let shape = SjTreeShape::left_deep(&q, &prims).unwrap();
            shape.validate(&q).unwrap();
            assert_eq!(
                shape.node(shape.root()).edges.len(),
                q.edge_count(),
                "strategy {}",
                strategy.name()
            );
        }
    }

    #[test]
    fn manual_fig2_decomposition_renders() {
        let q = fig2_query();
        let est = SelectivityEstimator::without_summary();
        let prims = ManualDecomposition::new(vec![
            vec![QueryEdgeId(0), QueryEdgeId(3)],
            vec![QueryEdgeId(1), QueryEdgeId(4)],
            vec![QueryEdgeId(2), QueryEdgeId(5)],
        ])
        .decompose(&q, &est)
        .unwrap();
        let shape = SjTreeShape::left_deep(&q, &prims).unwrap();
        let rendered = shape.render(&q);
        assert!(rendered.contains("leaf"));
        assert!(rendered.contains("join"));
        assert!(rendered.contains("cut on (k, l)"));
        assert!(rendered.contains("(a1:Article)-[mentions]->(k:Keyword)"));
    }

    #[test]
    fn a_parent_that_precedes_its_child_is_rejected() {
        // The constructors cannot produce this; a hand-edited checkpoint can.
        // Swap the two internal nodes of a left-deep three-leaf tree, ids and
        // pointers included, so everything but the creation order still holds.
        let q = fig2_query();
        let good = SjTreeShape::left_deep(&q, &fig2_primitives()).unwrap();
        let (low, high) = (SjNodeId(3), SjNodeId(4));
        let swap = |id: SjNodeId| match id {
            id if id == low => high,
            id if id == high => low,
            id => id,
        };
        let mut bad = good.clone();
        bad.nodes.swap(low.0, high.0);
        for node in &mut bad.nodes {
            node.id = swap(node.id);
            node.parent = node.parent.map(swap);
            node.children = node.children.map(|(l, r)| (swap(l), swap(r)));
        }
        bad.root = swap(bad.root);
        let err = bad.validate(&q).unwrap_err();
        assert!(
            err.to_string().contains("does not come after its children"),
            "{err}"
        );
        good.validate(&q).unwrap();
        // The same shape through JSON (how a checkpoint carries it) is caught
        // the same way.
        let json = serde_json::to_string(&bad).unwrap();
        let parsed: SjTreeShape = serde_json::from_str(&json).unwrap();
        assert!(parsed.validate(&q).is_err());
    }

    #[test]
    fn a_leaf_that_is_not_a_connected_primitive_is_rejected() {
        // A hand-edited checkpoint can trade edges between two sibling
        // leaves, leaving each two disjoint edges, or empty one of them.
        let q = fig2_query();
        let mut bad = SjTreeShape::left_deep(&q, &fig2_primitives()).unwrap();
        let (a, b) = (bad.leaves[0].0, bad.leaves[1].0);
        bad.nodes[a].edges = vec![QueryEdgeId(0), QueryEdgeId(4)];
        bad.nodes[b].edges = vec![QueryEdgeId(1), QueryEdgeId(3)];
        for _ in 0..2 {
            let err = bad.validate(&q).unwrap_err();
            assert!(
                err.to_string().contains("not a connected primitive"),
                "{err}"
            );
            bad.nodes[a].edges.clear();
        }
    }

    #[test]
    fn empty_primitive_list_is_rejected() {
        let q = fig2_query();
        assert!(SjTreeShape::left_deep(&q, &[]).is_err());
    }
}
