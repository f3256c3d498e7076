//! Structural canonicalization of search primitives, for multi-query sharing.
//!
//! StreamWorks is a *registry* system: many standing queries watch one
//! stream, and registries built from shared templates (the Fig. 5 labelled
//! query family, per-tenant instantiations of one detection pattern) contain
//! many *structurally identical* search primitives that differ only in how
//! their query vertices are named. "Query Optimization for Dynamic Graphs"
//! (Choudhury et al., 2014) decomposes queries into primitives precisely so
//! such common substructures can be detected and evaluated **once**.
//!
//! [`CanonicalPrimitive`] is the detection half of that idea: a canonical
//! form of one decomposed [`Primitive`](crate::Primitive) — its typed,
//! directed edges plus every vertex/edge predicate, re-labelled into a
//! canonical vertex order that is invariant under query-vertex renaming. Two
//! primitives are isomorphic (one local search can serve both) **iff** their
//! canonical forms are equal; [`CanonicalPrimitive::fingerprint`] is a hash
//! of the form for cheap indexing, and [`CanonicalPrimitive::matches`] is the
//! explicit equality check behind the hash, so a fingerprint collision can
//! never merge non-isomorphic primitives.
//!
//! Canonicalization is exact: vertices are first partitioned into classes by
//! a renaming-invariant signature (type, predicates, incident-edge profile),
//! then the lexicographically minimal edge relabelling over all within-class
//! permutations is selected. Primitives are tiny (typically 1–3 edges), so
//! the enumeration is a registration-time micro-cost; a pathological
//! primitive whose class structure would require more than
//! [`MAX_CANONICAL_ASSIGNMENTS`] permutations is rejected (`build` returns
//! `None`) and simply does not participate in sharing.

use crate::query_graph::{QueryEdgeId, QueryGraph, QueryVertexId};
use std::hash::{Hash, Hasher};
use streamworks_graph::hash::FxHasher;

/// Upper bound on the vertex relabellings tried while canonicalizing one
/// primitive (the product of the factorials of its vertex-class sizes).
/// `7! = 5040` covers every primitive with up to seven mutually
/// indistinguishable vertices — far beyond the 1–3-edge primitives real
/// decompositions produce.
pub const MAX_CANONICAL_ASSIGNMENTS: u64 = 5_040;

/// One canonical edge: endpoints in canonical vertex ids, the (optional)
/// edge-type label, and the edge's predicate tokens in sorted order.
type CanonEdge = (u32, u32, Option<String>, Vec<String>);

/// Canonical label of one vertex position: the (optional) vertex-type label
/// plus the vertex's predicate tokens in sorted order.
type CanonVertex = (Option<String>, Vec<String>);

/// The canonical form of one search primitive (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalPrimitive {
    /// Vertex labels indexed by canonical vertex id.
    vertices: Vec<CanonVertex>,
    /// Canonical edges in lexicographic order.
    edges: Vec<CanonEdge>,
    /// Hash of `vertices` + `edges`.
    fingerprint: u64,
    /// The original query vertex occupying each canonical vertex id.
    vertex_order: Vec<QueryVertexId>,
    /// The original query edge realising each canonical edge position.
    edge_order: Vec<QueryEdgeId>,
}

/// Deterministic token for a predicate ([`Predicate::canonical_token`], a
/// hand-written stable rendering — *not* derived `Debug`, which a future
/// custom impl could silently change and thereby weaken fingerprints).
/// Predicates are compared as *sets* — conjunction order is irrelevant — so
/// callers sort the tokens.
fn predicate_tokens(preds: &[crate::predicate::Predicate]) -> Vec<String> {
    let mut tokens: Vec<String> = preds.iter().map(|p| p.canonical_token()).collect();
    tokens.sort_unstable();
    tokens
}

/// Edge-predicate tokens, optionally *lifted*: with `lift` set, an equality
/// comparison renders as `lifted_eq(key)` — the constant is abstracted to a
/// slot, so two edges that differ only in the compared literal produce equal
/// token lists. The number of lifted tokens still encodes the constant
/// *arity*: an edge with two `eq` predicates can never merge with an edge
/// carrying one.
fn edge_predicate_tokens(preds: &[crate::predicate::Predicate], lift: bool) -> Vec<String> {
    use crate::predicate::{CompareOp, Predicate};
    let mut tokens: Vec<String> = preds
        .iter()
        .map(|p| match p {
            Predicate::Compare {
                key,
                op: CompareOp::Eq,
                ..
            } if lift => format!("lifted_eq({}#{key})", key.len()),
            _ => p.canonical_token(),
        })
        .collect();
    tokens.sort_unstable();
    tokens
}

impl CanonicalPrimitive {
    /// Canonicalizes the primitive formed by `edges` within `query`.
    ///
    /// Returns `None` for an empty edge set or when exact canonicalization
    /// would exceed [`MAX_CANONICAL_ASSIGNMENTS`] relabellings — such a
    /// primitive is excluded from sharing rather than risking an unsound
    /// canonical form.
    pub fn build(query: &QueryGraph, edges: &[QueryEdgeId]) -> Option<CanonicalPrimitive> {
        CanonicalPrimitive::build_with(query, edges, false)
    }

    /// [`Self::build`] with edge `eq` constants optionally abstracted to
    /// slots (`lift`, see [`LiftedPrimitive`]): the canonical form is then
    /// invariant under changing the compared literals, not just under vertex
    /// renaming.
    fn build_with(
        query: &QueryGraph,
        edges: &[QueryEdgeId],
        lift: bool,
    ) -> Option<CanonicalPrimitive> {
        if edges.is_empty() {
            return None;
        }
        let vertices = query.vertices_of_edges(edges);
        let local_of = |v: QueryVertexId| -> u32 {
            vertices
                .iter()
                .position(|&x| x == v)
                .expect("endpoint of a primitive edge") as u32
        };

        // Renaming-invariant signature per vertex: its own label plus the
        // sorted profile of incident primitive edges (direction + type +
        // predicates). Vertices with different signatures can never map to
        // each other under an isomorphism, so permutations are only tried
        // within signature classes.
        let labels: Vec<CanonVertex> = vertices
            .iter()
            .map(|&v| {
                let vtx = query.vertex(v);
                (vtx.vtype.clone(), predicate_tokens(&vtx.predicates))
            })
            .collect();
        let signatures: Vec<(CanonVertex, Vec<String>)> = vertices
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let mut profile: Vec<String> = edges
                    .iter()
                    .map(|&e| query.edge(e))
                    .filter(|qe| qe.src == v || qe.dst == v)
                    .map(|qe| {
                        format!(
                            "{}:{}:{:?}",
                            if qe.src == v { "out" } else { "in" },
                            qe.etype.as_deref().unwrap_or("*"),
                            edge_predicate_tokens(&qe.predicates, lift)
                        )
                    })
                    .collect();
                profile.sort_unstable();
                (labels[i].clone(), profile)
            })
            .collect();

        // Partition local vertex indices into signature classes, ordered by
        // signature so isomorphic primitives agree on the class layout.
        let mut order: Vec<usize> = (0..vertices.len()).collect();
        order.sort_by(|&a, &b| signatures[a].cmp(&signatures[b]));
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for &i in &order {
            match classes.last() {
                Some(class) if signatures[class[0]] == signatures[i] => {
                    classes.last_mut().unwrap().push(i)
                }
                _ => classes.push(vec![i]),
            }
        }

        // Guard the enumeration cost.
        let mut assignments: u64 = 1;
        for class in &classes {
            for k in 1..=class.len() as u64 {
                assignments = assignments.saturating_mul(k);
                if assignments > MAX_CANONICAL_ASSIGNMENTS {
                    return None;
                }
            }
        }

        // Canonical vertex labels are fixed by the class layout (every member
        // of a class shares its label by construction of the signature).
        let canon_vertices: Vec<CanonVertex> = classes
            .iter()
            .flat_map(|class| class.iter().map(|&i| labels[i].clone()))
            .collect();

        // Enumerate within-class permutations; keep the assignment whose
        // sorted edge relabelling is lexicographically minimal.
        let mut best: Option<(Vec<CanonEdge>, Vec<usize>, Vec<usize>)> = None;
        let mut class_perms: Vec<Vec<usize>> = classes.clone();
        enumerate_assignments(&mut class_perms, 0, &mut |assignment| {
            // `assignment[p]` = local vertex index placed at canonical id p.
            let mut canon_of = vec![0u32; vertices.len()];
            for (pos, &local) in assignment.iter().enumerate() {
                canon_of[local] = pos as u32;
            }
            let mut relabelled: Vec<(CanonEdge, usize)> = edges
                .iter()
                .enumerate()
                .map(|(ei, &e)| {
                    let qe = query.edge(e);
                    (
                        (
                            canon_of[local_of(qe.src) as usize],
                            canon_of[local_of(qe.dst) as usize],
                            qe.etype.clone(),
                            edge_predicate_tokens(&qe.predicates, lift),
                        ),
                        ei,
                    )
                })
                .collect();
            relabelled.sort();
            let (canon_edges, edge_idx): (Vec<CanonEdge>, Vec<usize>) =
                relabelled.into_iter().unzip();
            let better = match &best {
                None => true,
                Some((current, _, _)) => canon_edges < *current,
            };
            if better {
                best = Some((canon_edges, edge_idx, assignment.to_vec()));
            }
        });
        let (canon_edges, edge_idx, assignment) =
            best.expect("at least one assignment is enumerated");

        let vertex_order: Vec<QueryVertexId> =
            assignment.iter().map(|&local| vertices[local]).collect();
        let edge_order: Vec<QueryEdgeId> = edge_idx.iter().map(|&ei| edges[ei]).collect();

        let mut hasher = FxHasher::default();
        canon_vertices.hash(&mut hasher);
        canon_edges.hash(&mut hasher);
        Some(CanonicalPrimitive {
            vertices: canon_vertices,
            edges: canon_edges,
            fingerprint: hasher.finish(),
            vertex_order,
            edge_order,
        })
    }

    /// The structural fingerprint: equal for isomorphic primitives, and —
    /// modulo hash collisions, which [`Self::matches`] exists to rule out —
    /// different for non-isomorphic ones.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The explicit isomorphism check behind the hash: two primitives are
    /// isomorphic iff their canonical forms are equal. Index implementations
    /// **must** call this before merging two primitives that share a
    /// fingerprint; a hash collision between non-isomorphic primitives fails
    /// here.
    pub fn matches(&self, other: &CanonicalPrimitive) -> bool {
        self.vertices == other.vertices && self.edges == other.edges
    }

    /// Number of vertices in the primitive.
    pub fn vertex_count(&self) -> usize {
        self.vertex_order.len()
    }

    /// Number of edges in the primitive.
    pub fn edge_count(&self) -> usize {
        self.edge_order.len()
    }

    /// The original query vertex occupying each canonical vertex id: an
    /// embedding of the canonical pattern binds canonical vertex `i` exactly
    /// where the original query binds `vertex_order()[i]`.
    pub fn vertex_order(&self) -> &[QueryVertexId] {
        &self.vertex_order
    }

    /// The original query edge realising each canonical edge position (the
    /// canonical pattern's edge `i` corresponds to query edge
    /// `edge_order()[i]`).
    pub fn edge_order(&self) -> &[QueryEdgeId] {
        &self.edge_order
    }

    /// Materialises the canonical pattern as a standalone [`QueryGraph`]
    /// (vertices `p0..pk` in canonical order, edges in canonical order,
    /// window copied from `query`): the pattern a shared local search runs
    /// against, producing embeddings in canonical vertex/edge space.
    ///
    /// `query` must be the query this canonical form was built from (types
    /// and predicates are cloned through [`Self::vertex_order`] /
    /// [`Self::edge_order`]).
    pub fn pattern(&self, query: &QueryGraph) -> QueryGraph {
        let mut pattern = QueryGraph::new("shared-primitive", query.window());
        for (i, &qv) in self.vertex_order.iter().enumerate() {
            let v = query.vertex(qv);
            pattern
                .add_vertex(format!("p{i}"), v.vtype.clone(), v.predicates.clone())
                .expect("canonical vertex names are unique");
        }
        for &qe in &self.edge_order {
            let e = query.edge(qe);
            let src = self.canonical_vertex(e.src);
            let dst = self.canonical_vertex(e.dst);
            pattern.add_edge(
                QueryVertexId(src as usize),
                QueryVertexId(dst as usize),
                e.etype.clone(),
                e.predicates.clone(),
            );
        }
        pattern
    }

    /// The canonical id of an original query vertex of this primitive.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of the primitive.
    pub fn canonical_vertex(&self, v: QueryVertexId) -> u32 {
        self.vertex_order
            .iter()
            .position(|&x| x == v)
            .expect("vertex belongs to the primitive") as u32
    }

    /// Overrides the fingerprint. **Test hook only**: lets collision-handling
    /// tests force two non-isomorphic primitives onto one hash bucket; the
    /// canonical form (and therefore [`Self::matches`]) is untouched.
    #[doc(hidden)]
    pub fn force_fingerprint_for_tests(&mut self, fingerprint: u64) {
        self.fingerprint = fingerprint;
    }
}

/// A canonical form with edge `eq` constants abstracted to *slots*:
/// predicate-lifted sharing.
///
/// Registries built from one labelled template (`label = "politics"`,
/// `label = "sports"`, ...) contain primitives and subtrees that are
/// isomorphic *except for the compared literal*. Lifting canonicalizes them
/// with every edge `Predicate::Compare { op: Eq }` rendered as a
/// constant-free `lifted_eq(key)` token, so all constant-variants intern to
/// **one** shared entry; the search then runs once against the lifted
/// pattern ([`Self::search_pattern`], the `eq` predicates removed), and each
/// embedding is dispatched to exactly the tenants whose registered constants
/// ([`Self::constants`]) equal the values the data edges actually bound at
/// the slot positions ([`Self::slots`]) — an O(1) hash per embedding instead
/// of one local search per distinct constant.
///
/// Constant *arity* stays part of the form (each lifted predicate
/// contributes one token), and the exact isomorphism check behind the
/// fingerprint is inherited from [`CanonicalPrimitive`]: same shape with a
/// different number of `eq` predicates can never merge. Vertex predicates
/// and non-`eq` edge predicates are never lifted.
#[derive(Debug, Clone)]
pub struct LiftedPrimitive {
    /// Canonical form over lifted edge-predicate tokens.
    canon: CanonicalPrimitive,
    /// Constant slots in canonical order: (canonical edge position, key).
    slots: Vec<(u32, String)>,
    /// This query's constant tokens ([`crate::predicate::eq_constant_token`])
    /// in slot order.
    constants: Vec<String>,
}

impl LiftedPrimitive {
    /// Canonicalizes the primitive formed by `edges` within `query`, lifting
    /// edge `eq` constants when `lift` is set (with `lift` off this is a
    /// plain [`CanonicalPrimitive::build`] wrapped with an empty slot table —
    /// the exact-constant fallback the engine uses when lifted sharing is
    /// disabled). Returns `None` exactly when [`CanonicalPrimitive::build`]
    /// would.
    pub fn build(query: &QueryGraph, edges: &[QueryEdgeId], lift: bool) -> Option<LiftedPrimitive> {
        use crate::predicate::{eq_constant_token, CompareOp, Predicate};
        let canon = CanonicalPrimitive::build_with(query, edges, lift)?;
        let mut slots = Vec::new();
        let mut constants = Vec::new();
        if lift {
            for (i, &qe) in canon.edge_order().iter().enumerate() {
                let mut lifted: Vec<(&str, String)> = query
                    .edge(qe)
                    .predicates
                    .iter()
                    .filter_map(|p| match p {
                        Predicate::Compare {
                            key,
                            op: CompareOp::Eq,
                            value,
                        } => Some((key.as_str(), eq_constant_token(value))),
                        _ => None,
                    })
                    .collect();
                // Deterministic within one edge: by key, ties by constant.
                lifted.sort_unstable();
                for (key, token) in lifted {
                    slots.push((i as u32, key.to_string()));
                    constants.push(token);
                }
            }
        }
        Some(LiftedPrimitive {
            canon,
            slots,
            constants,
        })
    }

    /// The underlying canonical form (fingerprint, isomorphism check, vertex
    /// and edge permutations).
    pub fn canon(&self) -> &CanonicalPrimitive {
        &self.canon
    }

    /// True when at least one constant was lifted (the entry needs constant
    /// dispatch).
    pub fn is_lifted(&self) -> bool {
        !self.slots.is_empty()
    }

    /// The constant slots: (canonical edge position, attribute key), in
    /// deterministic canonical order.
    pub fn slots(&self) -> &[(u32, String)] {
        &self.slots
    }

    /// This query's registered constants, aligned with [`Self::slots`].
    pub fn constants(&self) -> &[String] {
        &self.constants
    }

    /// Lifted-form equality: inherited from the canonical form. Equal lifted
    /// forms always agree on the slot table (it is derived from the lifted
    /// tokens), so two equal forms differ at most in [`Self::constants`].
    pub fn matches(&self, other: &LiftedPrimitive) -> bool {
        debug_assert!(
            !self.canon.matches(&other.canon) || self.slots == other.slots,
            "equal lifted forms must agree on slots"
        );
        self.canon.matches(&other.canon)
    }

    /// Overrides the fingerprint of the underlying canonical form. **Test
    /// hook only**, see [`CanonicalPrimitive::force_fingerprint_for_tests`].
    #[doc(hidden)]
    pub fn force_fingerprint_for_tests(&mut self, fingerprint: u64) {
        self.canon.force_fingerprint_for_tests(fingerprint);
    }

    /// The pattern the shared search runs against: the canonical pattern with
    /// the lifted `eq` predicates removed (an embedding may bind any
    /// constant; dispatch decides who receives it). With nothing lifted this
    /// is exactly [`CanonicalPrimitive::pattern`].
    pub fn search_pattern(&self, query: &QueryGraph) -> QueryGraph {
        use crate::predicate::{CompareOp, Predicate};
        let mut pattern = self.canon.pattern(query);
        if self.is_lifted() {
            pattern.retain_edge_predicates(|p| {
                !matches!(
                    p,
                    Predicate::Compare {
                        op: CompareOp::Eq,
                        ..
                    }
                )
            });
        }
        pattern
    }
}

/// Recursively enumerates every within-class permutation, invoking `visit`
/// with the concatenated assignment (canonical position → local vertex
/// index). `classes[k]` is permuted in place for positions `k..`.
fn enumerate_assignments(
    classes: &mut [Vec<usize>],
    depth: usize,
    visit: &mut impl FnMut(&[usize]),
) {
    if depth == classes.len() {
        let assignment: Vec<usize> = classes.iter().flat_map(|c| c.iter().copied()).collect();
        visit(&assignment);
        return;
    }
    let n = classes[depth].len();
    permute(classes, depth, 0, n, visit);
}

/// Heap-style permutation of `classes[depth][i..n]` by swapping.
fn permute(
    classes: &mut [Vec<usize>],
    depth: usize,
    i: usize,
    n: usize,
    visit: &mut impl FnMut(&[usize]),
) {
    if i + 1 >= n {
        enumerate_assignments(classes, depth + 1, visit);
        return;
    }
    for j in i..n {
        classes[depth].swap(i, j);
        permute(classes, depth, i + 1, n, visit);
        classes[depth].swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryGraphBuilder;
    use crate::predicate::{CompareOp, Predicate};
    use streamworks_graph::Duration;

    fn ids(edges: &[usize]) -> Vec<QueryEdgeId> {
        edges.iter().map(|&e| QueryEdgeId(e)).collect()
    }

    /// Two-article wedge, the canonical sharing case.
    fn pair_query(a1: &str, a2: &str, k: &str) -> QueryGraph {
        QueryGraphBuilder::new("pair")
            .window(Duration::from_hours(1))
            .vertex(a1, "Article")
            .vertex(a2, "Article")
            .vertex(k, "Keyword")
            .edge(a1, "mentions", k)
            .edge(a2, "mentions", k)
            .build()
            .unwrap()
    }

    #[test]
    fn renamed_primitives_share_a_canonical_form() {
        let q1 = pair_query("a1", "a2", "k");
        let q2 = pair_query("xx", "yy", "zz");
        let c1 = CanonicalPrimitive::build(&q1, &ids(&[0, 1])).unwrap();
        let c2 = CanonicalPrimitive::build(&q2, &ids(&[0, 1])).unwrap();
        assert_eq!(c1.fingerprint(), c2.fingerprint());
        assert!(c1.matches(&c2));
        assert_eq!(c1.vertex_count(), 3);
        assert_eq!(c1.edge_count(), 2);
    }

    #[test]
    fn isomorphic_leaves_of_one_query_share() {
        // The two single-edge leaves of the pair query are the same
        // primitive: (Article)-[mentions]->(Keyword).
        let q = pair_query("a1", "a2", "k");
        let c1 = CanonicalPrimitive::build(&q, &ids(&[0])).unwrap();
        let c2 = CanonicalPrimitive::build(&q, &ids(&[1])).unwrap();
        assert_eq!(c1.fingerprint(), c2.fingerprint());
        assert!(c1.matches(&c2));
        // Their vertex orders differ (a1 vs a2 at the article position).
        assert_ne!(c1.vertex_order(), c2.vertex_order());
    }

    #[test]
    fn edge_direction_distinguishes_primitives() {
        let forward = QueryGraphBuilder::new("f")
            .vertex("a", "IP")
            .vertex("b", "IP")
            .vertex("c", "IP")
            .edge("a", "flow", "b")
            .edge("b", "flow", "c")
            .build()
            .unwrap();
        // Same typed-edge multiset, but the middle vertex now has two
        // out-edges instead of one in and one out: a classic near-identical
        // pair a weak (multiset) fingerprint would merge.
        let fanout = QueryGraphBuilder::new("g")
            .vertex("a", "IP")
            .vertex("b", "IP")
            .vertex("c", "IP")
            .edge("b", "flow", "a")
            .edge("b", "flow", "c")
            .build()
            .unwrap();
        let cf = CanonicalPrimitive::build(&forward, &ids(&[0, 1])).unwrap();
        let cg = CanonicalPrimitive::build(&fanout, &ids(&[0, 1])).unwrap();
        assert!(!cf.matches(&cg));
        assert_ne!(cf.fingerprint(), cg.fingerprint());
    }

    #[test]
    fn predicates_distinguish_primitives_and_order_does_not() {
        let with = |preds: Vec<Predicate>| {
            let mut q = QueryGraph::new("p", Duration::from_secs(60));
            let a = q.add_vertex("a", Some("Article".into()), vec![]).unwrap();
            let k = q.add_vertex("k", Some("Keyword".into()), vec![]).unwrap();
            q.add_edge(a, k, Some("mentions".into()), preds);
            q
        };
        let p1 = Predicate::eq("label", "politics");
        let p2 = Predicate::eq("weight", 3i64);
        let plain = with(vec![]);
        let labelled = with(vec![p1.clone()]);
        let both_ab = with(vec![p1.clone(), p2.clone()]);
        let both_ba = with(vec![p2, p1]);
        let c_plain = CanonicalPrimitive::build(&plain, &ids(&[0])).unwrap();
        let c_lab = CanonicalPrimitive::build(&labelled, &ids(&[0])).unwrap();
        let c_ab = CanonicalPrimitive::build(&both_ab, &ids(&[0])).unwrap();
        let c_ba = CanonicalPrimitive::build(&both_ba, &ids(&[0])).unwrap();
        assert!(!c_plain.matches(&c_lab));
        assert_ne!(c_plain.fingerprint(), c_lab.fingerprint());
        // Conjunction order is irrelevant.
        assert!(c_ab.matches(&c_ba));
        assert_eq!(c_ab.fingerprint(), c_ba.fingerprint());
    }

    #[test]
    fn forced_fingerprint_collisions_are_caught_by_matches() {
        // The adversarial case the index must survive: two non-isomorphic
        // primitives forced onto one hash value. `matches` (the equality
        // check behind the hash) still tells them apart.
        let path = QueryGraphBuilder::new("p")
            .vertex("a", "IP")
            .vertex("b", "IP")
            .vertex("c", "IP")
            .edge("a", "flow", "b")
            .edge("b", "flow", "c")
            .build()
            .unwrap();
        let fan = QueryGraphBuilder::new("f")
            .vertex("a", "IP")
            .vertex("b", "IP")
            .vertex("c", "IP")
            .edge("a", "flow", "b")
            .edge("a", "flow", "c")
            .build()
            .unwrap();
        let cp = CanonicalPrimitive::build(&path, &ids(&[0, 1])).unwrap();
        let mut cf = CanonicalPrimitive::build(&fan, &ids(&[0, 1])).unwrap();
        cf.force_fingerprint_for_tests(cp.fingerprint());
        assert_eq!(cp.fingerprint(), cf.fingerprint());
        assert!(!cp.matches(&cf), "collision must not imply isomorphism");
    }

    #[test]
    fn pattern_rebuilds_the_primitive_in_canonical_space() {
        let q = pair_query("a1", "a2", "k");
        let c = CanonicalPrimitive::build(&q, &ids(&[0, 1])).unwrap();
        let pattern = c.pattern(&q);
        assert_eq!(pattern.vertex_count(), 3);
        assert_eq!(pattern.edge_count(), 2);
        assert_eq!(pattern.window(), q.window());
        // The pattern is isomorphic to the primitive it came from.
        let all: Vec<QueryEdgeId> = pattern.edge_ids().collect();
        let c2 = CanonicalPrimitive::build(&pattern, &all).unwrap();
        assert!(c.matches(&c2));
        // Pattern edge i corresponds to query edge edge_order()[i], and its
        // endpoints map through vertex_order().
        for (i, &qe) in c.edge_order().iter().enumerate() {
            let pe = pattern.edge(QueryEdgeId(i));
            let oe = q.edge(qe);
            assert_eq!(c.vertex_order()[pe.src.0], oe.src);
            assert_eq!(c.vertex_order()[pe.dst.0], oe.dst);
            assert_eq!(pe.etype, oe.etype);
        }
    }

    #[test]
    fn oversized_symmetric_primitive_is_rejected() {
        // A star with 8 indistinguishable leaves would need 8! > 5040
        // relabellings: excluded from sharing instead of canonicalized.
        let mut b = QueryGraphBuilder::new("star").window(Duration::from_secs(1));
        for i in 0..8 {
            b = b.edge("hub", "rel", &format!("leaf{i}"));
        }
        let q = b.build().unwrap();
        let all: Vec<QueryEdgeId> = q.edge_ids().collect();
        assert!(CanonicalPrimitive::build(&q, &all).is_none());
        // A 5-leaf star (5! = 120) is fine.
        let mut b = QueryGraphBuilder::new("star5").window(Duration::from_secs(1));
        for i in 0..5 {
            b = b.edge("hub", "rel", &format!("leaf{i}"));
        }
        let q5 = b.build().unwrap();
        let all5: Vec<QueryEdgeId> = q5.edge_ids().collect();
        assert!(CanonicalPrimitive::build(&q5, &all5).is_some());
    }

    #[test]
    fn empty_primitive_is_rejected() {
        let q = pair_query("a1", "a2", "k");
        assert!(CanonicalPrimitive::build(&q, &[]).is_none());
    }

    /// A symmetric two-wedge subtree (two articles sharing a keyword *and* a
    /// location) has a nontrivial automorphism: swapping the articles maps
    /// the edge set onto itself. Canonicalization must still be stable under
    /// any renaming / edge reordering of the same shape.
    fn double_wedge(a1: &str, a2: &str, swap_edges: bool) -> QueryGraph {
        let mut b = QueryGraphBuilder::new("dw")
            .window(Duration::from_hours(1))
            .vertex(a1, "Article")
            .vertex(a2, "Article")
            .vertex("k", "Keyword")
            .vertex("l", "Location");
        b = if swap_edges {
            b.edge(a2, "located", "l")
                .edge(a1, "located", "l")
                .edge(a2, "mentions", "k")
                .edge(a1, "mentions", "k")
        } else {
            b.edge(a1, "mentions", "k")
                .edge(a2, "mentions", "k")
                .edge(a1, "located", "l")
                .edge(a2, "located", "l")
        };
        b.build().unwrap()
    }

    #[test]
    fn symmetric_subtree_canonicalizes_stably_under_renaming() {
        let q1 = double_wedge("a1", "a2", false);
        let q2 = double_wedge("yy", "xx", true);
        let c1 = CanonicalPrimitive::build(&q1, &ids(&[0, 1, 2, 3])).unwrap();
        let c2 = CanonicalPrimitive::build(&q2, &ids(&[0, 1, 2, 3])).unwrap();
        assert_eq!(c1.fingerprint(), c2.fingerprint());
        assert!(c1.matches(&c2));
        // The permutations are valid bijections even with the automorphism:
        // pattern edge i's endpoints map through vertex_order consistently.
        for (c, q) in [(&c1, &q1), (&c2, &q2)] {
            let pattern = c.pattern(q);
            for (i, &qe) in c.edge_order().iter().enumerate() {
                let pe = pattern.edge(QueryEdgeId(i));
                let oe = q.edge(qe);
                assert_eq!(c.vertex_order()[pe.src.0], oe.src);
                assert_eq!(c.vertex_order()[pe.dst.0], oe.dst);
            }
        }
    }

    #[test]
    fn forced_subtree_fingerprint_collision_is_caught_by_matches() {
        // Subtree-level analogue of the primitive collision case: a 3-edge
        // path and a 3-edge out-star (both one internal node's subtree in a
        // left-deep plan) forced onto one fingerprint must still be told
        // apart by the exact isomorphism check.
        let path = QueryGraphBuilder::new("p3")
            .window(Duration::from_secs(60))
            .edge("a", "flow", "b")
            .edge("b", "flow", "c")
            .edge("c", "flow", "d")
            .build()
            .unwrap();
        let star = QueryGraphBuilder::new("s3")
            .window(Duration::from_secs(60))
            .edge("h", "flow", "x")
            .edge("h", "flow", "y")
            .edge("h", "flow", "z")
            .build()
            .unwrap();
        let cp = CanonicalPrimitive::build(&path, &ids(&[0, 1, 2])).unwrap();
        let mut cs = CanonicalPrimitive::build(&star, &ids(&[0, 1, 2])).unwrap();
        cs.force_fingerprint_for_tests(cp.fingerprint());
        assert_eq!(cp.fingerprint(), cs.fingerprint());
        assert!(!cp.matches(&cs), "collision must not imply isomorphism");
    }

    /// One labelled mention edge, the lifting unit.
    fn labelled(preds: Vec<Predicate>) -> QueryGraph {
        let mut q = QueryGraph::new("t", Duration::from_secs(60));
        let a = q.add_vertex("a", Some("Article".into()), vec![]).unwrap();
        let k = q.add_vertex("k", Some("Keyword".into()), vec![]).unwrap();
        q.add_edge(a, k, Some("mentions".into()), preds);
        q
    }

    #[test]
    fn lifted_constant_variants_merge_and_keep_their_constants() {
        let politics = labelled(vec![Predicate::eq("label", "politics")]);
        let sports = labelled(vec![Predicate::eq("label", "sports")]);
        let lp = LiftedPrimitive::build(&politics, &ids(&[0]), true).unwrap();
        let ls = LiftedPrimitive::build(&sports, &ids(&[0]), true).unwrap();
        assert!(lp.is_lifted() && ls.is_lifted());
        assert!(lp.matches(&ls), "constant-variants share one lifted form");
        assert_eq!(lp.slots(), ls.slots());
        assert_ne!(lp.constants(), ls.constants());
        // Without lifting the same pair stays distinct.
        let up = LiftedPrimitive::build(&politics, &ids(&[0]), false).unwrap();
        let us = LiftedPrimitive::build(&sports, &ids(&[0]), false).unwrap();
        assert!(!up.is_lifted());
        assert!(!up.matches(&us));
    }

    #[test]
    fn lifted_arity_and_key_stay_part_of_the_form() {
        // Same shape, different eq arity: one lifted slot vs two.
        let one = labelled(vec![Predicate::eq("label", "politics")]);
        let two = labelled(vec![
            Predicate::eq("label", "politics"),
            Predicate::eq("weight", 3i64),
        ]);
        let l1 = LiftedPrimitive::build(&one, &ids(&[0]), true).unwrap();
        let l2 = LiftedPrimitive::build(&two, &ids(&[0]), true).unwrap();
        assert!(!l1.matches(&l2), "eq arity must not merge");
        // Same arity, different attribute key: also distinct.
        let other_key = labelled(vec![Predicate::eq("topic", "politics")]);
        let lk = LiftedPrimitive::build(&other_key, &ids(&[0]), true).unwrap();
        assert!(!l1.matches(&lk), "slot key must not merge");
        // Non-eq comparisons are never lifted: a Gt stays a concrete
        // predicate, so differing Gt constants keep the forms distinct.
        let gt2 = labelled(vec![Predicate::cmp("weight", CompareOp::Gt, 2i64)]);
        let gt5 = labelled(vec![Predicate::cmp("weight", CompareOp::Gt, 5i64)]);
        let g2 = LiftedPrimitive::build(&gt2, &ids(&[0]), true).unwrap();
        let g5 = LiftedPrimitive::build(&gt5, &ids(&[0]), true).unwrap();
        assert!(!g2.is_lifted());
        assert!(!g2.matches(&g5));
    }

    #[test]
    fn integral_float_constants_collide_into_the_integer_token() {
        // `Predicate::matches` accepts 3.0 where 3 was registered; the
        // lifted constant token must agree, or dispatch would misroute.
        let as_int = labelled(vec![Predicate::eq("weight", 3i64)]);
        let as_float = labelled(vec![Predicate::eq("weight", 3.0f64)]);
        let li = LiftedPrimitive::build(&as_int, &ids(&[0]), true).unwrap();
        let lf = LiftedPrimitive::build(&as_float, &ids(&[0]), true).unwrap();
        assert!(li.matches(&lf));
        assert_eq!(li.constants(), lf.constants());
    }

    #[test]
    fn symmetric_lifted_subtree_orders_slots_deterministically() {
        // Both wedge edges carry a lifted constant; the automorphism must
        // not make slot order (and thus dispatch keys) depend on variable
        // names or insertion order.
        let make = |a1: &str, a2: &str| {
            QueryGraphBuilder::new("lw")
                .window(Duration::from_hours(1))
                .vertex(a1, "Article")
                .vertex(a2, "Article")
                .vertex("k", "Keyword")
                .edge_with(a1, "mentions", "k", vec![Predicate::eq("label", "x")])
                .edge_with(a2, "mentions", "k", vec![Predicate::eq("label", "x")])
                .build()
                .unwrap()
        };
        let l1 = LiftedPrimitive::build(&make("a1", "a2"), &ids(&[0, 1]), true).unwrap();
        let l2 = LiftedPrimitive::build(&make("zz", "aa"), &ids(&[0, 1]), true).unwrap();
        assert!(l1.matches(&l2));
        assert_eq!(l1.slots(), l2.slots());
        assert_eq!(l1.constants(), l2.constants());
        assert_eq!(l1.slots().len(), 2);
        // The search pattern drops the lifted predicates entirely.
        let pat = l1.search_pattern(&make("a1", "a2"));
        assert!(pat.edges().all(|e| e.predicates.is_empty()));
    }

    #[test]
    fn vertex_types_distinguish_primitives() {
        let typed = pair_query("a1", "a2", "k");
        let other = QueryGraphBuilder::new("pair")
            .window(Duration::from_hours(1))
            .vertex("a1", "Article")
            .vertex("a2", "Article")
            .vertex("k", "Person")
            .edge("a1", "mentions", "k")
            .edge("a2", "mentions", "k")
            .build()
            .unwrap();
        let c1 = CanonicalPrimitive::build(&typed, &ids(&[0, 1])).unwrap();
        let c2 = CanonicalPrimitive::build(&other, &ids(&[0, 1])).unwrap();
        assert!(!c1.matches(&c2));
    }
}
