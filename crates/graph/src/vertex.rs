//! Vertex records.

use crate::attr::Attrs;
use crate::ids::{TypeId, VertexId};
use serde::{Deserialize, Serialize};

/// A vertex stored inside a [`crate::DynamicGraph`].
///
/// Vertices are created implicitly when an edge event references an external
/// key no live vertex has. A vertex keeps its key, its type, its attribute
/// map and running degree counters (maintained by the graph as edges are
/// inserted and expired). When its last retained edge expires the vertex is
/// evicted and its slot, after a quarantine, holds another vertex: an id
/// names the same vertex only while that vertex keeps a retained edge.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Vertex {
    /// Identifier of the vertex's slot.
    pub id: VertexId,
    /// The external key (an IP address, an article URI, ...).
    pub key: String,
    /// Interned vertex type.
    pub vtype: TypeId,
    /// Optional attributes.
    pub attrs: Attrs,
    /// Number of live (non-expired) outgoing edges.
    pub out_degree: u32,
    /// Number of live (non-expired) incoming edges.
    pub in_degree: u32,
}

impl Vertex {
    /// Total live degree (in + out).
    pub fn degree(&self) -> u32 {
        self.in_degree + self.out_degree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_sums_both_directions() {
        let v = Vertex {
            id: VertexId(0),
            key: "a".into(),
            vtype: TypeId(0),
            attrs: Attrs::new(),
            out_degree: 3,
            in_degree: 4,
        };
        assert_eq!(v.degree(), 7);
    }
}
