//! Lightweight point-in-time counters describing a [`crate::DynamicGraph`].

use crate::ids::Timestamp;
use serde::{Deserialize, Serialize};

/// A snapshot of basic graph counters, cheap to produce at any time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphStats {
    /// Vertices created over the graph's lifetime (a key whose vertex was
    /// evicted counts again when it returns).
    pub vertices: u64,
    /// Vertices alive now: each has a retained edge (or was created without
    /// one by `ensure_vertex`).
    pub live_vertices: u64,
    /// Vertex slots, live and parked for reuse: the length of every
    /// vertex-indexed table, and a bound on the key index.
    pub vertex_slots: u64,
    /// Edges currently retained in the window.
    pub live_edges: u64,
    /// Edges ingested over the graph's lifetime.
    pub ingested_edges: u64,
    /// Edges expired out of the retention window.
    pub expired_edges: u64,
    /// Number of distinct vertex types.
    pub vertex_types: u64,
    /// Number of distinct edge types.
    pub edge_types: u64,
    /// High-water mark of stream time.
    pub now: Timestamp,
}

impl GraphStats {
    /// Live edges as a fraction of ingested edges (1.0 when nothing expired).
    pub fn live_fraction(&self) -> f64 {
        if self.ingested_edges == 0 {
            1.0
        } else {
            self.live_edges as f64 / self.ingested_edges as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_fraction_handles_empty_graph() {
        let s = GraphStats {
            vertices: 0,
            live_vertices: 0,
            vertex_slots: 0,
            live_edges: 0,
            ingested_edges: 0,
            expired_edges: 0,
            vertex_types: 0,
            edge_types: 0,
            now: Timestamp(0),
        };
        assert_eq!(s.live_fraction(), 1.0);
    }

    #[test]
    fn live_fraction_reflects_expiry() {
        let s = GraphStats {
            vertices: 10,
            live_vertices: 10,
            vertex_slots: 10,
            live_edges: 25,
            ingested_edges: 100,
            expired_edges: 75,
            vertex_types: 2,
            edge_types: 3,
            now: Timestamp(0),
        };
        assert!((s.live_fraction() - 0.25).abs() < 1e-12);
    }
}
