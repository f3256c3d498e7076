//! Digests: an order-dependent one over a workload's input, and an
//! order-independent one over the matches a pass emits.

use crate::rng::mix64;
use streamworks_core::MatchEvent;
use streamworks_graph::EdgeEvent;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    // Field separator, so ("ab", "c") and ("a", "bc") differ.
    (h ^ 0xFF).wrapping_mul(FNV_PRIME)
}

/// FNV-1a of one string, avalanched.
fn hash_str(s: &str) -> u64 {
    mix64(fnv(FNV_OFFSET, s.as_bytes()))
}

/// Order-dependent digest of a generated input (events, then query texts).
#[derive(Debug, Clone)]
pub struct InputDigest(u64);

impl InputDigest {
    pub fn new() -> Self {
        InputDigest(FNV_OFFSET)
    }

    pub fn text(&mut self, s: &str) {
        self.0 = fnv(self.0, s.as_bytes());
    }

    pub fn event(&mut self, ev: &EdgeEvent) {
        for field in [
            &ev.src_key,
            &ev.src_type,
            &ev.dst_key,
            &ev.dst_type,
            &ev.edge_type,
        ] {
            self.text(field);
        }
        self.0 = fnv(self.0, &ev.timestamp.as_micros().to_le_bytes());
        self.text(&format!("{:?}", ev.attrs));
    }

    pub fn finish(&self) -> u64 {
        mix64(self.0)
    }
}

/// What one pass emitted: a count plus an order-independent 64-bit digest of
/// every match's `(query name, bindings, data edge ids)`. Two passes emitted
/// the same multiset of matches iff count and digest agree (up to a 2^-64
/// collision). Emission order is deliberately not part of the contract: the
/// sharded fan-in and the batched path may interleave differently.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fold {
    pub count: u64,
    pub digest: u64,
    /// Matches per query slot (`MatchEvent::query`), for the per-log check of
    /// `fanout_durable`.
    pub per_query: Vec<u64>,
}

impl Fold {
    pub fn add(&mut self, ev: &MatchEvent) {
        let mut h = fnv(FNV_OFFSET, ev.query_name.as_bytes());
        // Bindings are a set: combine them commutatively, so a refactor that
        // reorders them does not move the digest.
        let mut bound = 0u64;
        for b in &ev.bindings {
            bound = bound.wrapping_add(mix64(fnv(
                fnv(FNV_OFFSET, b.variable.as_bytes()),
                b.key.as_bytes(),
            )));
        }
        h = fnv(h, &bound.to_le_bytes());
        // Edge ids are positional (query edge i is realised by edges[i]).
        for e in &ev.edges {
            h = fnv(h, &e.0.to_le_bytes());
        }
        self.count += 1;
        self.digest = self.digest.wrapping_add(mix64(h));
        let slot = ev.query.0;
        if slot >= self.per_query.len() {
            self.per_query.resize(slot + 1, 0);
        }
        self.per_query[slot] += 1;
    }

    pub fn add_all(&mut self, events: &[MatchEvent]) {
        for ev in events {
            self.add(ev);
        }
    }

    /// Emissions missing or spurious against `reference`: the count
    /// difference, or 1 when the counts agree and the digests do not (at
    /// least one match is wrong; the digest cannot say how many).
    pub fn mismatches(&self, reference_count: u64, reference_digest: u64) -> u64 {
        let diff = self.count.abs_diff(reference_count);
        if diff == 0 && self.digest != reference_digest {
            1
        } else {
            diff
        }
    }
}

/// Order-independent digest of text lines (the durable delivery logs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineFold {
    pub lines: u64,
    pub digest: u64,
}

impl LineFold {
    pub fn add(&mut self, line: &str) {
        self.lines += 1;
        self.digest = self.digest.wrapping_add(hash_str(line));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_fold_ignores_order_but_not_content() {
        let mut a = LineFold::default();
        let mut b = LineFold::default();
        for l in ["x", "y", "z"] {
            a.add(l);
        }
        for l in ["z", "x", "y"] {
            b.add(l);
        }
        assert_eq!(a, b);
        let mut c = LineFold::default();
        for l in ["x", "y", "y"] {
            c.add(l);
        }
        assert_ne!(a, c);
        assert_ne!(hash_str("ab"), hash_str("ba"));
    }
}
