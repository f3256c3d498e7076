//! Identifier newtypes used throughout StreamWorks.
//!
//! All identifiers are small, `Copy`, densely allocated integers so that they
//! can be used directly as indices into `Vec`-backed stores and as cheap hash
//! keys. Wrapping them in newtypes prevents mixing up, say, a vertex id with
//! an edge id at compile time.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a vertex in a [`crate::DynamicGraph`].
///
/// A vertex id is the index of the vertex's slot, allocated densely from
/// zero. A vertex whose last retained edge expires is evicted and its slot
/// is reused after a quarantine (see [`crate::DynamicGraph`]), so an id names
/// one vertex only while that vertex keeps a retained edge or its slot stays
/// parked.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub struct VertexId(pub u32);

/// Identifier of an edge in a [`crate::DynamicGraph`].
///
/// Edge ids are allocated densely in arrival order. Because the data graph is
/// a stream, the edge id also acts as an arrival sequence number: `e1.0 < e2.0`
/// implies edge `e1` arrived no later than `e2`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub struct EdgeId(pub u64);

/// Identifier of an interned vertex- or edge-type label.
///
/// Type ids are produced by the [`crate::Interner`]; equal labels always map
/// to equal ids within one graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TypeId(pub u32);

/// A point in stream time, expressed in integer microseconds.
///
/// The paper defines the time interval `τ(g)` of a subgraph `g` as the span
/// between its earliest and latest edge timestamp; windows (`tW`) and spans
/// are represented as [`Duration`] values in the same unit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub struct Timestamp(pub i64);

/// A length of stream time in integer microseconds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub struct Duration(pub i64);

impl VertexId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl TypeId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl Timestamp {
    /// Constructs a timestamp from whole seconds of stream time.
    #[inline]
    pub fn from_secs(secs: i64) -> Self {
        Timestamp(secs * 1_000_000)
    }

    /// Constructs a timestamp from whole milliseconds of stream time.
    #[inline]
    pub fn from_millis(millis: i64) -> Self {
        Timestamp(millis * 1_000)
    }

    /// Constructs a timestamp from microseconds of stream time.
    #[inline]
    pub fn from_micros(micros: i64) -> Self {
        Timestamp(micros)
    }

    /// Raw microsecond value.
    #[inline]
    pub fn as_micros(self) -> i64 {
        self.0
    }

    /// The duration elapsed since `earlier`. Negative if `earlier` is in the future.
    #[inline]
    pub fn since(self, earlier: Timestamp) -> Duration {
        Duration(self.0 - earlier.0)
    }

    /// This timestamp shifted forward by `d`.
    #[inline]
    pub fn plus(self, d: Duration) -> Timestamp {
        Timestamp(self.0 + d.0)
    }

    /// This timestamp shifted backward by `d`, saturating at `i64::MIN`.
    #[inline]
    pub fn minus(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_sub(d.0))
    }
}

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Constructs a duration from whole seconds.
    #[inline]
    pub fn from_secs(secs: i64) -> Self {
        Duration(secs * 1_000_000)
    }

    /// Constructs a duration from whole milliseconds.
    #[inline]
    pub fn from_millis(millis: i64) -> Self {
        Duration(millis * 1_000)
    }

    /// Constructs a duration from microseconds.
    #[inline]
    pub fn from_micros(micros: i64) -> Self {
        Duration(micros)
    }

    /// Constructs a duration from whole minutes.
    #[inline]
    pub fn from_mins(mins: i64) -> Self {
        Duration(mins * 60 * 1_000_000)
    }

    /// Constructs a duration from whole hours.
    #[inline]
    pub fn from_hours(hours: i64) -> Self {
        Duration(hours * 3600 * 1_000_000)
    }

    /// Raw microsecond value.
    #[inline]
    pub fn as_micros(self) -> i64 {
        self.0
    }

    /// Number of whole seconds in this duration.
    #[inline]
    pub fn as_secs(self) -> i64 {
        self.0 / 1_000_000
    }

    /// True if this duration is zero or negative.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 <= 0
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Debug for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts({}us)", self.0)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dur({}us)", self.0)
    }
}

impl std::ops::Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Duration) -> Timestamp {
        self.plus(rhs)
    }
}

impl std::ops::Sub<Timestamp> for Timestamp {
    type Output = Duration;
    fn sub(self, rhs: Timestamp) -> Duration {
        self.since(rhs)
    }
}

impl std::ops::Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl std::ops::Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl std::ops::Mul<i64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: i64) -> Duration {
        Duration(self.0 * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic_roundtrips() {
        let t = Timestamp::from_secs(10);
        let d = Duration::from_secs(3);
        assert_eq!(t + d, Timestamp::from_secs(13));
        assert_eq!((t + d) - t, d);
        assert_eq!(t.minus(d), Timestamp::from_secs(7));
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_secs(1), Duration::from_millis(1000));
        assert_eq!(Duration::from_millis(1), Duration::from_micros(1000));
        assert_eq!(Duration::from_mins(2), Duration::from_secs(120));
        assert_eq!(Duration::from_hours(1), Duration::from_mins(60));
    }

    #[test]
    fn duration_emptiness() {
        assert!(Duration::ZERO.is_empty());
        assert!(Duration::from_micros(-5).is_empty());
        assert!(!Duration::from_micros(5).is_empty());
    }

    #[test]
    fn ids_order_by_value() {
        assert!(VertexId(1) < VertexId(2));
        assert!(EdgeId(10) > EdgeId(9));
        assert_eq!(TypeId(3).index(), 3);
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(VertexId(7).to_string(), "v7");
        assert_eq!(EdgeId(9).to_string(), "e9");
        assert_eq!(format!("{:?}", TypeId(2)), "t2");
    }

    #[test]
    fn timestamp_since_can_be_negative() {
        let a = Timestamp::from_secs(5);
        let b = Timestamp::from_secs(8);
        assert!(a.since(b).is_empty());
        assert_eq!(b.since(a), Duration::from_secs(3));
    }
}
