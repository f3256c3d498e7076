//! The unified ingest surface.
//!
//! Historically the engine grew four entry points — `process`,
//! `process_with_sink`, `process_batch`, `process_batch_with_sink` — that
//! differed only in how events arrived and where matches went. The [`Ingest`]
//! trait collapses the *arrival* axis: a single event, a slice, an array or an
//! arbitrary iterator (via [`EventBatch`]) all drive the same batched
//! bookkeeping path inside [`crate::ContinuousQueryEngine::ingest`] /
//! [`crate::ContinuousQueryEngine::ingest_with`], which cover the *delivery*
//! axis (collected vector vs. caller-supplied sink; per-query subscriptions
//! are fanned out either way). How the events arrive changes nothing but the
//! per-call overheads: a batch emits exactly what the same events fed one at
//! a time do, and the join stores reclaim what they hide the same way
//! either way (when a filing finds its side full; nothing sweeps on a
//! schedule).

use streamworks_graph::EdgeEvent;

/// A source of edge events the engine can absorb in one call.
///
/// Implemented for `&EdgeEvent`, for `&[EdgeEvent]`, `&Vec<EdgeEvent>` and
/// `&[EdgeEvent; N]`, and for any iterator of `&EdgeEvent` wrapped in
/// [`EventBatch`].
pub trait Ingest {
    /// Feeds every event to `f`, in arrival order.
    fn drive(self, f: &mut dyn FnMut(&EdgeEvent));
}

impl Ingest for &EdgeEvent {
    fn drive(self, f: &mut dyn FnMut(&EdgeEvent)) {
        f(self);
    }
}

impl Ingest for &[EdgeEvent] {
    fn drive(self, f: &mut dyn FnMut(&EdgeEvent)) {
        for ev in self {
            f(ev);
        }
    }
}

impl<const N: usize> Ingest for &[EdgeEvent; N] {
    fn drive(self, f: &mut dyn FnMut(&EdgeEvent)) {
        self.as_slice().drive(f);
    }
}

impl Ingest for &Vec<EdgeEvent> {
    fn drive(self, f: &mut dyn FnMut(&EdgeEvent)) {
        self.as_slice().drive(f);
    }
}

/// Adapter treating any iterator of `&EdgeEvent` as a batch, e.g.
/// `engine.ingest(EventBatch(events.iter().filter(..))).unwrap()`.
#[derive(Debug, Clone)]
pub struct EventBatch<I>(pub I);

impl<'a, I: IntoIterator<Item = &'a EdgeEvent>> Ingest for EventBatch<I> {
    fn drive(self, f: &mut dyn FnMut(&EdgeEvent)) {
        for ev in self.0 {
            f(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamworks_graph::Timestamp;

    fn ev(t: i64) -> EdgeEvent {
        EdgeEvent::new("a", "A", "b", "B", "rel", Timestamp::from_secs(t))
    }

    fn drain(batch: impl Ingest) -> Vec<i64> {
        let mut seen = Vec::new();
        batch.drive(&mut |e| seen.push(e.timestamp.as_micros() / 1_000_000));
        seen
    }

    #[test]
    fn a_single_event_is_driven_once() {
        let e = ev(1);
        assert_eq!(drain(&e), vec![1]);
    }

    #[test]
    fn slices_vectors_arrays_and_iterators_are_batches() {
        let events = vec![ev(1), ev(2), ev(3)];
        assert_eq!(drain(&events), vec![1, 2, 3]);
        assert_eq!(drain(&events[..2]), vec![1, 2]);
        assert_eq!(drain(&[ev(7), ev(8)]), vec![7, 8]);
        assert_eq!(drain(EventBatch(events.iter().rev())), vec![3, 2, 1]);
    }
}
