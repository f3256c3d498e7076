//! Engine-level errors.

use crate::handle::{QueryHandle, SubscriptionId};
use streamworks_query::QueryError;

/// Errors produced by the service-facing engine API.
#[derive(Debug)]
pub enum EngineError {
    /// The handle's query has been deregistered. (Handles are only meaningful
    /// on the engine that issued them — using one on another engine, e.g. one
    /// restored from a checkpoint, is not detectable and must be avoided; see
    /// [`crate::EngineCheckpoint`].)
    StaleHandle(QueryHandle),
    /// The subscription is unknown or was already cancelled.
    UnknownSubscription(SubscriptionId),
    /// A configuration rejected by [`crate::EngineBuilder::build`].
    InvalidConfig(String),
    /// Query parsing or planning failed.
    Planning(QueryError),
    /// The operation applies only to the other query class — e.g. asking for
    /// the SJ-Tree plan or matcher of a registered regular path query, or
    /// the RPQ pattern of a subgraph query.
    WrongQueryKind {
        /// The handle the operation was attempted on.
        handle: QueryHandle,
        /// The query kind the operation requires (`"subgraph"` or
        /// `"regular path"`).
        expected: &'static str,
    },
    /// A checkpoint file could not be parsed — typically a partially-written
    /// or truncated snapshot.
    CorruptCheckpoint {
        /// Byte offset where parsing stopped, when the JSON scanner got that
        /// far; `None` for shape errors detected after parsing.
        offset: Option<usize>,
        /// Human-readable description of the parse failure.
        detail: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::StaleHandle(h) => {
                write!(f, "stale query handle {h}: the query was deregistered")
            }
            EngineError::UnknownSubscription(s) => {
                write!(f, "unknown or cancelled subscription {s}")
            }
            EngineError::InvalidConfig(msg) => write!(f, "invalid engine configuration: {msg}"),
            EngineError::Planning(e) => write!(f, "query planning failed: {e}"),
            EngineError::WrongQueryKind { handle, expected } => {
                write!(f, "query {handle} is not a {expected} query")
            }
            EngineError::CorruptCheckpoint { offset, detail } => match offset {
                Some(at) => write!(f, "corrupt checkpoint at byte {at}: {detail}"),
                None => write!(f, "corrupt checkpoint: {detail}"),
            },
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Planning(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueryError> for EngineError {
    fn from(e: QueryError) -> Self {
        EngineError::Planning(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::QueryId;

    #[test]
    fn errors_render_their_context() {
        let stale = EngineError::StaleHandle(QueryHandle::new(QueryId(2), 1));
        assert!(stale.to_string().contains("q2@1"));
        let invalid = EngineError::InvalidConfig("retention must be positive".into());
        assert!(invalid.to_string().contains("retention"));
        let sub = EngineError::UnknownSubscription(SubscriptionId {
            query: QueryId(0),
            token: 4,
        });
        assert!(sub.to_string().contains("sub4.q0"));
    }

    #[test]
    fn failure_errors_render_their_context() {
        let corrupt = EngineError::CorruptCheckpoint {
            offset: Some(17),
            detail: "unexpected end of input".into(),
        };
        assert!(corrupt.to_string().contains("byte 17"));
        let shapeless = EngineError::CorruptCheckpoint {
            offset: None,
            detail: "missing field".into(),
        };
        assert!(shapeless.to_string().contains("missing field"));
    }

    #[test]
    fn planning_errors_chain_their_source() {
        use std::error::Error;
        let e: EngineError = QueryError::EmptyQuery.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("planning failed"));
    }
}
