//! Tabular event views over [`MatchEvent`]s — the library analogue of the
//! demo's table view (Fig. 6) and the data feed behind its map view (Fig. 5).

use crate::table::Table;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use streamworks_core::{MatchEvent, QueryId};

/// One column of an event table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventColumn {
    /// Stream time (seconds) at which the match completed.
    Time,
    /// The registered query's name.
    Query,
    /// A user-supplied label for the query (see [`EventTableSpec::label`]);
    /// falls back to the query name when no label was registered.
    Label,
    /// Time span `τ(g)` of the match, in seconds.
    SpanSecs,
    /// The external key bound to one query variable.
    Binding(String),
    /// Every binding, rendered as `var=key` pairs.
    AllBindings,
}

impl EventColumn {
    fn header(&self) -> String {
        match self {
            EventColumn::Time => "time(s)".into(),
            EventColumn::Query => "query".into(),
            EventColumn::Label => "label".into(),
            EventColumn::SpanSecs => "span(s)".into(),
            EventColumn::Binding(var) => var.clone(),
            EventColumn::AllBindings => "bindings".into(),
        }
    }
}

/// Specification of an event table: the columns to show and optional labels
/// per registered query (the Fig. 5 queries are labelled "politics",
/// "accident", ... on top of their structural pattern).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EventTableSpec {
    columns: Vec<EventColumn>,
    labels: BTreeMap<usize, String>,
}

impl EventTableSpec {
    /// A spec with the given columns.
    pub fn new<I: IntoIterator<Item = EventColumn>>(columns: I) -> Self {
        EventTableSpec {
            columns: columns.into_iter().collect(),
            labels: BTreeMap::new(),
        }
    }

    /// The default layout: time, label, span and all bindings.
    pub fn standard() -> Self {
        Self::new([
            EventColumn::Time,
            EventColumn::Label,
            EventColumn::SpanSecs,
            EventColumn::AllBindings,
        ])
    }

    /// Registers a human-readable label for a query id.
    pub fn label(mut self, query: QueryId, label: impl Into<String>) -> Self {
        self.labels.insert(query.0, label.into());
        self
    }

    /// The columns in effect.
    pub fn columns(&self) -> &[EventColumn] {
        &self.columns
    }

    fn cell(&self, column: &EventColumn, event: &MatchEvent) -> String {
        match column {
            EventColumn::Time => (event.at.as_micros() / 1_000_000).to_string(),
            EventColumn::Query => event.query_name.clone(),
            EventColumn::Label => self
                .labels
                .get(&event.query.0)
                .cloned()
                .unwrap_or_else(|| event.query_name.clone()),
            EventColumn::SpanSecs => event.span.as_secs().to_string(),
            EventColumn::Binding(var) => event
                .binding(var)
                .map(|b| b.key.to_string())
                .unwrap_or_default(),
            EventColumn::AllBindings => event
                .bindings
                .iter()
                .map(|b| format!("{}={}", b.variable, b.key))
                .collect::<Vec<_>>()
                .join(" "),
        }
    }
}

/// A materialised event table.
#[derive(Debug, Clone)]
pub struct EventTable {
    table: Table,
    events: Vec<MatchEvent>,
}

impl EventTable {
    /// Builds a table over `events` using `spec`.
    pub fn build(spec: &EventTableSpec, events: &[MatchEvent]) -> Self {
        let mut table = Table::new(spec.columns.iter().map(|c| c.header()));
        for ev in events {
            table.add_row(spec.columns.iter().map(|c| spec.cell(c, ev)));
        }
        EventTable {
            table,
            events: events.to_vec(),
        }
    }

    /// Number of event rows.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Aligned text rendering.
    pub fn render(&self) -> String {
        self.table.render()
    }

    /// CSV rendering.
    pub fn to_csv(&self) -> String {
        self.table.to_csv()
    }

    /// JSON-lines rendering of the underlying events (one serialised
    /// [`MatchEvent`] per line) — the machine-readable export used by the
    /// trace/replay tooling and external dashboards.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&serde_json::to_string(ev).expect("MatchEvent serialises"));
            out.push('\n');
        }
        out
    }

    /// Access to the backing [`Table`] (e.g. to merge with other rows).
    pub fn table(&self) -> &Table {
        &self.table
    }
}

/// Counts events per label — the data behind a Fig. 5-style "how many events
/// of each type" legend.
pub fn events_per_label(spec: &EventTableSpec, events: &[MatchEvent]) -> Vec<(String, usize)> {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for ev in events {
        let label = spec.cell(&EventColumn::Label, ev);
        *counts.entry(label).or_insert(0) += 1;
    }
    counts.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamworks_core::ContinuousQueryEngine;
    use streamworks_graph::{EdgeEvent, Timestamp};

    fn sample_events() -> Vec<MatchEvent> {
        let mut engine = ContinuousQueryEngine::builder().build().unwrap();
        engine
            .register_dsl(
                "QUERY pair WINDOW 1h \
                 MATCH (a1:Article)-[:mentions]->(k:Keyword), (a2:Article)-[:mentions]->(k)",
            )
            .unwrap();
        let mut out = Vec::new();
        out.extend(
            engine
                .ingest(&EdgeEvent::new(
                    "article-1",
                    "Article",
                    "rust",
                    "Keyword",
                    "mentions",
                    Timestamp::from_secs(10),
                ))
                .unwrap(),
        );
        out.extend(
            engine
                .ingest(&EdgeEvent::new(
                    "article-2",
                    "Article",
                    "rust",
                    "Keyword",
                    "mentions",
                    Timestamp::from_secs(25),
                ))
                .unwrap(),
        );
        assert_eq!(out.len(), 2);
        out
    }

    #[test]
    fn standard_table_contains_time_label_and_bindings() {
        let events = sample_events();
        let spec = EventTableSpec::standard().label(QueryId(0), "politics");
        let table = EventTable::build(&spec, &events);
        assert_eq!(table.len(), 2);
        let text = table.render();
        assert!(text.contains("politics"));
        assert!(text.contains("k=rust"));
        assert!(text.contains("25"));
    }

    #[test]
    fn binding_columns_extract_single_variables() {
        let events = sample_events();
        let spec = EventTableSpec::new([
            EventColumn::Time,
            EventColumn::Query,
            EventColumn::Binding("k".into()),
            EventColumn::Binding("missing".into()),
        ]);
        let table = EventTable::build(&spec, &events);
        let csv = table.to_csv();
        assert!(csv.lines().count() == 3);
        assert!(csv.contains("rust"));
        // Unknown variables produce empty cells, not errors.
        assert!(csv.lines().nth(1).unwrap().ends_with(','));
    }

    #[test]
    fn json_lines_round_trip() {
        let events = sample_events();
        let table = EventTable::build(&EventTableSpec::standard(), &events);
        let jsonl = table.to_json_lines();
        assert_eq!(jsonl.lines().count(), 2);
        let back: MatchEvent = serde_json::from_str(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(back.query_name, "pair");
    }

    #[test]
    fn label_counts_group_by_label() {
        let events = sample_events();
        let spec = EventTableSpec::standard().label(QueryId(0), "politics");
        let counts = events_per_label(&spec, &events);
        assert_eq!(counts, vec![("politics".to_owned(), 2)]);
        // Without a label the query name is used.
        let unlabelled = events_per_label(&EventTableSpec::standard(), &events);
        assert_eq!(unlabelled, vec![("pair".to_owned(), 2)]);
    }

    #[test]
    fn empty_event_list_builds_empty_table() {
        let table = EventTable::build(&EventTableSpec::standard(), &[]);
        assert!(table.is_empty());
        assert_eq!(table.to_json_lines(), "");
    }
}
