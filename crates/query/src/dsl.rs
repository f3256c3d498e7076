//! A small text DSL for registering queries.
//!
//! The paper's demo targets analysts who compose queries visually (Fig. 4);
//! for a library the equivalent affordance is a compact textual pattern
//! syntax. The grammar is a deliberately small Cypher-like subset:
//!
//! ```text
//! QUERY news_politics WINDOW 6h
//! MATCH (a1:Article)-[:mentions]->(k:Keyword),
//!       (a2:Article)-[:mentions]->(k),
//!       (a1)-[:located]->(l:Location),
//!       (a2)-[:located]->(l)
//! WHERE k.label = "politics"
//! ```
//!
//! * `QUERY <name>` — query name; optional `WINDOW <n>(ms|s|m|min|h)` sets
//!   `tW` (one hour by default).
//! * `MATCH` — comma-separated path patterns. A pattern element is
//!   `(var[:Type])-[:etype]->(var[:Type])` or the mirrored `<-[:etype]-`
//!   form; `[:etype]` may be `[]` to match any relation. Chains like
//!   `(a)-[:x]->(b)-[:y]->(c)` are allowed.
//! * `WHERE` — optional conjunction of `var.attr <op> literal` predicates
//!   with `op` in `=, !=, <, <=, >, >=` and literals being double-quoted
//!   strings, integers, floats or `true`/`false`.
//!
//! # Lexical rules
//!
//! This DSL and the RPQ dialect (`RPQ <name> [WINDOW <d>] PATH <regex>`,
//! see [`crate::parse_rpq`]) read their text with one lexer, by these rules:
//!
//! * Whitespace (any Unicode white space) and `#` comments, which run to the
//!   end of the line, may stand between any two tokens. Errors name the
//!   1-based line they were found on.
//! * Keywords (`QUERY`, `RPQ`, `WINDOW`, `MATCH`, `WHERE`, `AND`, `PATH`,
//!   `true`, `false`) match in any ASCII case and end at a word boundary:
//!   `PATHS` is an identifier, not `PATH` followed by `S`.
//! * An identifier is a run of Unicode letters, digits and `_`.
//! * A number is a run of ASCII digits; a duration is a number followed at
//!   once by `ms`, `s`, `m`, `min` or `h` (none means seconds). A duration
//!   past `i64::MAX` microseconds is an error, not a wrap.
//! * Both dialects open with the same header: `QUERY` or `RPQ`, the name,
//!   then an optional `WINDOW <duration>`.

use crate::error::QueryError;
use crate::lex::Lexer;
use crate::predicate::{CompareOp, Predicate};
use crate::query_graph::QueryGraph;
use streamworks_graph::AttrValue;
#[cfg(test)]
use streamworks_graph::Duration;

/// Parses a query written in the StreamWorks DSL.
pub fn parse_query(text: &str) -> Result<QueryGraph, QueryError> {
    let mut lex = Lexer::new(text);
    let (name, window) = lex.parse_header("QUERY")?;
    let mut query = QueryGraph::new(name, window);
    if !lex.eat_keyword("MATCH") {
        return Err(lex.error("expected `MATCH`"));
    }
    loop {
        // One path: node (relation node)+
        let (mut prev_name, mut prev_type) = parse_node(&mut lex)?;
        loop {
            let (etype, forward) = parse_relation(&mut lex)?;
            let (next_name, next_type) = parse_node(&mut lex)?;
            let src_v = query
                .add_vertex(prev_name, prev_type, vec![])
                .map_err(|e| lex.error(e.to_string()))?;
            let dst_v = query
                .add_vertex(next_name.clone(), next_type.clone(), vec![])
                .map_err(|e| lex.error(e.to_string()))?;
            if forward {
                query.add_edge(src_v, dst_v, etype, vec![]);
            } else {
                query.add_edge(dst_v, src_v, etype, vec![]);
            }
            (prev_name, prev_type) = (next_name, next_type);
            // Another relation continues the chain.
            if !matches!(lex.peek(), Some('-' | '<')) {
                break;
            }
        }
        if !lex.eat_char(',') {
            break;
        }
    }

    if lex.eat_keyword("WHERE") {
        loop {
            let var = lex.parse_identifier()?;
            lex.expect_char('.')?;
            let key = lex.parse_identifier()?;
            let op = parse_compare_op(&mut lex)?;
            let value = parse_literal(&mut lex)?;
            if query.vertex_by_name(&var).is_none() {
                return Err(lex.error(format!("WHERE references unknown variable `{var}`")));
            }
            let predicate = Predicate::Compare { key, op, value };
            query
                .add_vertex(var, None, vec![predicate])
                .map_err(|e| lex.error(e.to_string()))?;
            if !lex.eat_keyword("AND") {
                break;
            }
        }
    }
    lex.finish()?;
    query.validate()?;
    Ok(query)
}

/// Pretty-prints a query graph back into DSL-ish text (for plan explain output).
/// The window is written in whole seconds, or in milliseconds when it is not
/// a whole number of seconds (the DSL's finest unit).
pub fn format_query(query: &QueryGraph) -> String {
    let mut out = String::new();
    let micros = query.window().as_micros();
    let window = if micros % 1_000_000 == 0 {
        format!("{}s", micros / 1_000_000)
    } else {
        format!("{}ms", micros / 1_000)
    };
    out.push_str(&format!("QUERY {} WINDOW {window}\nMATCH ", query.name()));
    let lines: Vec<String> = query.edge_ids().map(|e| query.describe_edge(e)).collect();
    out.push_str(&lines.join(",\n      "));
    let fmt_literal = |value: &AttrValue| match value {
        AttrValue::Str(s) => format!("\"{s}\""),
        other => other.to_string(),
    };
    let mut preds = Vec::new();
    for v in query.vertices() {
        for p in &v.predicates {
            if let Predicate::Compare { key, op, value } = p {
                preds.push(format!(
                    "{}.{} {} {}",
                    v.name,
                    key,
                    op.symbol(),
                    fmt_literal(value)
                ));
            }
        }
    }
    if !preds.is_empty() {
        out.push_str("\nWHERE ");
        out.push_str(&preds.join(" AND "));
    }
    out
}

/// Parses `(name[:Type])`, returning `(name, Option<Type>)`.
fn parse_node(lex: &mut Lexer<'_>) -> Result<(String, Option<String>), QueryError> {
    lex.expect_char('(')?;
    let name = lex.parse_identifier()?;
    let vtype = if lex.eat_char(':') {
        Some(lex.parse_identifier()?)
    } else {
        None
    };
    lex.expect_char(')')?;
    Ok((name, vtype))
}

/// Parses `-[:etype]->` or `<-[:etype]-`, returning `(etype, forward)`.
fn parse_relation(lex: &mut Lexer<'_>) -> Result<(Option<String>, bool), QueryError> {
    let backward = lex.eat_char('<');
    lex.expect_char('-')?;
    lex.expect_char('[')?;
    // Accept `[:etype]`, `[etype]`, `[*]` and `[]`.
    let _ = lex.eat_char(':');
    let etype = if lex.peek() == Some(']') || lex.eat_char('*') {
        None
    } else {
        Some(lex.parse_identifier()?)
    };
    lex.expect_char(']')?;
    lex.expect_char('-')?;
    if !backward {
        lex.expect_char('>')?;
    }
    Ok((etype, !backward))
}

fn parse_literal(lex: &mut Lexer<'_>) -> Result<AttrValue, QueryError> {
    if lex.eat_char('"') {
        let len = (lex.rest().find('"')).ok_or_else(|| lex.error("unterminated string literal"))?;
        let s = lex.bump(len).to_owned();
        lex.bump(1);
        return Ok(AttrValue::Str(s));
    }
    if lex.eat_keyword("true") {
        return Ok(AttrValue::Bool(true));
    }
    if lex.eat_keyword("false") {
        return Ok(AttrValue::Bool(false));
    }
    // Number: digits, a leading `-` and at most one `.`.
    let (mut len, mut saw_dot) = (0, false);
    for c in lex.rest().chars() {
        if c.is_ascii_digit() || c == '-' && len == 0 {
            len += 1;
        } else if c == '.' && !saw_dot {
            saw_dot = true;
            len += 1;
        } else {
            break;
        }
    }
    if len == 0 {
        return Err(lex.error("expected literal"));
    }
    let raw = lex.bump(len);
    if saw_dot {
        raw.parse::<f64>()
            .map(AttrValue::Float)
            .map_err(|_| lex.error("invalid float literal"))
    } else {
        raw.parse::<i64>()
            .map(AttrValue::Int)
            .map_err(|_| lex.error("invalid integer literal"))
    }
}

fn parse_compare_op(lex: &mut Lexer<'_>) -> Result<CompareOp, QueryError> {
    lex.skip_ws();
    // Two-character operators first, so `<=` is not read as `<`.
    let op = [
        CompareOp::Ne,
        CompareOp::Le,
        CompareOp::Ge,
        CompareOp::Eq,
        CompareOp::Lt,
        CompareOp::Gt,
    ]
    .into_iter()
    .find(|op| lex.rest().starts_with(op.symbol()))
    .ok_or_else(|| lex.error("expected comparison operator"))?;
    lex.bump(op.symbol().len());
    Ok(op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_graph::QueryEdgeId;

    #[test]
    fn parses_the_news_query() {
        let q = parse_query(
            r#"
            QUERY news_politics WINDOW 6h
            MATCH (a1:Article)-[:mentions]->(k:Keyword),
                  (a2:Article)-[:mentions]->(k),
                  (a1)-[:located]->(l:Location),
                  (a2)-[:located]->(l)
            WHERE k.label = "politics"
            "#,
        )
        .unwrap();
        assert_eq!(q.name(), "news_politics");
        assert_eq!(q.window(), Duration::from_hours(6));
        assert_eq!(q.vertex_count(), 4);
        assert_eq!(q.edge_count(), 4);
        let k = q.vertex_by_name("k").unwrap();
        assert_eq!(k.predicates.len(), 1);
        assert_eq!(k.vtype.as_deref(), Some("Keyword"));
    }

    #[test]
    fn parses_chained_paths_and_reverse_edges() {
        let q = parse_query(
            "QUERY chain WINDOW 30s MATCH (a:IP)-[:flow]->(b:IP)-[:flow]->(c:IP), (a)<-[:flow]-(c)",
        )
        .unwrap();
        assert_eq!(q.edge_count(), 3);
        // The reverse edge is stored as c -> a.
        let e = q.edge(QueryEdgeId(2));
        assert_eq!(q.vertex(e.src).name, "c");
        assert_eq!(q.vertex(e.dst).name, "a");
    }

    #[test]
    fn parses_untyped_relations_and_defaults_window() {
        let q = parse_query("QUERY any MATCH (a)-[]->(b)").unwrap();
        assert_eq!(q.window(), Duration::from_hours(1));
        assert!(q.edge(QueryEdgeId(0)).etype.is_none());
    }

    #[test]
    fn parses_numeric_and_boolean_predicates() {
        let q = parse_query(
            r#"QUERY p MATCH (a:IP)-[:flow]->(b:IP)
               WHERE a.port >= 1024 AND b.internal = true AND a.score < 0.5"#,
        )
        .unwrap();
        assert_eq!(q.vertex_by_name("a").unwrap().predicates.len(), 2);
        assert_eq!(q.vertex_by_name("b").unwrap().predicates.len(), 1);
    }

    #[test]
    fn error_reports_line_numbers() {
        let err = parse_query("QUERY x\nMATCH (a:IP)-[:flow]->\n(").unwrap_err();
        match err {
            QueryError::Parse { line, .. } => assert!(line >= 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_where_on_unknown_variable() {
        let err = parse_query(r#"QUERY x MATCH (a)-[:t]->(b) WHERE ghost.k = "v""#).unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn rejects_trailing_garbage_and_missing_match() {
        assert!(parse_query("QUERY x MATCH (a)-[:t]->(b) EXTRA").is_err());
        assert!(parse_query("MATCH (a)-[:t]->(b)").is_err());
    }

    #[test]
    fn comments_are_ignored() {
        let q = parse_query("# header comment\nQUERY c # trailing\nMATCH (a)-[:t]->(b) # done\n")
            .unwrap();
        assert_eq!(q.name(), "c");
    }

    #[test]
    fn format_round_trips_through_parse() {
        let q = parse_query(
            r#"QUERY roundtrip WINDOW 300s
               MATCH (a1:Article)-[:mentions]->(k:Keyword), (a2:Article)-[:mentions]->(k)
               WHERE k.label = "sports""#,
        )
        .unwrap();
        let text = format_query(&q);
        let q2 = parse_query(&text).unwrap();
        assert_eq!(q2.name(), "roundtrip");
        assert_eq!(q2.edge_count(), q.edge_count());
        assert_eq!(q2.vertex_count(), q.vertex_count());
        assert_eq!(q2.window(), q.window());
        assert_eq!(q2.vertex_by_name("k").unwrap().predicates.len(), 1);
    }

    #[test]
    fn format_keeps_a_window_that_is_not_whole_seconds() {
        for (window, text) in [("1500ms", "WINDOW 1500ms\n"), ("30min", "WINDOW 1800s\n")] {
            let q = parse_query(&format!(
                "QUERY w WINDOW {window} MATCH (a:Article)-[:mentions]->(k:Keyword)"
            ))
            .unwrap();
            let formatted = format_query(&q);
            assert!(formatted.contains(text), "{formatted}");
            assert_eq!(parse_query(&formatted).unwrap().window(), q.window());
        }
    }
}
