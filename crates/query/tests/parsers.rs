//! The parser suite: both query dialects on hostile text.
//!
//! Query text reaches the engine from files and operators, so parsing must
//! be total: any byte string ends in a query or an error, never a panic, a
//! stack overflow or an unbounded allocation. Every RPQ that parses must
//! compile, forward and reversed (the matcher builds both), to at most the
//! state bound `RpqQuery::validate` enforces. The mutation loop below holds
//! both parsers to that on mutants of the repository's own queries; the
//! named tests pin the inputs that once broke it, and the inputs the shared
//! lexer newly accepts.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration as Elapsed, Instant};
use streamworks_graph::Duration;
use streamworks_query::{parse_query, parse_rpq, PathExpr, QueryError, RpqDfa};

/// The automaton state bound of `RpqQuery::validate` (`MAX_RPQ_STATES`).
const STATE_BOUND: usize = 256;

/// Queries from the benchmark, the docs and the test suites.
const SEEDS: &[&str] = &[
    include_str!("../../../benchmark/queries/hot_wedge.swq"),
    include_str!("../../../benchmark/queries/coloc_pair.swq"),
    include_str!("../../../benchmark/queries/lateral.rpq"),
    "QUERY news_politics WINDOW 6h\n\
     MATCH (a1:Article)-[:mentions]->(k:Keyword),\n      (a2:Article)-[:mentions]->(k),\n\
     \x20     (a1)-[:located]->(l:Location),\n      (a2)-[:located]->(l)\n\
     WHERE k.label = \"politics\"\n",
    "QUERY chain WINDOW 30s MATCH (a:IP)-[:flow]->(b:IP)-[:flow]->(c:IP), (a)<-[:flow]-(c)",
    "QUERY p MATCH (a:IP)-[]->(b:IP)\n  WHERE a.port >= 1024 AND b.internal = true AND a.score < -0.5",
    "# header comment\nQUERY c # trailing\nMATCH (a)-[*]->(b) # done\n",
    "RPQ chase WINDOW 30m PATH login (flow | dns)* exploit",
    "RPQ p WINDOW 10s PATH a (b | c)+ d?",
    "RPQ p PATH login (flow | dns)* exploit{1,2}",
    "RPQ p WINDOW 250ms PATH (a (b | c)*)+ b a{2,4} c{3,} d{3}",
    "# multi-hop intrusion\nRPQ lateral WINDOW 1h PATH login flow* exploit\n",
];

/// Bytes the mutator inserts: every token either dialect knows, digits,
/// whitespace, a comment marker and the lead bytes of multi-byte UTF-8.
const ALPHABET: &[u8] = b"(){}[]|*+?,:.-<>=!\"# \t\n09azAZ_\xc3\xa9\xe2\x80\x83";

/// xorshift64: deterministic and thread-free.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// One random edit: flip, insert or delete a byte, splice a long digit
/// run, or splice deep nesting (parentheses or a postfix chain).
fn mutate(text: &mut Vec<u8>, rng: &mut Rng) {
    let at = rng.below(text.len() + 1);
    match rng.below(6) {
        0 if at < text.len() => text[at] = ALPHABET[rng.below(ALPHABET.len())],
        1 if at < text.len() => {
            let end = (at + 1 + rng.below(4)).min(text.len());
            text.drain(at..end);
        }
        2 => {
            let digits: Vec<u8> = (0..10 + rng.below(20))
                .map(|_| b'0' + rng.below(10) as u8)
                .collect();
            text.splice(at..at, digits);
        }
        3 => {
            let depth = 1 + rng.below(3_000);
            let mut nest = vec![b'('; depth];
            nest.push(b'a');
            nest.extend(std::iter::repeat_n(b')', depth * rng.below(2)));
            text.splice(at..at, nest);
        }
        4 => {
            let op = b"*+?"[rng.below(3)];
            text.splice(at..at, std::iter::repeat_n(op, 1 + rng.below(3_000)));
        }
        _ => text.insert(at, ALPHABET[rng.below(ALPHABET.len())]),
    }
}

/// Parses `text` with both parsers, returning which of them accepted it; a
/// panic fails with the input named. An RPQ that parses must compile both
/// ways within the state bound.
fn check(text: &str) -> [bool; 2] {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let query = parse_query(text);
        let rpq = parse_rpq(text);
        if let Ok(rpq) = &rpq {
            for pattern in [rpq.pattern().clone(), rpq.pattern().reversed()] {
                let states = RpqDfa::compile(&pattern).state_count();
                assert!(states <= STATE_BOUND, "{states} states for `{pattern}`");
            }
        }
        [query.is_ok(), rpq.is_ok()]
    }));
    outcome.unwrap_or_else(|_| {
        let shown: String = text.chars().take(300).collect();
        panic!("parsing panicked on {} bytes: {shown:?}", text.len())
    })
}

#[test]
fn mutated_queries_parse_to_a_query_or_an_error() {
    let start = Instant::now();
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut parsed = [0usize; 2];
    for round in 0..10_000 {
        let seed = SEEDS[round % SEEDS.len()];
        let mut text = seed.as_bytes().to_vec();
        for _ in 0..1 + rng.below(4) {
            mutate(&mut text, &mut rng);
        }
        let accepted = check(&String::from_utf8_lossy(&text));
        for (count, ok) in parsed.iter_mut().zip(accepted) {
            *count += ok as usize;
        }
    }
    // The mutants stay close enough to their seeds for both grammars to
    // be exercised past the header.
    assert!(parsed[0] > 500 && parsed[1] > 300, "parsed {parsed:?}");
    assert!(
        start.elapsed() < Elapsed::from_secs(60),
        "took {:?}",
        start.elapsed()
    );
}

fn parse_error(result: Result<impl std::fmt::Debug, QueryError>) -> String {
    match result {
        Err(QueryError::Parse { message, .. }) => message,
        other => panic!("expected a parse error, got {other:?}"),
    }
}

#[test]
fn an_out_of_range_window_is_a_parse_error_in_both_dialects() {
    let dsl = parse_query("QUERY q WINDOW 3000000000h MATCH (a)-[:t]->(b)");
    assert!(parse_error(dsl).contains("out of range"));
    let rpq = parse_rpq("RPQ q WINDOW 3000000000h PATH a");
    assert!(parse_error(rpq).contains("out of range"));
    // The largest window that fits still parses.
    let rpq = parse_rpq("RPQ q WINDOW 9223372036854775ms PATH a").unwrap();
    assert_eq!(rpq.window(), Duration::from_millis(9_223_372_036_854_775));
}

#[test]
fn a_repetition_bound_past_u32_is_a_parse_error() {
    let message = parse_error(parse_rpq("RPQ q PATH a{4294967297}"));
    assert!(message.contains("4294967297"), "{message}");
    assert!(parse_rpq("RPQ q PATH a{1,4294967296}").is_err());
    // `u32::MAX` itself reads as a bound; its automaton is what is refused.
    let message = parse_error(parse_rpq("RPQ q PATH a{4294967295}"));
    assert!(message.contains("NFA states"), "{message}");
}

#[test]
fn deep_nesting_is_a_parse_error() {
    let depth = 100_000;
    let parens = format!("RPQ q PATH {}a{}", "(".repeat(depth), ")".repeat(depth));
    assert!(parens.len() > 200_000);
    assert!(parse_error(parse_rpq(&parens)).contains("nests deeper"));
    let stars = format!("RPQ q PATH a{}", "*".repeat(200_000));
    assert!(parse_error(parse_rpq(&stars)).contains("nests deeper"));
    // Parentheses and postfix operators share one budget of 64 levels.
    let at_limit = format!("RPQ q PATH {}a{}", "(".repeat(32), ")+".repeat(32));
    assert!(parse_rpq(&at_limit).is_ok());
    let past_limit = format!("RPQ q PATH {}a+{}", "(".repeat(32), ")+".repeat(32));
    assert!(parse_error(parse_rpq(&past_limit)).contains("nests deeper"));
}

#[test]
fn an_exponential_automaton_is_refused_quickly() {
    let start = Instant::now();
    // 2^15 subset states forward; the reverse is small and is refused the
    // other way round.
    for text in ["RPQ q PATH (a|b)*a(a|b){14}", "RPQ q PATH (a|b){14}a(a|b)*"] {
        let message = parse_error(parse_rpq(text));
        assert!(message.contains("DFA states"), "{text}: {message}");
    }
    assert!(start.elapsed() < Elapsed::from_secs(10));
    // Under the bound still compiles: 2^7 states.
    let rpq = parse_rpq("RPQ q PATH (a|b)*a(a|b){6}").unwrap();
    assert_eq!(rpq.compile().state_count(), 128);
}

#[test]
fn the_shared_lexer_widens_the_rpq_dialect() {
    // Unicode labels and white space, and white space before a postfix
    // operator, as the subgraph DSL always allowed between tokens.
    let rpq = parse_rpq("rpq q\u{a0}window 5m path connexión (flujo | dns) *\n+ a {2,3}").unwrap();
    assert_eq!(rpq.window(), Duration::from_mins(5));
    assert_eq!(
        rpq.pattern().to_string(),
        "connexión ((flujo | dns)*)+ (a){2,3}"
    );
    assert!(rpq.compile().accepts(["connexión", "dns", "a", "a"]));
    let label = PathExpr::Label("é".into());
    assert_eq!(parse_rpq("RPQ q PATH é").unwrap().pattern(), &label);
}

#[test]
fn keywords_cut_at_a_non_ascii_boundary_do_not_panic() {
    for text in [
        "éééé",
        "QUERé",
        "Qé",
        "RPQ p PATé",
        "QUERY x MATCH (a)-[:t]->(b) WHEé",
    ] {
        assert!(parse_query(text).is_err(), "{text}");
        assert!(parse_rpq(text).is_err(), "{text}");
    }
}

#[test]
fn errors_name_the_line_after_comments_and_string_literals() {
    let text = "# one\nRPQ q\n# three\nPATH a\n  )";
    let Err(QueryError::Parse { line, .. }) = parse_rpq(text) else {
        panic!("expected a parse error");
    };
    assert_eq!(line, 5);
    let text = "QUERY q MATCH (a)-[:t]->(b)\nWHERE a.k = \"two\nlines\" AND\n ?";
    let Err(QueryError::Parse { line, .. }) = parse_query(text) else {
        panic!("expected a parse error");
    };
    assert_eq!(line, 4);
}
