//! Windowed regular path queries (RPQ) over edge labels.
//!
//! The StreamWorks query model (paper §3) is fixed-shape subgraph
//! isomorphism; this module adds the second query class from the ROADMAP: a
//! regular expression over *edge types* matched against paths in the sliding
//! window, in the style of S-Graffito (Pacaci, Bonifati, Özsu). The query
//! side is classic automata plumbing:
//!
//! 1. a tiny regex AST ([`PathExpr`]: label, concatenation, alternation,
//!    Kleene star/plus, optional, bounded repetition),
//! 2. compiled via Thompson's construction into an epsilon-NFA,
//! 3. determinized with the subset construction,
//! 4. minimized with Moore partition refinement (partial transition function;
//!    missing transitions act as an implicit dead state).
//!
//! The incremental product-graph evaluation lives in `streamworks-core`
//! (`rpq` module); this crate only knows about labels and states.
//!
//! ```
//! use streamworks_query::parse_rpq;
//!
//! let q = parse_rpq("RPQ lateral WINDOW 5m PATH login (flow)+ exploit").unwrap();
//! let dfa = q.compile();
//! assert!(dfa.accepts(["login", "flow", "exploit"]));
//! assert!(dfa.accepts(["login", "flow", "flow", "flow", "exploit"]));
//! assert!(!dfa.accepts(["login", "exploit"]));
//! ```

use crate::error::QueryError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use streamworks_graph::Duration;

/// A regular expression over edge labels.
///
/// Labels are edge-type names as interned by the graph (`"flow"`, `"login"`,
/// ...). The expression describes the *label string* read along a directed
/// path; vertices are unconstrained (endpoint predicates are future work).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PathExpr {
    /// A single edge with the given type name.
    Label(String),
    /// `a b c` — the sub-expressions matched in sequence.
    Concat(Vec<PathExpr>),
    /// `a | b` — either alternative.
    Alt(Vec<PathExpr>),
    /// `a*` — zero or more repetitions.
    Star(Box<PathExpr>),
    /// `a+` — one or more repetitions.
    Plus(Box<PathExpr>),
    /// `a?` — zero or one occurrence.
    Optional(Box<PathExpr>),
    /// `a{m,n}` — between `m` and `n` repetitions; `None` max means `m` or
    /// more (`a{m,}`).
    Repeat(Box<PathExpr>, u32, Option<u32>),
}

impl PathExpr {
    /// Collects every distinct label mentioned by the expression, in first
    /// appearance order.
    pub fn labels(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_labels(&mut out);
        out
    }

    fn collect_labels(&self, out: &mut Vec<String>) {
        match self {
            PathExpr::Label(l) => {
                if !out.iter().any(|x| x == l) {
                    out.push(l.clone());
                }
            }
            PathExpr::Concat(parts) | PathExpr::Alt(parts) => {
                for p in parts {
                    p.collect_labels(out);
                }
            }
            PathExpr::Star(inner) | PathExpr::Plus(inner) | PathExpr::Optional(inner) => {
                inner.collect_labels(out)
            }
            PathExpr::Repeat(inner, _, _) => inner.collect_labels(out),
        }
    }

    /// True if the expression matches the empty label string (a zero-hop
    /// path). The engine rejects such queries: a zero-length path is every
    /// vertex, which is not a useful streaming match.
    pub fn matches_empty(&self) -> bool {
        match self {
            PathExpr::Label(_) => false,
            PathExpr::Concat(parts) => parts.iter().all(|p| p.matches_empty()),
            PathExpr::Alt(parts) => parts.iter().any(|p| p.matches_empty()),
            PathExpr::Star(_) | PathExpr::Optional(_) => true,
            PathExpr::Plus(inner) => inner.matches_empty(),
            PathExpr::Repeat(inner, min, _) => *min == 0 || inner.matches_empty(),
        }
    }

    /// The expression for the reversed label strings: it matches `l_n …
    /// l_1` exactly when `self` matches `l_1 … l_n`. Concatenations are
    /// reversed at every level; every other operator keeps its shape. The
    /// RPQ matcher compiles it to walk a path from its target end.
    pub fn reversed(&self) -> PathExpr {
        let boxed = |inner: &PathExpr| Box::new(inner.reversed());
        match self {
            PathExpr::Label(l) => PathExpr::Label(l.clone()),
            PathExpr::Concat(parts) => {
                PathExpr::Concat(parts.iter().rev().map(Self::reversed).collect())
            }
            PathExpr::Alt(parts) => PathExpr::Alt(parts.iter().map(Self::reversed).collect()),
            PathExpr::Star(inner) => PathExpr::Star(boxed(inner)),
            PathExpr::Plus(inner) => PathExpr::Plus(boxed(inner)),
            PathExpr::Optional(inner) => PathExpr::Optional(boxed(inner)),
            PathExpr::Repeat(inner, min, max) => PathExpr::Repeat(boxed(inner), *min, *max),
        }
    }
}

impl fmt::Display for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathExpr::Label(l) => write!(f, "{l}"),
            PathExpr::Concat(parts) => {
                let mut first = true;
                for p in parts {
                    if !first {
                        write!(f, " ")?;
                    }
                    first = false;
                    if matches!(p, PathExpr::Alt(_)) {
                        write!(f, "({p})")?;
                    } else {
                        write!(f, "{p}")?;
                    }
                }
                Ok(())
            }
            PathExpr::Alt(parts) => {
                let mut first = true;
                for p in parts {
                    if !first {
                        write!(f, " | ")?;
                    }
                    first = false;
                    write!(f, "{p}")?;
                }
                Ok(())
            }
            PathExpr::Star(inner) => write!(f, "({inner})*"),
            PathExpr::Plus(inner) => write!(f, "({inner})+"),
            PathExpr::Optional(inner) => write!(f, "({inner})?"),
            PathExpr::Repeat(inner, min, Some(max)) => write!(f, "({inner}){{{min},{max}}}"),
            PathExpr::Repeat(inner, min, None) => write!(f, "({inner}){{{min},}}"),
        }
    }
}

/// A complete windowed regular path query: name, window `tW`, and pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RpqQuery {
    name: String,
    window: Duration,
    pattern: PathExpr,
}

impl RpqQuery {
    /// Builds a query from parts, rejecting patterns that match the empty
    /// path (zero hops would make every vertex a match).
    pub fn new(
        name: impl Into<String>,
        window: Duration,
        pattern: PathExpr,
    ) -> Result<Self, QueryError> {
        let query = RpqQuery {
            name: name.into(),
            window,
            pattern,
        };
        query.validate()?;
        Ok(query)
    }

    /// The check [`Self::new`] applies, for a query that reached this type
    /// another way (deserialised from a checkpoint): a pattern matching the
    /// empty path is [`QueryError::EmptyQuery`].
    pub fn validate(&self) -> Result<(), QueryError> {
        if self.pattern.matches_empty() {
            return Err(QueryError::EmptyQuery);
        }
        Ok(())
    }

    /// The query name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The sliding-window width `tW`.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// The path pattern.
    pub fn pattern(&self) -> &PathExpr {
        &self.pattern
    }

    /// Compiles the pattern to a minimized DFA.
    pub fn compile(&self) -> RpqDfa {
        RpqDfa::compile(&self.pattern)
    }
}

// ---------------------------------------------------------------------------
// Thompson NFA
// ---------------------------------------------------------------------------

const EPSILON: u32 = u32::MAX;

/// Epsilon-NFA fragment machinery (Thompson's construction).
struct Nfa {
    /// `transitions[state]` = list of `(symbol, target)`; `symbol == EPSILON`
    /// is an epsilon move, otherwise an index into the label alphabet.
    transitions: Vec<Vec<(u32, usize)>>,
}

impl Nfa {
    fn new() -> Self {
        Nfa {
            transitions: Vec::new(),
        }
    }

    fn add_state(&mut self) -> usize {
        self.transitions.push(Vec::new());
        self.transitions.len() - 1
    }

    fn add_edge(&mut self, from: usize, symbol: u32, to: usize) {
        self.transitions[from].push((symbol, to));
    }

    /// Builds the fragment for `expr`, returning `(start, accept)` states.
    fn build(&mut self, expr: &PathExpr, alphabet: &BTreeMap<&str, u32>) -> (usize, usize) {
        match expr {
            PathExpr::Label(l) => {
                let start = self.add_state();
                let accept = self.add_state();
                self.add_edge(start, alphabet[l.as_str()], accept);
                (start, accept)
            }
            PathExpr::Concat(parts) => {
                debug_assert!(!parts.is_empty(), "parser never emits empty Concat");
                let mut iter = parts.iter();
                let (start, mut accept) = self.build(iter.next().unwrap(), alphabet);
                for part in iter {
                    let (s, a) = self.build(part, alphabet);
                    self.add_edge(accept, EPSILON, s);
                    accept = a;
                }
                (start, accept)
            }
            PathExpr::Alt(parts) => {
                let start = self.add_state();
                let accept = self.add_state();
                for part in parts {
                    let (s, a) = self.build(part, alphabet);
                    self.add_edge(start, EPSILON, s);
                    self.add_edge(a, EPSILON, accept);
                }
                (start, accept)
            }
            PathExpr::Star(inner) => {
                let start = self.add_state();
                let accept = self.add_state();
                let (s, a) = self.build(inner, alphabet);
                self.add_edge(start, EPSILON, s);
                self.add_edge(start, EPSILON, accept);
                self.add_edge(a, EPSILON, s);
                self.add_edge(a, EPSILON, accept);
                (start, accept)
            }
            PathExpr::Plus(inner) => {
                // a+ = a a*
                let (s, a) = self.build(inner, alphabet);
                let accept = self.add_state();
                self.add_edge(a, EPSILON, s);
                self.add_edge(a, EPSILON, accept);
                (s, accept)
            }
            PathExpr::Optional(inner) => {
                let (s, a) = self.build(inner, alphabet);
                self.add_edge(s, EPSILON, a);
                (s, a)
            }
            PathExpr::Repeat(inner, min, max) => {
                // Desugar: a{m,n} = a^m (a?)^(n-m);  a{m,} = a^m a*.
                let start = self.add_state();
                let mut accept = start;
                for _ in 0..*min {
                    let (s, a) = self.build(inner, alphabet);
                    self.add_edge(accept, EPSILON, s);
                    accept = a;
                }
                match max {
                    Some(max) => {
                        for _ in *min..*max {
                            let (s, a) = self.build(inner, alphabet);
                            self.add_edge(accept, EPSILON, s);
                            self.add_edge(s, EPSILON, a);
                            accept = a;
                        }
                    }
                    None => {
                        let (s, a) = self.build(inner, alphabet);
                        self.add_edge(accept, EPSILON, s);
                        self.add_edge(s, EPSILON, a);
                        self.add_edge(a, EPSILON, s);
                        accept = a;
                    }
                }
                (start, accept)
            }
        }
    }

    /// Epsilon-closure of `states` (sorted, deduplicated).
    fn closure(&self, mut states: Vec<usize>) -> Vec<usize> {
        let mut seen = vec![false; self.transitions.len()];
        let mut stack: Vec<usize> = states.clone();
        for &s in &states {
            seen[s] = true;
        }
        while let Some(s) = stack.pop() {
            for &(sym, to) in &self.transitions[s] {
                if sym == EPSILON && !seen[to] {
                    seen[to] = true;
                    states.push(to);
                    stack.push(to);
                }
            }
        }
        states.sort_unstable();
        states.dedup();
        states
    }
}

// ---------------------------------------------------------------------------
// DFA
// ---------------------------------------------------------------------------

/// A minimized deterministic automaton over edge labels.
///
/// The transition function is partial: a missing entry means the label string
/// can never reach an accepting state (implicit dead state). State `0` is the
/// start state after minimization.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RpqDfa {
    /// The alphabet: edge-type names, indexed by symbol id.
    labels: Vec<String>,
    /// `transitions[state][symbol]` → next state, or `None` (dead).
    transitions: Vec<Vec<Option<u32>>>,
    /// Per-state accepting flag.
    accepting: Vec<bool>,
}

impl RpqDfa {
    /// Compiles a pattern: Thompson NFA → subset construction → Moore
    /// minimization → reachable-state renumbering with start state `0`.
    pub fn compile(pattern: &PathExpr) -> RpqDfa {
        let labels = pattern.labels();
        let alphabet: BTreeMap<&str, u32> = labels
            .iter()
            .enumerate()
            .map(|(i, l)| (l.as_str(), i as u32))
            .collect();

        let mut nfa = Nfa::new();
        let (start, accept) = nfa.build(pattern, &alphabet);

        // Subset construction.
        let nsym = labels.len();
        let mut dfa_of: BTreeMap<Vec<usize>, u32> = BTreeMap::new();
        let mut subsets: Vec<Vec<usize>> = Vec::new();
        let mut transitions: Vec<Vec<Option<u32>>> = Vec::new();
        let start_set = nfa.closure(vec![start]);
        dfa_of.insert(start_set.clone(), 0);
        subsets.push(start_set);
        transitions.push(vec![None; nsym]);
        let mut frontier = vec![0u32];
        while let Some(d) = frontier.pop() {
            for sym in 0..nsym as u32 {
                let mut next: Vec<usize> = Vec::new();
                for &s in &subsets[d as usize] {
                    for &(edge_sym, to) in &nfa.transitions[s] {
                        if edge_sym == sym {
                            next.push(to);
                        }
                    }
                }
                if next.is_empty() {
                    continue;
                }
                let next = nfa.closure(next);
                let id = match dfa_of.get(&next) {
                    Some(&id) => id,
                    None => {
                        let id = subsets.len() as u32;
                        dfa_of.insert(next.clone(), id);
                        subsets.push(next);
                        transitions.push(vec![None; nsym]);
                        frontier.push(id);
                        id
                    }
                };
                transitions[d as usize][sym as usize] = Some(id);
            }
        }
        let accepting: Vec<bool> = subsets.iter().map(|set| set.contains(&accept)).collect();

        Self::minimize(labels, transitions, accepting)
    }

    /// Moore partition refinement on a partial DFA. `None` successors form
    /// their own implicit class, so the dead state never materializes.
    fn minimize(
        labels: Vec<String>,
        transitions: Vec<Vec<Option<u32>>>,
        accepting: Vec<bool>,
    ) -> RpqDfa {
        let n = transitions.len();
        let nsym = labels.len();
        // Initial partition: accepting vs non-accepting.
        let mut class: Vec<u32> = accepting.iter().map(|&a| a as u32).collect();
        loop {
            // Signature of a state: (class, class of successor per symbol).
            let mut next_class: BTreeMap<(u32, Vec<Option<u32>>), u32> = BTreeMap::new();
            let mut assignment = vec![0u32; n];
            for s in 0..n {
                let sig: Vec<Option<u32>> = (0..nsym)
                    .map(|sym| transitions[s][sym].map(|t| class[t as usize]))
                    .collect();
                let next = next_class.len() as u32;
                let id = *next_class.entry((class[s], sig)).or_insert(next);
                assignment[s] = id;
            }
            if assignment == class {
                break;
            }
            class = assignment;
        }

        // Renumber reachable classes breadth-first from the start class so
        // the start state is 0 and numbering is deterministic.
        let mut renumber: Vec<Option<u32>> = vec![None; n];
        let mut order: Vec<u32> = Vec::new();
        let start_class = class[0];
        renumber[start_class as usize] = Some(0);
        order.push(start_class);
        let mut head = 0;
        while head < order.len() {
            let c = order[head];
            head += 1;
            // Representative: first state with this class.
            let rep = (0..n).find(|&s| class[s] == c).unwrap();
            for t in transitions[rep].iter().take(nsym).flatten() {
                let tc = class[*t as usize];
                if renumber[tc as usize].is_none() {
                    renumber[tc as usize] = Some(order.len() as u32);
                    order.push(tc);
                }
            }
        }

        let mut min_transitions = vec![vec![None; nsym]; order.len()];
        let mut min_accepting = vec![false; order.len()];
        for (new_id, &c) in order.iter().enumerate() {
            let rep = (0..n).find(|&s| class[s] == c).unwrap();
            min_accepting[new_id] = accepting[rep];
            for sym in 0..nsym {
                min_transitions[new_id][sym] =
                    transitions[rep][sym].map(|t| renumber[class[t as usize] as usize].unwrap());
            }
        }

        RpqDfa {
            labels,
            transitions: min_transitions,
            accepting: min_accepting,
        }
    }

    /// The start state (always `0`).
    pub fn start(&self) -> u32 {
        0
    }

    /// Number of DFA states.
    pub fn state_count(&self) -> usize {
        self.transitions.len()
    }

    /// The alphabet (edge-type names) in symbol order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Symbol id of a label, if it is part of the alphabet.
    pub fn symbol(&self, label: &str) -> Option<u32> {
        self.labels
            .iter()
            .position(|l| l == label)
            .map(|i| i as u32)
    }

    /// One transition step; `None` means the dead state.
    pub fn step(&self, state: u32, symbol: u32) -> Option<u32> {
        self.transitions[state as usize][symbol as usize]
    }

    /// Whether `state` is accepting.
    pub fn is_accepting(&self, state: u32) -> bool {
        self.accepting[state as usize]
    }

    /// Symbols with at least one outgoing transition from the start state.
    /// The product-graph operator uses this to decide which edges can root a
    /// new spanning tree.
    pub fn start_symbols(&self) -> Vec<u32> {
        (0..self.labels.len() as u32)
            .filter(|&sym| self.step(0, sym).is_some())
            .collect()
    }

    /// Runs the DFA over a label string (test/diagnostic helper).
    pub fn accepts<'a>(&self, word: impl IntoIterator<Item = &'a str>) -> bool {
        let mut state = self.start();
        for label in word {
            let Some(sym) = self.symbol(label) else {
                return false;
            };
            match self.step(state, sym) {
                Some(next) => state = next,
                None => return false,
            }
        }
        self.is_accepting(state)
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Parses the RPQ text syntax:
///
/// ```text
/// RPQ <name> [WINDOW <duration>] PATH <pattern>
/// ```
///
/// where `<pattern>` is a regular expression over edge-type names:
/// juxtaposition concatenates, `|` alternates, postfix `*` `+` `?` and
/// `{m,n}` / `{m,}` repeat, and parentheses group. `#` starts a line
/// comment. The window defaults to one hour, mirroring the SJ-Tree DSL.
pub fn parse_rpq(text: &str) -> Result<RpqQuery, QueryError> {
    RpqParser {
        text: text.as_bytes(),
        pos: 0,
        line: 1,
    }
    .parse()
}

struct RpqParser<'a> {
    text: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> RpqParser<'a> {
    fn error(&self, message: impl Into<String>) -> QueryError {
        QueryError::Parse {
            line: self.line,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.text.len() {
            match self.text[self.pos] {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b' ' | b'\t' | b'\r' => self.pos += 1,
                b'#' => {
                    while self.pos < self.text.len() && self.text[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.get(self.pos).copied()
    }

    fn eat_char(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, keyword: &str) -> bool {
        let bytes = keyword.as_bytes();
        let end = self.pos + bytes.len();
        if end > self.text.len() {
            return false;
        }
        if !self.text[self.pos..end].eq_ignore_ascii_case(bytes) {
            return false;
        }
        // Word boundary.
        if let Some(&next) = self.text.get(end) {
            if next.is_ascii_alphanumeric() || next == b'_' {
                return false;
            }
        }
        self.pos = end;
        true
    }

    fn parse_identifier(&mut self) -> Result<String, QueryError> {
        let start = self.pos;
        while self
            .peek()
            .map(|c| c.is_ascii_alphanumeric() || c == b'_')
            .unwrap_or(false)
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected identifier"));
        }
        Ok(std::str::from_utf8(&self.text[start..self.pos])
            .expect("identifier bytes are ASCII")
            .to_string())
    }

    fn parse_number(&mut self) -> Result<i64, QueryError> {
        let start = self.pos;
        while self.peek().map(|c| c.is_ascii_digit()).unwrap_or(false) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected number"));
        }
        std::str::from_utf8(&self.text[start..self.pos])
            .expect("digit bytes are ASCII")
            .parse()
            .map_err(|_| self.error("number out of range"))
    }

    fn parse_duration(&mut self) -> Result<Duration, QueryError> {
        let value = self.parse_number()?;
        let unit_start = self.pos;
        while self
            .peek()
            .map(|c| c.is_ascii_alphabetic())
            .unwrap_or(false)
        {
            self.pos += 1;
        }
        let unit = std::str::from_utf8(&self.text[unit_start..self.pos]).unwrap();
        match unit {
            "ms" => Ok(Duration::from_millis(value)),
            "s" | "" => Ok(Duration::from_secs(value)),
            "m" | "min" => Ok(Duration::from_mins(value)),
            "h" => Ok(Duration::from_hours(value)),
            other => Err(self.error(format!("unknown duration unit '{other}'"))),
        }
    }

    fn parse(mut self) -> Result<RpqQuery, QueryError> {
        self.skip_ws();
        if !self.eat_keyword("RPQ") {
            return Err(self.error("expected RPQ keyword"));
        }
        self.skip_ws();
        let name = self.parse_identifier()?;
        self.skip_ws();
        let window = if self.eat_keyword("WINDOW") {
            self.skip_ws();
            self.parse_duration()?
        } else {
            Duration::from_hours(1)
        };
        self.skip_ws();
        if !self.eat_keyword("PATH") {
            return Err(self.error("expected PATH keyword"));
        }
        let pattern = self.parse_alt()?;
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.error("unexpected trailing input after pattern"));
        }
        RpqQuery::new(name, window, pattern)
    }

    /// alt := concat ('|' concat)*
    fn parse_alt(&mut self) -> Result<PathExpr, QueryError> {
        let mut parts = vec![self.parse_concat()?];
        loop {
            self.skip_ws();
            if self.eat_char(b'|') {
                parts.push(self.parse_concat()?);
            } else {
                break;
            }
        }
        Ok(if parts.len() == 1 {
            parts.pop().unwrap()
        } else {
            PathExpr::Alt(parts)
        })
    }

    /// concat := postfix+
    fn parse_concat(&mut self) -> Result<PathExpr, QueryError> {
        let mut parts = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b'(' => {
                    parts.push(self.parse_postfix()?);
                }
                _ => break,
            }
        }
        match parts.len() {
            0 => Err(self.error("expected a label or '(' in path pattern")),
            1 => Ok(parts.pop().unwrap()),
            _ => Ok(PathExpr::Concat(parts)),
        }
    }

    /// postfix := atom ('*' | '+' | '?' | '{m,n}')*
    fn parse_postfix(&mut self) -> Result<PathExpr, QueryError> {
        let mut expr = self.parse_atom()?;
        loop {
            match self.peek() {
                Some(b'*') => {
                    self.pos += 1;
                    expr = PathExpr::Star(Box::new(expr));
                }
                Some(b'+') => {
                    self.pos += 1;
                    expr = PathExpr::Plus(Box::new(expr));
                }
                Some(b'?') => {
                    self.pos += 1;
                    expr = PathExpr::Optional(Box::new(expr));
                }
                Some(b'{') => {
                    self.pos += 1;
                    self.skip_ws();
                    let min = self.parse_number()? as u32;
                    self.skip_ws();
                    let max = if self.eat_char(b',') {
                        self.skip_ws();
                        if self.peek().map(|c| c.is_ascii_digit()).unwrap_or(false) {
                            Some(self.parse_number()? as u32)
                        } else {
                            None
                        }
                    } else {
                        Some(min)
                    };
                    self.skip_ws();
                    if !self.eat_char(b'}') {
                        return Err(self.error("expected '}' in repetition bound"));
                    }
                    if let Some(max) = max {
                        if max < min {
                            return Err(self
                                .error(format!("repetition bound {{{min},{max}}} has max < min")));
                        }
                        if max == 0 {
                            return Err(self.error("repetition bound {0,0} matches nothing"));
                        }
                    }
                    expr = PathExpr::Repeat(Box::new(expr), min, max);
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    /// atom := label | '(' alt ')'
    fn parse_atom(&mut self) -> Result<PathExpr, QueryError> {
        self.skip_ws();
        if self.eat_char(b'(') {
            let inner = self.parse_alt()?;
            self.skip_ws();
            if !self.eat_char(b')') {
                return Err(self.error("expected ')'"));
            }
            Ok(inner)
        } else {
            Ok(PathExpr::Label(self.parse_identifier()?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dfa(text: &str) -> RpqDfa {
        parse_rpq(text).unwrap().compile()
    }

    #[test]
    fn parses_name_window_and_pattern() {
        let q = parse_rpq("RPQ chase WINDOW 30m PATH login (flow | dns)* exploit").unwrap();
        assert_eq!(q.name(), "chase");
        assert_eq!(q.window(), Duration::from_mins(30));
        assert_eq!(q.pattern().to_string(), "login (flow | dns)* exploit");
    }

    #[test]
    fn default_window_is_one_hour() {
        let q = parse_rpq("RPQ p PATH a b").unwrap();
        assert_eq!(q.window(), Duration::from_hours(1));
    }

    #[test]
    fn rejects_empty_matching_patterns() {
        assert!(matches!(
            parse_rpq("RPQ p PATH a*"),
            Err(QueryError::EmptyQuery)
        ));
        assert!(matches!(
            parse_rpq("RPQ p PATH a? | b?"),
            Err(QueryError::EmptyQuery)
        ));
        // a+ requires at least one edge, so it is fine.
        assert!(parse_rpq("RPQ p PATH a+").is_ok());
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_rpq("QUERY p PATH a").is_err());
        assert!(parse_rpq("RPQ p PATH (a").is_err());
        assert!(parse_rpq("RPQ p PATH a{3,1}").is_err());
        assert!(parse_rpq("RPQ p PATH a ] b").is_err());
        assert!(parse_rpq("RPQ p WINDOW 5fortnights PATH a").is_err());
    }

    #[test]
    fn concatenation_and_alternation() {
        let d = dfa("RPQ p PATH a b | c");
        assert!(d.accepts(["a", "b"]));
        assert!(d.accepts(["c"]));
        assert!(!d.accepts(["a"]));
        assert!(!d.accepts(["a", "c"]));
        assert!(!d.accepts(["b"]));
    }

    #[test]
    fn star_plus_optional() {
        let d = dfa("RPQ p PATH a b* c? d+");
        assert!(d.accepts(["a", "d"]));
        assert!(d.accepts(["a", "b", "b", "c", "d", "d"]));
        assert!(d.accepts(["a", "c", "d"]));
        assert!(!d.accepts(["a"]));
        assert!(!d.accepts(["a", "c", "c", "d"]));
    }

    #[test]
    fn bounded_repetition() {
        let d = dfa("RPQ p PATH a{2,4}");
        assert!(!d.accepts(["a"]));
        assert!(d.accepts(["a", "a"]));
        assert!(d.accepts(["a", "a", "a", "a"]));
        assert!(!d.accepts(["a", "a", "a", "a", "a"]));

        let open = dfa("RPQ p PATH a{3,}");
        assert!(!open.accepts(["a", "a"]));
        assert!(open.accepts(["a", "a", "a"]));
        assert!(open.accepts(vec!["a"; 10]));

        let exact = dfa("RPQ p PATH a{3}");
        assert!(exact.accepts(["a", "a", "a"]));
        assert!(!exact.accepts(["a", "a"]));
        assert!(!exact.accepts(["a", "a", "a", "a"]));
    }

    #[test]
    fn unknown_labels_never_accept() {
        let d = dfa("RPQ p PATH a+");
        assert!(!d.accepts(["z"]));
        assert!(!d.accepts(["a", "z"]));
    }

    #[test]
    fn minimization_merges_equivalent_states() {
        // (a|b)(a|b) and the expanded alternation compile to the same DFA
        // shape: 3 live states.
        let d = dfa("RPQ p PATH (a | b)(a | b)");
        assert_eq!(d.state_count(), 3);
        let e = dfa("RPQ p PATH a a | a b | b a | b b");
        assert_eq!(e.state_count(), 3);
    }

    #[test]
    fn minimization_handles_star_loops() {
        let d = dfa("RPQ p PATH a (b a)*");
        // The start state and the after-b state both accept exactly
        // `a (b a)*`, so minimization merges them: 2 live states.
        assert_eq!(d.state_count(), 2);
        assert!(d.accepts(["a"]));
        assert!(d.accepts(["a", "b", "a", "b", "a"]));
        assert!(!d.accepts(["a", "b"]));
    }

    #[test]
    fn start_symbols_reflect_rootable_labels() {
        let d = dfa("RPQ p PATH (login | dns) flow*");
        let starts: Vec<&str> = d
            .start_symbols()
            .into_iter()
            .map(|s| d.labels()[s as usize].as_str())
            .collect();
        assert_eq!(starts, vec!["login", "dns"]);
    }

    #[test]
    fn dfa_round_trips_through_serde() {
        let q = parse_rpq("RPQ p WINDOW 10s PATH a (b | c)+ d?").unwrap();
        let json = serde_json::to_string(&q).unwrap();
        let back: RpqQuery = serde_json::from_str(&json).unwrap();
        assert_eq!(q, back);
        assert_eq!(q.compile(), back.compile());
    }

    #[test]
    fn the_reversed_pattern_accepts_exactly_the_reversed_words() {
        // One pattern per operator, plus nestings that reverse a
        // concatenation inside a repetition and inside an alternation.
        let patterns = [
            "a",
            "a b c",
            "a | b c",
            "a b* c",
            "(a b)+ c",
            "a (b c)? a",
            "(a b){2,3}",
            "a (b | c a){1,}",
            "(a (b | c)*)+ b",
        ];
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for text in patterns {
            let q = parse_rpq(&format!("RPQ p PATH {text}")).unwrap();
            let (forward, backward) = (q.compile(), RpqDfa::compile(&q.pattern().reversed()));
            let mut accepted = 0;
            for _ in 0..3_000 {
                let len = next(9) as usize;
                let word: Vec<&str> = (0..len)
                    .map(|_| ["a", "b", "c"][next(3) as usize])
                    .collect();
                let back: Vec<&str> = word.iter().rev().copied().collect();
                let yes = forward.accepts(word.iter().copied());
                assert_eq!(yes, backward.accepts(back), "`{text}` on {word:?}");
                accepted += yes as usize;
            }
            assert!(accepted > 0, "`{text}`: no random word was accepted");
            assert_eq!(q.pattern().reversed().reversed(), *q.pattern());
        }
    }

    #[test]
    fn display_round_trips() {
        let q = parse_rpq("RPQ p PATH login (flow | dns)* exploit{1,2}").unwrap();
        let rendered = format!("RPQ p PATH {}", q.pattern());
        let reparsed = parse_rpq(&rendered).unwrap();
        assert_eq!(q.compile(), reparsed.compile());
    }
}
