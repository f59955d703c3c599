//! Plain-text edge-list serialization.
//!
//! The format is line-oriented: the first non-comment line is `n m`, then
//! one `u v` pair per line. Lines starting with `#` are comments.

use crate::graph::{Graph, GraphError, NodeId};
use std::fmt::Write as _;

/// Error returned by [`parse_edge_list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The header line `n m` is missing or malformed, or declares more
    /// nodes than a [`NodeId`] can address.
    BadHeader(String),
    /// An edge line could not be parsed.
    BadEdge { line: usize, text: String },
    /// The declared edge count does not match the body.
    CountMismatch { declared: usize, found: usize },
    /// The edges do not form a valid simple graph.
    Graph(GraphError),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadHeader(s) => write!(f, "bad header line: {s:?}"),
            ParseError::BadEdge { line, text } => write!(f, "bad edge on line {line}: {text:?}"),
            ParseError::CountMismatch { declared, found } => {
                write!(f, "header declared {declared} edges but body has {found}")
            }
            ParseError::Graph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<GraphError> for ParseError {
    fn from(e: GraphError) -> Self {
        ParseError::Graph(e)
    }
}

/// Serializes a graph to the edge-list format.
pub fn to_edge_list(g: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} {}", g.n(), g.m());
    for (u, v) in g.edges() {
        let _ = writeln!(out, "{u} {v}");
    }
    out
}

/// Parses a graph from the edge-list format.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first malformed line, count
/// mismatch, or graph-validity violation.
pub fn parse_edge_list(text: &str) -> Result<Graph, ParseError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
    let (_, header) = lines.next().ok_or_else(|| ParseError::BadHeader(String::new()))?;
    let mut it = header.split_whitespace();
    let n: usize = it
        .next()
        .and_then(|t| t.parse().ok())
        .filter(|&n: &usize| n as u64 <= u64::from(NodeId::MAX) + 1)
        .ok_or_else(|| ParseError::BadHeader(header.to_string()))?;
    let m: usize = it
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| ParseError::BadHeader(header.to_string()))?;
    // Nothing is reserved from the header: `m` is checked against the
    // body only after the body is read.
    let mut edges = Vec::new();
    for (lineno, l) in lines {
        let mut it = l.split_whitespace();
        let parse = |t: Option<&str>| t.and_then(|t| t.parse::<NodeId>().ok());
        match (parse(it.next()), parse(it.next())) {
            (Some(u), Some(v)) => edges.push((u, v)),
            _ => return Err(ParseError::BadEdge { line: lineno, text: l.to_string() }),
        }
    }
    if edges.len() != m {
        return Err(ParseError::CountMismatch { declared: m, found: edges.len() });
    }
    Ok(Graph::from_edges(n, &edges)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn roundtrip() {
        let g = generators::cycle(6);
        let text = to_edge_list(&g);
        let h = parse_edge_list(&text).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let g = parse_edge_list("# a comment\n\n3 2\n0 1\n# another\n1 2\n").unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn error_cases() {
        assert!(matches!(parse_edge_list(""), Err(ParseError::BadHeader(_))));
        assert!(matches!(parse_edge_list("x y"), Err(ParseError::BadHeader(_))));
        assert!(matches!(
            parse_edge_list("2 1\n0 x"),
            Err(ParseError::BadEdge { line: 2, .. })
        ));
        assert!(matches!(
            parse_edge_list("2 2\n0 1"),
            Err(ParseError::CountMismatch { declared: 2, found: 1 })
        ));
        assert!(matches!(parse_edge_list("2 1\n0 0"), Err(ParseError::Graph(_))));
        // Oversized headers are errors, not allocations.
        assert!(matches!(
            parse_edge_list("1 99999999999999999"),
            Err(ParseError::CountMismatch { declared: 99_999_999_999_999_999, found: 0 })
        ));
        assert!(matches!(
            parse_edge_list("1 2305843009213693951"),
            Err(ParseError::CountMismatch { found: 0, .. })
        ));
        assert!(matches!(parse_edge_list("5000000000 0"), Err(ParseError::BadHeader(_))));
    }
}
