//! N-Triples I/O.
//!
//! The paper's knowledge graph is assembled from public RDF dumps
//! (UniProt RDF, ChEMBL-RDF, Bio2RDF, …) — all distributed as N-Triples /
//! Turtle-family serializations. This module gives the store a standard
//! ingest/dump format: a line-oriented N-Triples subset covering IRIs
//! (`<…>`), plain string literals (`"…"` with the usual escapes), and
//! typed numeric literals (`"42"^^xsd:integer`, `"1.5"^^xsd:double`).
//! Blank nodes are mapped to IRIs under the `_:` prefix.

use crate::dict::Dictionary;
use crate::term::Term;
use crate::triple::Triple;

/// Parse error with line context.
#[derive(Debug, Clone, PartialEq)]
pub struct NtError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for NtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "N-Triples error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for NtError {}

/// Escape a literal per N-Triples rules.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out
}

/// Serialize one term.
pub fn write_term(t: &Term) -> String {
    match t {
        Term::Iri(s) => format!("<{s}>"),
        Term::Str(s) => format!("\"{}\"", escape(s)),
        Term::Int(i) => format!("\"{i}\"^^<http://www.w3.org/2001/XMLSchema#integer>"),
        Term::FloatBits(b) => {
            format!("\"{}\"^^<http://www.w3.org/2001/XMLSchema#double>", f64::from_bits(*b))
        }
    }
}

/// Serialize decoded triples as N-Triples text; `None` if a triple holds
/// an id `dict` never minted.
pub fn write_ntriples<'a>(
    triples: impl IntoIterator<Item = &'a Triple>,
    dict: &Dictionary,
) -> Option<String> {
    let mut out = String::new();
    for t in triples {
        let (s, p, o) = (dict.decode(t.s)?, dict.decode(t.p)?, dict.decode(t.o)?);
        out.push_str(&write_term(&s));
        out.push(' ');
        out.push_str(&write_term(&p));
        out.push(' ');
        out.push_str(&write_term(&o));
        out.push_str(" .\n");
    }
    Some(out)
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, message: impl Into<String>) -> NtError {
        NtError { line: self.line, message: message.into() }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && (self.bytes[self.pos] == b' ' || self.bytes[self.pos] == b'\t')
        {
            self.pos += 1;
        }
    }

    fn term(&mut self) -> Result<Term, NtError> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'<') => {
                let start = self.pos + 1;
                let end = self.bytes[start..]
                    .iter()
                    .position(|&b| b == b'>')
                    .ok_or_else(|| self.err("unterminated IRI"))?;
                let iri = std::str::from_utf8(&self.bytes[start..start + end])
                    .map_err(|_| self.err("non-UTF8 IRI"))?;
                self.pos = start + end + 1;
                Ok(Term::iri(iri))
            }
            Some(b'_') => {
                // Blank node: _:label → IRI under the _: prefix.
                let start = self.pos;
                while self.pos < self.bytes.len()
                    && !self.bytes[self.pos].is_ascii_whitespace()
                    && self.bytes[self.pos] != b'.'
                {
                    self.pos += 1;
                }
                let label = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("non-UTF8 blank node"))?;
                Ok(Term::iri(label))
            }
            Some(b'"') => {
                self.pos += 1;
                let mut s = String::new();
                loop {
                    match self.bytes.get(self.pos) {
                        None => return Err(self.err("unterminated literal")),
                        Some(b'"') => {
                            self.pos += 1;
                            break;
                        }
                        Some(b'\\') => {
                            let esc = self.bytes.get(self.pos + 1).copied();
                            match esc {
                                Some(b'"') => s.push('"'),
                                Some(b'\\') => s.push('\\'),
                                Some(b'n') => s.push('\n'),
                                Some(b'r') => s.push('\r'),
                                Some(b't') => s.push('\t'),
                                other => {
                                    return Err(self
                                        .err(format!("bad escape {:?}", other.map(|b| b as char))))
                                }
                            }
                            self.pos += 2;
                        }
                        Some(&c) => {
                            // Literal bytes pass through (UTF-8 continuation
                            // bytes included).
                            s.push(c as char);
                            self.pos += 1;
                        }
                    }
                }
                // Optional datatype or language tag.
                if self.bytes.get(self.pos) == Some(&b'^')
                    && self.bytes.get(self.pos + 1) == Some(&b'^')
                {
                    self.pos += 2;
                    let dt = self.term()?;
                    let dt_iri = dt.as_str().unwrap_or("");
                    if dt_iri.ends_with("integer")
                        || dt_iri.ends_with("int")
                        || dt_iri.ends_with("long")
                    {
                        let v: i64 =
                            s.parse().map_err(|e| self.err(format!("bad integer literal: {e}")))?;
                        return Ok(Term::Int(v));
                    }
                    if dt_iri.ends_with("double")
                        || dt_iri.ends_with("float")
                        || dt_iri.ends_with("decimal")
                    {
                        let v: f64 =
                            s.parse().map_err(|e| self.err(format!("bad double literal: {e}")))?;
                        return Ok(Term::float(v));
                    }
                    // Unknown datatype: keep the lexical form.
                    return Ok(Term::str(s));
                }
                if self.bytes.get(self.pos) == Some(&b'@') {
                    // Language tag: consume and drop.
                    while self.pos < self.bytes.len() && !self.bytes[self.pos].is_ascii_whitespace()
                    {
                        self.pos += 1;
                    }
                }
                Ok(Term::str(s))
            }
            other => Err(self.err(format!("expected term, found {:?}", other.map(|&b| b as char)))),
        }
    }
}

/// Parse N-Triples text, interning via `dict`. Returns encoded triples.
/// Comment lines (`#`) and blank lines are skipped.
pub fn parse_ntriples(text: &str, dict: &Dictionary) -> Result<Vec<Triple>, NtError> {
    let mut out = Vec::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut cur = Cursor { bytes: line.as_bytes(), pos: 0, line: ln + 1 };
        let s = cur.term()?;
        let p = cur.term()?;
        let o = cur.term()?;
        cur.skip_ws();
        if cur.bytes.get(cur.pos) != Some(&b'.') {
            return Err(cur.err("expected terminating '.'"));
        }
        if !s.is_iri() {
            return Err(cur.err("subject must be an IRI or blank node"));
        }
        if !p.is_iri() {
            return Err(cur.err("predicate must be an IRI"));
        }
        out.push(Triple::new(dict.encode(&s), dict.encode(&p), dict.encode(&o)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::TermId;

    #[test]
    fn parse_basic_triples() {
        let dict = Dictionary::new();
        let text = r#"
# a comment
<up:P29274> <rdf:type> <up:Protein> .
<up:P29274> <up:name> "Adenosine receptor A2a" .
<up:P29274> <up:length> "412"^^<http://www.w3.org/2001/XMLSchema#integer> .
<up:P29274> <up:mass> "44.7"^^<http://www.w3.org/2001/XMLSchema#double> .
"#;
        let triples = parse_ntriples(text, &dict).unwrap();
        assert_eq!(triples.len(), 4);
        assert_eq!(dict.decode(triples[2].o), Some(Term::Int(412)));
        assert_eq!(dict.decode(triples[3].o), Some(Term::float(44.7)));
        assert_eq!(dict.decode(triples[1].o), Some(Term::str("Adenosine receptor A2a")));
    }

    #[test]
    fn escapes_round_trip() {
        let dict = Dictionary::new();
        let original = Term::str("line1\nline2 \"quoted\" back\\slash\ttab");
        let line = format!("<s> <p> {} .", write_term(&original));
        let triples = parse_ntriples(&line, &dict).unwrap();
        assert_eq!(dict.decode(triples[0].o), Some(original));
    }

    #[test]
    fn full_round_trip() {
        let dict = Dictionary::new();
        let text = "<a> <b> <c> .\n<a> <n> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";
        let triples = parse_ntriples(text, &dict).unwrap();
        let written = write_ntriples(&triples, &dict).unwrap();
        let reparsed = parse_ntriples(&written, &dict).unwrap();
        assert_eq!(triples, reparsed);
    }

    #[test]
    fn writing_an_id_the_dictionary_never_minted_is_refused() {
        let dict = Dictionary::new();
        let triples = parse_ntriples("<a> <b> <c> .", &dict).unwrap();
        let unknown = TermId(triples[0].o.raw() + 1_000);
        for t in [
            Triple::new(unknown, triples[0].p, triples[0].o),
            Triple::new(triples[0].s, unknown, triples[0].o),
            Triple::new(triples[0].s, triples[0].p, unknown),
        ] {
            assert_eq!(write_ntriples(&[triples[0], t], &dict), None);
        }
        assert_eq!(write_ntriples(&[], &dict), Some(String::new()));
    }

    #[test]
    fn blank_nodes_become_prefixed_iris() {
        let dict = Dictionary::new();
        let triples = parse_ntriples("_:b0 <p> _:b1 .", &dict).unwrap();
        assert_eq!(dict.decode(triples[0].s), Some(Term::iri("_:b0")));
        assert_eq!(dict.decode(triples[0].o), Some(Term::iri("_:b1")));
    }

    #[test]
    fn language_tags_are_dropped_to_plain_strings() {
        let dict = Dictionary::new();
        let triples = parse_ntriples("<s> <p> \"hello\"@en .", &dict).unwrap();
        assert_eq!(dict.decode(triples[0].o), Some(Term::str("hello")));
    }

    #[test]
    fn unknown_datatype_keeps_lexical_form() {
        let dict = Dictionary::new();
        let triples = parse_ntriples("<s> <p> \"P1Y\"^^<xsd:duration> .", &dict).unwrap();
        assert_eq!(dict.decode(triples[0].o), Some(Term::str("P1Y")));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let dict = Dictionary::new();
        let err = parse_ntriples("<a> <b> <c> .\n<a> <b> .", &dict).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(parse_ntriples("<a> <b> <c>", &dict).is_err(), "missing dot");
        assert!(parse_ntriples("\"lit\" <b> <c> .", &dict).is_err(), "literal subject");
        assert!(parse_ntriples("<a> \"lit\" <c> .", &dict).is_err(), "literal predicate");
        assert!(parse_ntriples("<a> <b> \"unterminated .", &dict).is_err());
        assert!(parse_ntriples("<a> <b> \"x\"^^<xsd:integer> .", &dict).is_err(), "bad int");
    }
}
