//! OPB (pseudo-Boolean competition format) and DIMACS CNF serialization.
//!
//! The OPB dialect written here is the one accepted by PBS-class solvers:
//! an optional `min:` objective line, followed by one constraint per line,
//! `<coeff> <lit> ... >= <rhs> ;` with literals written `x3` / `~x3`.
//! CNF clauses are emitted as cardinality-1 constraints. A matching parser
//! is provided so formulas round-trip.

use crate::{Lit, Objective, PbConstraint, PbFormula, Var};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

impl PbFormula {
    /// Serializes the formula in OPB format.
    ///
    /// # Example
    ///
    /// ```
    /// use sbgc_formula::PbFormula;
    /// let mut f = PbFormula::new();
    /// let a = f.new_var().positive();
    /// f.add_unit(a);
    /// let text = f.to_opb();
    /// assert!(text.contains("+1 x1 >= 1 ;"));
    /// ```
    pub fn to_opb(&self) -> String {
        let stats = self.stats();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "* #variable= {} #constraint= {}",
            stats.vars,
            stats.clauses + stats.pb_constraints()
        );
        if let Some(obj) = self.objective() {
            out.push_str("min:");
            for &(c, l) in obj.terms() {
                let _ = write!(out, " +{c} {}", opb_lit(l));
            }
            out.push_str(" ;\n");
        }
        for clause in self.clauses() {
            for &l in clause {
                let _ = write!(out, "+1 {} ", opb_lit(l));
            }
            out.push_str(">= 1 ;\n");
        }
        for pb in self.pb_constraints() {
            for &(a, l) in pb.terms() {
                let _ = write!(out, "+{a} {} ", opb_lit(l));
            }
            let _ = writeln!(out, ">= {} ;", pb.rhs());
        }
        out
    }

    /// Serializes the formula in DIMACS CNF format.
    ///
    /// # Errors
    ///
    /// Returns an error string if the formula contains PB constraints or an
    /// objective (which DIMACS CNF cannot express).
    pub fn to_dimacs_cnf(&self) -> Result<String, String> {
        if !self.is_pure_cnf() {
            return Err("formula has PB constraints; DIMACS CNF cannot express them".into());
        }
        if self.objective().is_some() {
            return Err("formula has an objective; DIMACS CNF cannot express it".into());
        }
        let mut out = String::new();
        let _ = writeln!(out, "p cnf {} {}", self.num_vars(), self.clauses().len());
        for clause in self.clauses() {
            for &l in clause {
                let _ = write!(out, "{} ", l.to_dimacs());
            }
            out.push_str("0\n");
        }
        Ok(out)
    }
}

fn opb_lit(l: Lit) -> String {
    if l.is_negated() {
        format!("~x{}", l.var().index() + 1)
    } else {
        format!("x{}", l.var().index() + 1)
    }
}

/// Largest variable count a parsed header may declare. Declared counts
/// size downstream solver arrays, so an absurd header (`p cnf 99999999999
/// 1`) must be a parse error rather than an out-of-memory abort. 10⁸ is
/// two orders of magnitude above the largest DIMACS coloring benchmarks
/// and comfortably inside the `u32` variable index space.
pub const MAX_DECLARED_VARS: usize = 100_000_000;

/// Parses a DIMACS CNF document into a (pure-CNF) formula.
///
/// # Errors
///
/// Returns a [`ParseOpbError`]-style message with the offending line on
/// malformed input (missing/duplicate `p cnf` line, literals out of range,
/// clause not terminated by `0`).
///
/// # Example
///
/// ```
/// let f = sbgc_formula::parse_dimacs_cnf("p cnf 2 1\n1 -2 0\n")?;
/// assert_eq!(f.num_vars(), 2);
/// assert_eq!(f.clauses().len(), 1);
/// # Ok::<(), sbgc_formula::ParseOpbError>(())
/// ```
pub fn parse_dimacs_cnf(text: &str) -> Result<PbFormula, ParseOpbError> {
    let mut formula: Option<PbFormula> = None;
    let mut declared_vars = 0usize;
    let mut current: Vec<Lit> = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') || line.starts_with('%') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("p ") {
            if formula.is_some() {
                return Err(ParseOpbError::new(lineno, "duplicate problem line"));
            }
            let mut tok = rest.split_whitespace();
            if tok.next() != Some("cnf") {
                return Err(ParseOpbError::new(lineno, "expected `p cnf`"));
            }
            declared_vars = tok
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| ParseOpbError::new(lineno, "bad variable count"))?;
            if declared_vars > MAX_DECLARED_VARS {
                return Err(ParseOpbError::new(
                    lineno,
                    format!("declared variable count {declared_vars} exceeds {MAX_DECLARED_VARS}"),
                ));
            }
            formula = Some(PbFormula::with_vars(declared_vars));
            continue;
        }
        let f = formula
            .as_mut()
            .ok_or_else(|| ParseOpbError::new(lineno, "clause before problem line"))?;
        for tok in line.split_whitespace() {
            let d: i64 = tok
                .parse()
                .map_err(|_| ParseOpbError::new(lineno, format!("bad literal `{tok}`")))?;
            if d == 0 {
                f.add_clause(current.drain(..));
            } else {
                if d.unsigned_abs() as usize > declared_vars {
                    return Err(ParseOpbError::new(
                        lineno,
                        format!("literal {d} exceeds declared variable count"),
                    ));
                }
                current.push(Lit::from_dimacs(d));
            }
        }
    }
    let mut f = formula.ok_or_else(|| ParseOpbError::new(0, "missing problem line"))?;
    if !current.is_empty() {
        f.add_clause(current);
    }
    Ok(f)
}

/// Error produced by [`parse_opb`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseOpbError {
    line: usize,
    message: String,
}

impl ParseOpbError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseOpbError { line, message: message.into() }
    }

    /// 1-based line number of the offending input line.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseOpbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OPB parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for ParseOpbError {}

/// Parses an OPB document produced by [`PbFormula::to_opb`] (or any
/// conforming writer using `>=`, `<=` or `=` comparisons).
///
/// # Errors
///
/// Returns a [`ParseOpbError`] carrying the offending line number on
/// malformed input.
pub fn parse_opb(text: &str) -> Result<PbFormula, ParseOpbError> {
    let mut formula = PbFormula::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('*') {
            // Honor the standard `* #variable= N ...` header so formulas
            // with trailing unconstrained variables round-trip.
            if let Some(rest) = line.strip_prefix("* #variable=") {
                if let Some(n) =
                    rest.split_whitespace().next().and_then(|t| t.parse::<usize>().ok())
                {
                    if n > MAX_DECLARED_VARS {
                        return Err(ParseOpbError::new(
                            lineno,
                            format!("declared variable count {n} exceeds {MAX_DECLARED_VARS}"),
                        ));
                    }
                    if n > formula.num_vars() {
                        let grow = n - formula.num_vars();
                        let _ = formula.new_vars(grow);
                    }
                }
            }
            continue;
        }
        let line = line.strip_suffix(';').unwrap_or(line).trim();
        if let Some(rest) = line.strip_prefix("min:") {
            let terms = parse_terms(rest, lineno)?;
            formula.set_objective(Objective::minimize(
                terms.into_iter().map(|(c, l)| (c.unsigned_abs(), l)),
            ));
            continue;
        }
        // Split at the comparison operator.
        let (op, op_str) = if line.contains(">=") {
            (">=", ">=")
        } else if line.contains("<=") {
            ("<=", "<=")
        } else if line.contains('=') {
            ("=", "=")
        } else {
            return Err(ParseOpbError::new(lineno, "missing comparison operator"));
        };
        let mut parts = line.splitn(2, op_str);
        let lhs = parts.next().unwrap_or("");
        let rhs_str = parts
            .next()
            .ok_or_else(|| ParseOpbError::new(lineno, "missing right-hand side"))?
            .trim();
        let rhs: i64 = rhs_str
            .parse()
            .map_err(|_| ParseOpbError::new(lineno, format!("bad rhs `{rhs_str}`")))?;
        let terms = parse_terms(lhs, lineno)?;
        match op {
            ">=" => formula.add_pb(PbConstraint::at_least(terms, rhs)),
            "<=" => formula.add_pb(PbConstraint::at_most(terms, rhs)),
            _ => {
                let (ge, le) = PbConstraint::equal(terms, rhs);
                formula.add_pb(ge);
                formula.add_pb(le);
            }
        }
    }
    Ok(formula)
}

fn parse_terms(text: &str, lineno: usize) -> Result<Vec<(i64, Lit)>, ParseOpbError> {
    let tokens: Vec<&str> = text.split_whitespace().collect();
    if !tokens.len().is_multiple_of(2) {
        return Err(ParseOpbError::new(lineno, "odd number of tokens in linear term list"));
    }
    let mut terms = Vec::with_capacity(tokens.len() / 2);
    for pair in tokens.chunks(2) {
        let coeff: i64 = pair[0]
            .parse()
            .map_err(|_| ParseOpbError::new(lineno, format!("bad coefficient `{}`", pair[0])))?;
        let lit = parse_lit(pair[1])
            .ok_or_else(|| ParseOpbError::new(lineno, format!("bad literal `{}`", pair[1])))?;
        terms.push((coeff, lit));
    }
    Ok(terms)
}

fn parse_lit(token: &str) -> Option<Lit> {
    let (negated, rest) = match token.strip_prefix('~') {
        Some(r) => (true, r),
        None => (false, token),
    };
    let idx: usize = rest.strip_prefix('x')?.parse().ok()?;
    // `Var::from_index` panics past the u32 index space; a hostile token
    // like `x99999999999` must be a parse error, not a crash.
    if idx == 0 || idx > MAX_DECLARED_VARS {
        return None;
    }
    Some(Var::from_index(idx - 1).lit(negated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Assignment;

    #[test]
    fn opb_roundtrip_preserves_semantics() {
        let mut f = PbFormula::new();
        let lits: Vec<Lit> = f.new_vars(3).into_iter().map(Var::positive).collect();
        f.add_clause(lits.clone());
        f.add_exactly_one(&lits);
        f.set_objective(Objective::minimize([(1, lits[0]), (2, lits[1])]));
        let text = f.to_opb();
        let g = parse_opb(&text).expect("roundtrip parse");
        assert_eq!(g.num_vars(), 3);
        // Same satisfying set on all 8 assignments.
        for bits in 0..8u32 {
            let asg = Assignment::from_bools((0..3).map(|i| bits >> i & 1 == 1));
            assert_eq!(f.is_satisfied_by(&asg), g.is_satisfied_by(&asg), "bits={bits:03b}");
        }
        let o = g.objective().expect("objective survived");
        assert_eq!(o.terms().len(), 2);
    }

    #[test]
    fn dimacs_cnf_output() {
        let mut f = PbFormula::new();
        let a = f.new_var().positive();
        let b = f.new_var().positive();
        f.add_clause([a, !b]);
        let text = f.to_dimacs_cnf().expect("pure CNF");
        assert!(text.starts_with("p cnf 2 1"));
        assert!(text.contains("1 -2 0"));
    }

    #[test]
    fn dimacs_cnf_rejects_pb() {
        let mut f = PbFormula::new();
        let lits: Vec<Lit> = f.new_vars(2).into_iter().map(Var::positive).collect();
        f.add_at_most_one(&lits);
        assert!(f.to_dimacs_cnf().is_err());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_opb("+1 x1 >= banana ;").unwrap_err();
        assert_eq!(err.line(), 1);
        let err = parse_opb("* comment\n+1 y9 >= 1 ;").unwrap_err();
        assert_eq!(err.line(), 2);
    }

    #[test]
    fn dimacs_cnf_roundtrip() {
        let mut f = PbFormula::new();
        let a = f.new_var().positive();
        let b = f.new_var().positive();
        f.add_clause([a, !b]);
        f.add_clause([b]);
        let text = f.to_dimacs_cnf().expect("pure CNF");
        let g = parse_dimacs_cnf(&text).expect("roundtrip");
        assert_eq!(g.num_vars(), 2);
        assert_eq!(g.clauses().len(), 2);
        for bits in 0..4u32 {
            let asg = Assignment::from_bools((0..2).map(|i| bits >> i & 1 == 1));
            assert_eq!(f.is_satisfied_by(&asg), g.is_satisfied_by(&asg));
        }
    }

    #[test]
    fn dimacs_cnf_parser_errors() {
        assert!(parse_dimacs_cnf("1 2 0\n").is_err()); // clause before p
        assert!(parse_dimacs_cnf("p cnf 1 1\n5 0\n").is_err()); // out of range
        assert!(parse_dimacs_cnf("p sat 2 1\n").is_err()); // wrong format
        assert!(parse_dimacs_cnf("c nothing\n").is_err()); // missing p line
    }

    #[test]
    fn dimacs_cnf_multiline_clause_and_trailing() {
        let f = parse_dimacs_cnf("p cnf 3 2\n1 2\n3 0 -1\n").expect("parse");
        // First clause spans lines (1 2 3 0); trailing unterminated (-1).
        assert_eq!(f.clauses().len(), 2);
        assert_eq!(f.clauses()[0].len(), 3);
        assert_eq!(f.clauses()[1].len(), 1);
    }

    #[test]
    fn hostile_inputs_error_instead_of_crashing() {
        // A literal index past the u32 variable space must not panic.
        let err = parse_opb("+1 x99999999999 >= 1 ;").unwrap_err();
        assert_eq!(err.line(), 1);
        // Absurd declared counts must not trigger giant allocations.
        assert!(parse_opb("* #variable= 99999999999 #constraint= 1\n").is_err());
        assert!(parse_dimacs_cnf("p cnf 99999999999 1\n").is_err());
        // A sane header still grows the formula.
        let f = parse_opb("* #variable= 7 #constraint= 0\n").expect("parse");
        assert_eq!(f.num_vars(), 7);
    }

    #[test]
    fn undeclared_constraint_vars_grow_the_formula() {
        // No header at all: the formula must still cover every literal a
        // constraint mentions, or downstream solvers index out of range.
        let f = parse_opb("+1 x5 +1 ~x2 >= 1 ;").expect("parse");
        assert_eq!(f.num_vars(), 5);
    }

    #[test]
    fn parses_le_and_eq() {
        let f = parse_opb("+1 x1 +1 x2 <= 1 ;\n+1 x1 +1 x2 = 1 ;").expect("parse");
        assert_eq!(f.pb_constraints().len(), 3); // <= is 1, = is 2
    }
}
