//! DRAT proof representation and logging sinks.
//!
//! A DRAT proof is a sequence of clause *additions* (each a RUP or RAT
//! consequence of the formula plus the earlier additions) and clause
//! *deletions*, ending — for a refutation — in the empty clause. Solvers
//! emit steps through the [`ProofLogger`] trait; the independent checker in
//! [`crate::checker`] replays them against the original formula.
//!
//! An addition may carry a *hint chain* (LRAT-style; Cruz-Filipe, Heule,
//! Hunt, Kaufmann, Schneider-Kamp, CADE 2017): the IDs of the clauses its
//! derivation resolved on. Clause IDs count the formula first and the
//! additions after it — formula clause `i` has ID `i`, and the `j`-th
//! addition (0-based, deletions not counted) has ID `formula.len() + j`.
//! Hints are advisory: the checker tries them first and falls back to
//! search, so they speed checking up but never change a verdict. The
//! textual DRAT format carries no hints.

use sbgc_formula::Lit;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};

/// One step of a DRAT proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofStep {
    /// Addition of a clause derived by the solver (learned clause,
    /// root-simplified clause, or the final empty clause).
    Add(Vec<Lit>),
    /// Deletion of a clause no longer needed (database reduction).
    Delete(Vec<Lit>),
}

/// An in-memory DRAT proof: the ordered list of additions and deletions a
/// solver emitted while refuting a formula, with each addition's hint
/// chain.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DratProof {
    steps: Vec<ProofStep>,
    /// The additions' hint chains back to back, so a proof pays 4 bytes
    /// per hint and no allocation per step.
    hints: Vec<u32>,
    /// `hint_ends[j]` is where addition `j`'s chain ends in `hints`; it
    /// starts where addition `j − 1`'s ends (at 0 for the first).
    hint_ends: Vec<u32>,
}

impl DratProof {
    /// Creates an empty proof.
    pub fn new() -> Self {
        DratProof::default()
    }

    /// Appends a clause addition with its hint chain (see the
    /// [crate docs](crate) for the ID numbering; pass `&[]` for none).
    pub fn push_add(&mut self, lits: &[Lit], hints: &[u32]) {
        let start = self.hints.len();
        let end = match u32::try_from(start + hints.len()) {
            Ok(end) => {
                self.hints.extend_from_slice(hints);
                end
            }
            // A chain past the 32-bit arena offsets is dropped: hints are
            // advisory, so the checker searches for this lemma instead.
            Err(_) => start as u32,
        };
        self.hint_ends.push(end);
        self.steps.push(ProofStep::Add(lits.to_vec()));
    }

    /// Appends a clause deletion.
    pub fn push_delete(&mut self, lits: &[Lit]) {
        self.steps.push(ProofStep::Delete(lits.to_vec()));
    }

    /// The recorded steps, in emission order.
    pub fn steps(&self) -> &[ProofStep] {
        &self.steps
    }

    /// Total number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` when no steps were recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The hint chain of addition number `add` (0-based, deletions not
    /// counted); empty when it was logged without one.
    ///
    /// # Panics
    ///
    /// Panics if `add >= self.num_adds()`.
    pub fn hints(&self, add: usize) -> &[u32] {
        let start = if add == 0 { 0 } else { self.hint_ends[add - 1] as usize };
        &self.hints[start..self.hint_ends[add] as usize]
    }

    /// Number of addition steps.
    pub fn num_adds(&self) -> usize {
        self.hint_ends.len()
    }

    /// Number of deletion steps.
    pub fn num_deletes(&self) -> usize {
        self.steps.iter().filter(|s| matches!(s, ProofStep::Delete(_))).count()
    }

    /// Total literal count across all steps — the proof-size metric of the
    /// run reports.
    pub fn total_literals(&self) -> usize {
        self.steps
            .iter()
            .map(|s| match s {
                ProofStep::Add(lits) | ProofStep::Delete(lits) => lits.len(),
            })
            .sum()
    }

    /// Renders the proof in the standard textual DRAT format: one step per
    /// line, `d`-prefixed deletions, 1-based signed literals, `0`
    /// terminators. Hint chains are not written.
    pub fn to_dimacs(&self) -> String {
        let mut out = String::new();
        for step in &self.steps {
            let lits = match step {
                ProofStep::Add(lits) => lits,
                ProofStep::Delete(lits) => {
                    out.push_str("d ");
                    lits
                }
            };
            for l in lits {
                let _ = write!(out, "{} ", l.to_dimacs());
            }
            out.push_str("0\n");
        }
        out
    }

    /// Parses the textual DRAT format produced by [`DratProof::to_dimacs`]:
    /// one step per line, its literals ended by a `0` (comment lines
    /// starting with `c` are skipped). The additions carry no hints.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed input: a
    /// non-integer token, a missing `0` terminator, or any token after the
    /// terminator (a second step on the same line is refused, never
    /// dropped).
    pub fn from_dimacs(text: &str) -> Result<Self, String> {
        let mut proof = DratProof::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            let (delete, rest) = match line.strip_prefix('d') {
                Some(rest) => (true, rest),
                None => (false, line),
            };
            let mut lits = Vec::new();
            let mut tokens = rest.split_whitespace();
            let mut terminated = false;
            for tok in tokens.by_ref() {
                let n: i64 =
                    tok.parse().map_err(|_| format!("line {}: bad literal {tok:?}", lineno + 1))?;
                if n == 0 {
                    terminated = true;
                    break;
                }
                lits.push(Lit::from_dimacs(n));
            }
            if !terminated {
                return Err(format!("line {}: missing 0 terminator", lineno + 1));
            }
            if let Some(tok) = tokens.next() {
                return Err(format!("line {}: token {tok:?} after the 0 terminator", lineno + 1));
            }
            if delete {
                proof.push_delete(&lits);
            } else {
                proof.push_add(&lits, &[]);
            }
        }
        Ok(proof)
    }
}

/// Sink for DRAT steps emitted by a solver.
///
/// Implementations must be `Send`: portfolio workers carry their solvers
/// (and thus any attached logger) across threads.
///
/// A sink numbers the additions it receives 0, 1, 2, … and returns each
/// one's number from [`log_add`](ProofLogger::log_add). Checked against a
/// formula of `n` clauses, addition number `j` has clause ID `n + j` and
/// formula clause `i` has ID `i` — the IDs hint chains name. Because the
/// sink assigns the number, solvers that log into one shared sink (the
/// racing certifier's interleaved log) still name each other's additions
/// correctly.
pub trait ProofLogger: Send {
    /// Records the addition of a derived clause with its hint chain — the
    /// IDs of the clauses it resolved on, each unit (the last one
    /// falsified) under the clause's negation and the units before it —
    /// and returns the addition's number. Hints are advisory: a wrong or
    /// empty chain makes the checker search, never changes its verdict.
    fn log_add(&mut self, lits: &[Lit], hints: &[u32]) -> u32;
    /// Records the deletion of a clause.
    fn log_delete(&mut self, lits: &[Lit]);
}

impl ProofLogger for DratProof {
    fn log_add(&mut self, lits: &[Lit], hints: &[u32]) -> u32 {
        let number = u32::try_from(self.num_adds()).unwrap_or(u32::MAX);
        self.push_add(lits, hints);
        number
    }

    fn log_delete(&mut self, lits: &[Lit]) {
        self.push_delete(lits);
    }
}

/// A cloneable handle to an in-memory proof, for retrieving the steps after
/// the solver (which owns its logger as a `Box<dyn ProofLogger>`) is done.
///
/// # Example
///
/// ```
/// use sbgc_proof::{ProofLogger, SharedProof};
/// use sbgc_formula::Var;
///
/// let shared = SharedProof::new();
/// let mut sink: Box<dyn ProofLogger> = Box::new(shared.clone());
/// assert_eq!(sink.log_add(&[Var::from_index(0).positive()], &[]), 0);
/// assert_eq!(shared.take().num_adds(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct SharedProof {
    inner: Arc<Mutex<DratProof>>,
}

impl SharedProof {
    /// Creates a handle to a fresh empty proof.
    pub fn new() -> Self {
        SharedProof::default()
    }

    /// Takes the accumulated proof, leaving the shared buffer empty.
    ///
    /// Poison-tolerant: if a solver thread panicked while holding the
    /// lock, the steps logged so far are still recovered (a partial proof
    /// that the checker will honestly reject, rather than a second panic).
    pub fn take(&self) -> DratProof {
        std::mem::take(&mut self.inner.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Copies the accumulated proof without clearing it.
    pub fn snapshot(&self) -> DratProof {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }
}

impl ProofLogger for SharedProof {
    fn log_add(&mut self, lits: &[Lit], hints: &[u32]) -> u32 {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).log_add(lits, hints)
    }

    fn log_delete(&mut self, lits: &[Lit]) {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).push_delete(lits);
    }
}

/// Forwards clause additions and *suppresses deletions* — the logging
/// discipline for clause-sharing portfolio races.
///
/// When several workers log into one shared proof, additions compose
/// soundly: RUP is monotone in the clause database, so a clause derivable
/// from one worker's database is derivable from the union the checker
/// replays, and an importer's re-log of an exporter's clause is a
/// duplicate addition (trivially RUP — the pool mutex orders the
/// exporter's add before the importer's). Deletions do **not** compose: a
/// worker deleting a clause from *its* database would strip a clause that
/// a peer's later addition still resolves on, making a sound run fail the
/// check (or trip the checker's missing-deletion error for clauses the
/// log never saw added by *this* worker). Dropping deletions keeps the
/// merged log a valid, if larger, DRAT proof.
pub struct AddsOnlyProofLogger<L: ProofLogger> {
    inner: L,
}

impl<L: ProofLogger> AddsOnlyProofLogger<L> {
    /// Wraps a sink; only `log_add` calls reach it.
    pub fn new(inner: L) -> Self {
        AddsOnlyProofLogger { inner }
    }
}

impl<L: ProofLogger> ProofLogger for AddsOnlyProofLogger<L> {
    fn log_add(&mut self, lits: &[Lit], hints: &[u32]) -> u32 {
        self.inner.log_add(lits, hints)
    }

    fn log_delete(&mut self, _lits: &[Lit]) {}
}

/// Renders a clause list — a [`ClauseList`](sbgc_formula::ClauseList) or
/// a slice of literal vectors — in DIMACS CNF format (for dumping
/// certified formulas next to their `.drat` proofs).
pub fn dimacs_cnf<I, C>(num_vars: usize, clauses: I) -> String
where
    I: IntoIterator<Item = C>,
    I::IntoIter: ExactSizeIterator,
    C: AsRef<[Lit]>,
{
    let clauses = clauses.into_iter();
    let mut out = format!("p cnf {} {}\n", num_vars, clauses.len());
    for clause in clauses {
        for l in clause.as_ref() {
            let _ = write!(out, "{} ", l.to_dimacs());
        }
        out.push_str("0\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgc_formula::Var;

    fn lit(i: usize, neg: bool) -> Lit {
        Var::from_index(i).lit(neg)
    }

    #[test]
    fn dimacs_roundtrip() {
        let mut proof = DratProof::new();
        proof.push_add(&[lit(0, false), lit(1, true)], &[]);
        proof.push_delete(&[lit(1, true), lit(2, false)]);
        proof.push_add(&[], &[]);
        let text = proof.to_dimacs();
        assert_eq!(text, "1 -2 0\nd -2 3 0\n0\n");
        assert_eq!(DratProof::from_dimacs(&text).unwrap(), proof);
    }

    #[test]
    fn additions_are_numbered_and_keep_their_hints() {
        let mut proof = DratProof::new();
        assert_eq!(proof.log_add(&[lit(0, false)], &[3, 1]), 0);
        proof.push_delete(&[lit(0, false)]);
        proof.push_add(&[lit(1, false)], &[]);
        assert_eq!(proof.log_add(&[], &[7]), 2);
        assert_eq!(proof.num_adds(), 3);
        assert_eq!(
            (proof.hints(0), proof.hints(1), proof.hints(2)),
            (&[3, 1][..], &[][..], &[7][..])
        );
        // Text DRAT carries no hints, so a round trip drops them.
        let parsed = DratProof::from_dimacs(&proof.to_dimacs()).unwrap();
        assert_eq!(parsed.steps(), proof.steps());
        assert!((0..3).all(|j| parsed.hints(j).is_empty()));
    }

    #[test]
    fn from_dimacs_rejects_garbage() {
        assert!(DratProof::from_dimacs("1 x 0\n").is_err());
        assert!(DratProof::from_dimacs("1 2\n").is_err());
    }

    #[test]
    fn from_dimacs_skips_comments() {
        let proof = DratProof::from_dimacs("c hello\n1 0\n").unwrap();
        assert_eq!(proof.steps(), &[ProofStep::Add(vec![lit(0, false)])]);
    }

    #[test]
    fn size_metrics() {
        let mut proof = DratProof::new();
        proof.push_add(&[lit(0, false), lit(1, false)], &[]);
        proof.push_delete(&[lit(0, false)]);
        proof.push_add(&[], &[]);
        assert_eq!(proof.num_adds(), 2);
        assert_eq!(proof.num_deletes(), 1);
        assert_eq!(proof.total_literals(), 3);
        assert_eq!(proof.len(), 3);
        assert!(!proof.is_empty());
    }

    #[test]
    fn adds_only_logger_drops_deletions() {
        let shared = SharedProof::new();
        let mut sink = AddsOnlyProofLogger::new(shared.clone());
        sink.log_add(&[lit(0, false), lit(1, true)], &[]);
        sink.log_delete(&[lit(0, false), lit(1, true)]);
        sink.log_add(&[], &[]);
        let proof = shared.take();
        assert_eq!(proof.num_adds(), 2);
        assert_eq!(proof.num_deletes(), 0);
    }

    #[test]
    fn shared_proof_tolerates_poisoned_lock() {
        let shared = SharedProof::new();
        let mut h = shared.clone();
        h.log_add(&[lit(0, false)], &[]);
        // Poison the mutex from a panicking thread while it holds the lock.
        let arc = shared.inner.clone();
        let _ = std::thread::spawn(move || {
            let _guard = arc.lock().unwrap();
            panic!("poison");
        })
        .join();
        // All accessors must keep working on the recovered state.
        let mut h2 = shared.clone();
        h2.log_add(&[lit(1, false)], &[]);
        assert_eq!(shared.snapshot().num_adds(), 2);
        assert_eq!(shared.take().num_adds(), 2);
    }

    #[test]
    fn shared_proof_take_resets() {
        let shared = SharedProof::new();
        let mut h = shared.clone();
        h.log_add(&[lit(0, false)], &[]);
        assert_eq!(shared.snapshot().num_adds(), 1);
        assert_eq!(shared.take().num_adds(), 1);
        assert!(shared.take().is_empty());
    }

    #[test]
    fn dimacs_cnf_header() {
        let cnf = dimacs_cnf(3, &[vec![lit(0, false), lit(2, true)], vec![lit(1, false)]]);
        assert_eq!(cnf, "p cnf 3 2\n1 -3 0\n2 0\n");
    }

    #[test]
    fn dimacs_cnf_parses_back_to_the_same_formula() {
        // The archived .cnf must read back as the formula the proof refutes,
        // including a declared variable that no clause mentions.
        let clauses = vec![vec![lit(0, false), lit(2, true)], vec![lit(1, true)], vec![]];
        let formula = sbgc_formula::parse_dimacs_cnf(&dimacs_cnf(4, &clauses)).unwrap();
        assert_eq!(formula.num_vars(), 4);
        let parsed: Vec<Vec<Lit>> = formula.clauses().iter().map(<[Lit]>::to_vec).collect();
        assert_eq!(parsed, clauses);
    }

    #[test]
    fn shared_proof_clones_number_additions_in_one_sequence() {
        // Racing workers each hold a clone; the numbers they get back are
        // positions in the one merged log, so chains may name a peer's lemma.
        let shared = SharedProof::new();
        let (mut a, mut b) = (shared.clone(), shared.clone());
        assert_eq!(a.log_add(&[lit(0, false)], &[1]), 0);
        assert_eq!(b.log_add(&[lit(1, false)], &[]), 1);
        b.log_delete(&[lit(1, false)]);
        assert_eq!(a.log_add(&[], &[0, 1]), 2);
        let proof = shared.take();
        assert_eq!(proof.num_adds(), 3);
        assert_eq!(proof.num_deletes(), 1);
        assert_eq!(proof.hints(2), &[0, 1]);
        assert_eq!(proof.steps()[2], ProofStep::Delete(vec![lit(1, false)]));
    }

    #[test]
    fn adds_only_logger_forwards_numbers_and_hints() {
        // The wrapper returns the shared log's number, not a count of its
        // own, and passes the chain through untouched.
        let shared = SharedProof::new();
        let mut peer = shared.clone();
        peer.log_add(&[lit(0, false)], &[]);
        let mut sink = AddsOnlyProofLogger::new(shared.clone());
        assert_eq!(sink.log_add(&[lit(1, false)], &[4, 0]), 1);
        assert_eq!(shared.snapshot().hints(1), &[4, 0]);
    }

    #[test]
    fn from_dimacs_errors_name_the_line() {
        let bad_token = DratProof::from_dimacs("1 0\nc note\n2 -x 0\n").unwrap_err();
        assert!(bad_token.contains("line 3") && bad_token.contains("-x"), "{bad_token}");
        let unterminated = DratProof::from_dimacs("1 0\nd 1 2\n").unwrap_err();
        assert!(unterminated.contains("line 2: missing 0 terminator"), "{unterminated}");
    }

    #[test]
    fn from_dimacs_refuses_a_second_step_on_one_line() {
        let two_steps = DratProof::from_dimacs("1 0 2 0\n").unwrap_err();
        assert!(two_steps.contains("line 1: token \"2\" after the 0 terminator"), "{two_steps}");
        let trailing = DratProof::from_dimacs("c ok\nd 1 0 0\n").unwrap_err();
        assert!(trailing.contains("line 2"), "{trailing}");
    }
}
