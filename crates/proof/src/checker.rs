//! An independent forward RUP/DRAT proof checker.
//!
//! [`check_drat`] replays a [`DratProof`] against the original clause list
//! with its own watched-literal unit propagation — deliberately sharing no
//! code with the solvers in `sbgc-sat`/`sbgc-pb`, so a bug there cannot
//! silently vouch for itself here.
//!
//! The checker follows forward drat-trim semantics: root-level assignments
//! are persistent (a unit stays derived even if the clause that produced it
//! is later deleted), each added clause must be RUP — assuming its negation
//! and propagating must yield a conflict — with a RAT fallback on the first
//! literal for a refutation, and the proof is accepted once the database is
//! refuted at the root (the empty clause, or a unit addition whose
//! propagation conflicts).
//!
//! [`check_derivation`] generalizes the end condition to a *goal* clause:
//! the proof is accepted when the formula plus the replayed lemmas make the
//! goal RUP. A refutation is the goal `[]`, and [`check_drat`] is exactly
//! that case. A solver that answered UNSAT under assumptions `a₁ … aₘ`
//! logs lemmas after which the goal `¬a₁ ∨ … ∨ ¬aₘ` is RUP: its final trail
//! derived the negation of an assumption by unit propagation over clauses
//! the log holds.
//!
//! Only the empty goal admits RAT additions. A RAT lemma keeps the formula
//! satisfiable but not necessarily the formula together with the negated
//! goal: over `(a∨b)` the unit `[a]` is vacuously RAT, after which the goal
//! `[a]` is RUP although `a = false, b = true` is a model. With a non-empty
//! goal every addition must therefore be RUP, so each one is implied by the
//! formula and the derived goal is too.
//!
//! An addition's hint chain is tried before propagation: each hint must
//! name an active clause that is unit under the negated addition, the root
//! trail and the units the chain derived so far (a satisfied one is passed
//! over: it derives nothing), and the chain must reach a falsified clause.
//! That is a unit-propagation derivation of a conflict, so a chain that
//! closes proves RUP; one that does not — empty, naming a missing, later,
//! deleted or non-unit clause, or ending without a conflict — falls
//! through to the propagation and RAT checks. Hints thus speed checking up
//! without changing which proofs are accepted.

use crate::drat::{DratProof, ProofStep};
use sbgc_formula::Lit;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Statistics of a successful [`check_drat`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Total proof steps examined (additions + deletions).
    pub steps: usize,
    /// Addition steps verified.
    pub adds: usize,
    /// Deletion steps applied.
    pub deletes: usize,
    /// Additions verified by their hint chain alone.
    pub chained: usize,
    /// Additions that needed the propagation or RAT search: no hints, or
    /// a chain that did not close. `chained + searched == adds`.
    pub searched: usize,
    /// Literals assigned during checking (root and temporary).
    pub propagations: u64,
}

/// Why a proof was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// An added clause at `step` (0-based) is not RUP, nor RAT where the
    /// goal admits RAT (only the empty goal does).
    NotRup {
        /// Index of the offending proof step.
        step: usize,
    },
    /// A deletion at `step` names a clause not present in the database.
    MissingDeletion {
        /// Index of the offending proof step.
        step: usize,
    },
    /// A literal at `step` references a variable outside the formula.
    /// `step` is `None` when the literal is in the formula itself or in a
    /// [`check_derivation`] goal.
    OutOfRangeLit {
        /// Index of the offending proof step, if any.
        step: Option<usize>,
    },
    /// The proof ran out of steps without refuting the formula — or, for
    /// [`check_derivation`] with a non-empty goal, without refuting it
    /// under the goal's negation (the goal is not RUP).
    NotUnsat,
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::NotRup { step } => {
                write!(f, "proof step {step}: added clause is not RUP (nor RAT, in a refutation)")
            }
            CheckError::MissingDeletion { step } => {
                write!(f, "proof step {step}: deleted clause not in database")
            }
            CheckError::OutOfRangeLit { step: Some(step) } => {
                write!(f, "proof step {step}: literal out of range")
            }
            CheckError::OutOfRangeLit { step: None } => {
                write!(f, "formula literal out of range")
            }
            CheckError::NotUnsat => write!(f, "proof ends without refuting the formula"),
        }
    }
}

impl std::error::Error for CheckError {}

const UNDEF: i8 = 0;
const TRUE: i8 = 1;
const FALSE: i8 = -1;

/// End of a [`CheckedClause::same_key`] list.
const NO_CLAUSE: u32 = u32::MAX;

/// A database clause: its literals are `Checker::lits[start..start + len]`.
struct CheckedClause {
    start: usize,
    len: usize,
    active: bool,
    /// Root-satisfied and unit clauses are never attached to watch lists;
    /// their effect is already frozen into the persistent root trail.
    attached: bool,
    /// The previously inserted clause whose normalized literal set has the
    /// same hash, or [`NO_CLAUSE`]. Set when the deletion index is built.
    same_key: u32,
}

impl CheckedClause {
    fn range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }
}

struct Checker {
    /// One record per clause, the formula's first, then the additions in
    /// order: a clause's index is its ID.
    clauses: Vec<CheckedClause>,
    /// The literals of every clause back to back, in `clauses` order.
    /// Literal order within a clause is internal: positions 0 and 1 are
    /// the watched literals of attached clauses.
    lits: Vec<Lit>,
    /// `watches[l.code()]` lists clauses watching literal `l`.
    watches: Vec<Vec<usize>>,
    values: Vec<i8>,
    trail: Vec<Lit>,
    qhead: usize,
    /// The deletion index, built when the first deletion step arrives
    /// (a proof without deletions never hashes a clause) and kept up to
    /// date from then on: hash of a normalized literal set → the last
    /// clause inserted with that hash; earlier ones follow
    /// [`CheckedClause::same_key`]. Deletion compares each candidate's
    /// literal set, so a collision costs a comparison, never a wrong
    /// match — and no clause is stored twice.
    by_key: Option<HashMap<u64, u32>>,
    /// Scratch for normalized literal sets.
    key: Vec<Lit>,
    candidate: Vec<Lit>,
    refuted: bool,
    propagations: u64,
}

/// Writes the sorted, deduplicated `lits` into `out`: the literal set a
/// deletion matches regardless of order and repetition.
fn normalize(lits: &[Lit], out: &mut Vec<Lit>) {
    out.clear();
    out.extend_from_slice(lits);
    out.sort_unstable();
    out.dedup();
}

fn key_hash(key: &[Lit]) -> u64 {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

impl Checker {
    fn new(num_vars: usize) -> Self {
        Checker {
            clauses: Vec::new(),
            lits: Vec::new(),
            watches: vec![Vec::new(); 2 * num_vars],
            values: vec![UNDEF; num_vars],
            trail: Vec::new(),
            qhead: 0,
            by_key: None,
            key: Vec::new(),
            candidate: Vec::new(),
            refuted: false,
            propagations: 0,
        }
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> i8 {
        let v = self.values[l.var().index()];
        if l.is_negated() {
            -v
        } else {
            v
        }
    }

    #[inline]
    fn assign(&mut self, l: Lit) {
        debug_assert_eq!(self.lit_value(l), UNDEF);
        self.values[l.var().index()] = if l.is_negated() { FALSE } else { TRUE };
        self.trail.push(l);
        self.propagations += 1;
    }

    /// Unit propagation to fixpoint; `true` means a conflict was found.
    fn propagate(&mut self) -> bool {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            while i < ws.len() {
                let ci = ws[i];
                let clause = &self.clauses[ci];
                if !clause.active {
                    ws.swap_remove(i);
                    continue;
                }
                let (s, end) = (clause.start, clause.start + clause.len);
                if self.lits[s] == false_lit {
                    self.lits.swap(s, s + 1);
                }
                let other = self.lits[s];
                if self.lit_value(other) == TRUE {
                    i += 1;
                    continue;
                }
                // Find a replacement watch among the tail literals.
                let mut moved = false;
                for k in s + 2..end {
                    let cand = self.lits[k];
                    if self.lit_value(cand) != FALSE {
                        self.lits.swap(s + 1, k);
                        self.watches[cand.code()].push(ci);
                        ws.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                if self.lit_value(other) == FALSE {
                    self.watches[false_lit.code()] = ws;
                    return true; // conflict
                }
                self.assign(other);
                i += 1;
            }
            self.watches[false_lit.code()] = ws;
        }
        false
    }

    /// Files clause `ci` under its literal set's hash in the deletion
    /// index.
    fn index(by_key: &mut HashMap<u64, u32>, key: &mut Vec<Lit>, lits: &[Lit], ci: usize) -> u32 {
        normalize(lits, key);
        by_key.insert(key_hash(key), ci as u32).unwrap_or(NO_CLAUSE)
    }

    /// Inserts a clause into the database, assuming it was already
    /// verified (or comes from the original formula). Root-unit and
    /// root-falsified clauses are folded into the persistent trail.
    fn insert(&mut self, lits: &[Lit]) {
        let ci = self.clauses.len();
        let same_key = match self.by_key.as_mut() {
            Some(by_key) => Self::index(by_key, &mut self.key, lits, ci),
            None => NO_CLAUSE,
        };
        let start = self.lits.len();
        self.lits.extend_from_slice(lits);
        let mut stored =
            CheckedClause { start, len: lits.len(), active: true, attached: false, same_key };
        if self.refuted {
            self.clauses.push(stored);
            return;
        }
        // Partition: move (up to two) non-false literals to the front.
        let mut free = 0usize;
        let mut satisfied = false;
        for k in stored.range() {
            match self.lit_value(self.lits[k]) {
                TRUE => satisfied = true,
                UNDEF => {
                    self.lits.swap(start + free, k);
                    free += 1;
                }
                _ => {}
            }
        }
        if satisfied {
            // Root assignments are persistent, so this clause can never
            // become unit; no watches needed.
            self.clauses.push(stored);
            return;
        }
        match free {
            0 => {
                self.refuted = true;
                self.clauses.push(stored);
            }
            1 => {
                let unit = self.lits[start];
                self.clauses.push(stored);
                self.assign(unit);
                if self.propagate() {
                    self.refuted = true;
                }
            }
            _ => {
                self.watches[self.lits[start].code()].push(ci);
                self.watches[self.lits[start + 1].code()].push(ci);
                stored.attached = true;
                self.clauses.push(stored);
            }
        }
    }

    /// Assumes the negation of every literal of `lits` on top of the root
    /// trail; `true` when that is contradictory by itself (a literal holds
    /// at the root, or `lits` is a tautology).
    fn assume_negation(&mut self, lits: &[Lit]) -> bool {
        for &l in lits {
            match self.lit_value(l) {
                TRUE => return true,
                FALSE => {}
                _ => self.assign(!l),
            }
        }
        false
    }

    /// Undoes every assignment above trail position `mark`.
    fn backtrack(&mut self, mark: usize) {
        for i in (mark..self.trail.len()).rev() {
            self.values[self.trail[i].var().index()] = UNDEF;
        }
        self.trail.truncate(mark);
        self.qhead = mark;
    }

    /// RUP check: assume the negation of every literal of `lits`,
    /// propagate, and demand a conflict. The temporary assignments are
    /// rolled back; the persistent root trail is untouched.
    fn is_rup(&mut self, lits: &[Lit]) -> bool {
        if self.refuted {
            return true;
        }
        debug_assert_eq!(self.qhead, self.trail.len());
        let mark = self.trail.len();
        let conflict = self.assume_negation(lits) || self.propagate();
        self.backtrack(mark);
        conflict
    }

    /// The hinted RUP check: under the negation of `lits`, `hints` must be
    /// a chain of active clauses each unit under the assignment so far
    /// (its literal is then assigned) or satisfied (passed over) until one
    /// is falsified. Any other chain — empty, naming a clause that is
    /// missing, not yet added, deleted or has two unassigned literals, or
    /// ending without a conflict — returns `false` and proves nothing
    /// either way.
    fn closes_by_chain(&mut self, lits: &[Lit], hints: &[u32]) -> bool {
        if hints.is_empty() {
            return false;
        }
        debug_assert_eq!(self.qhead, self.trail.len());
        let mark = self.trail.len();
        let closed = self.assume_negation(lits) || self.follow_chain(hints);
        self.backtrack(mark);
        closed
    }

    fn follow_chain(&mut self, hints: &[u32]) -> bool {
        'hints: for &id in hints {
            let Some(clause) = self.clauses.get(id as usize) else { return false };
            if !clause.active {
                return false;
            }
            let mut unit = None;
            for &l in &self.lits[clause.range()] {
                match self.lit_value(l) {
                    // A satisfied clause derives nothing. In a racing log a
                    // peer's root unit, logged before the lemma's author
                    // learned it, can satisfy one of the author's reasons.
                    TRUE => continue 'hints,
                    FALSE => {}
                    _ if unit.is_none() || unit == Some(l) => unit = Some(l),
                    _ => return false,
                }
            }
            match unit {
                None => return true,
                Some(l) => self.assign(l),
            }
        }
        false
    }

    /// RAT check on the first literal of `lits`: every resolvent with an
    /// active database clause containing the negated pivot must be RUP.
    fn is_rat(&mut self, lits: &[Lit]) -> bool {
        let Some(&pivot) = lits.first() else {
            return false;
        };
        for ci in 0..self.clauses.len() {
            let range = self.clauses[ci].range();
            if !self.clauses[ci].active || !self.lits[range.clone()].contains(&!pivot) {
                continue;
            }
            let mut resolvent: Vec<Lit> = lits.iter().copied().filter(|&l| l != pivot).collect();
            let mut tautology = false;
            for k in range {
                let q = self.lits[k];
                if q == !pivot {
                    continue;
                }
                if resolvent.contains(&!q) {
                    tautology = true;
                    break;
                }
                resolvent.push(q);
            }
            if !tautology && !self.is_rup(&resolvent) {
                return false;
            }
        }
        true
    }

    /// Deletes the last inserted active database clause with the given
    /// literal set; `false` if none matches. The first deletion builds the
    /// index over every clause inserted so far, in insertion order, so
    /// its lists are the ones that indexing each insertion would have
    /// built.
    fn delete(&mut self, lits: &[Lit]) -> bool {
        let by_key = self.by_key.get_or_insert_with(|| {
            let mut by_key = HashMap::with_capacity(self.clauses.len());
            for (ci, clause) in self.clauses.iter_mut().enumerate() {
                let lits = &self.lits[clause.range()];
                clause.same_key = Self::index(&mut by_key, &mut self.key, lits, ci);
            }
            by_key
        });
        normalize(lits, &mut self.key);
        let mut ci = by_key.get(&key_hash(&self.key)).copied().unwrap_or(NO_CLAUSE);
        while ci != NO_CLAUSE {
            let clause = &self.clauses[ci as usize];
            if clause.active {
                normalize(&self.lits[clause.range()], &mut self.candidate);
                if self.candidate == self.key {
                    // Watch lists drop the index lazily during propagation.
                    self.clauses[ci as usize].active = false;
                    return true;
                }
            }
            ci = clause.same_key;
        }
        false
    }
}

/// Checks a DRAT refutation of the clause list `formula` over variables
/// `0..num_vars`: [`check_derivation`] with the empty goal.
///
/// Returns [`CheckStats`] when the proof is accepted — every addition is
/// RUP (or RAT on its first literal) with respect to the formula plus the
/// surviving earlier additions, every deletion names a present clause, and
/// the final database is refuted by unit propagation.
///
/// # Errors
///
/// Returns the first [`CheckError`] encountered; in particular
/// [`CheckError::NotUnsat`] when the (possibly valid) derivation never
/// reaches a refutation — e.g. a proof for a different formula.
///
/// # Example
///
/// ```
/// use sbgc_formula::Var;
/// use sbgc_proof::{check_drat, DratProof};
///
/// let a = Var::from_index(0).positive();
/// let b = Var::from_index(1).positive();
/// let formula = vec![vec![a, b], vec![!a, b], vec![a, !b], vec![!a, !b]];
/// // [b] closes by its chain: clause 1 (¬a∨b) gives ¬a under ¬b, then
/// // clause 0 (a∨b) is falsified.
/// let mut proof = DratProof::new();
/// proof.push_add(&[b], &[1, 0]);
/// let stats = check_drat(2, &formula, &proof).expect("valid refutation");
/// assert_eq!((stats.chained, stats.searched), (1, 0));
/// ```
pub fn check_drat<C: AsRef<[Lit]>>(
    num_vars: usize,
    formula: impl IntoIterator<Item = C>,
    proof: &DratProof,
) -> Result<CheckStats, CheckError> {
    check_derivation(num_vars, formula, proof, &[])
}

/// Checks that `proof` derives the clause `goal` from the clause list
/// `formula` over variables `0..num_vars`.
///
/// `formula` is any list of clauses: a
/// [`ClauseList`](sbgc_formula::ClauseList), or a slice of literal
/// vectors. The checker copies it into one flat database, every
/// clause's literals back to back, and appends each verified addition
/// there too. It builds the index that deletions look clauses up in only
/// when the first deletion step arrives, so a proof without deletions
/// hashes no clause.
///
/// Every addition must be RUP with respect to the formula plus the
/// surviving earlier additions — or, for the empty goal only, RAT on its
/// first literal (a RAT lemma preserves satisfiability, not implication,
/// so it cannot vouch for a non-empty goal) — and every deletion must name
/// a present clause. Replay stops at the first refutation of the
/// database (which derives every goal); otherwise, after the last step,
/// `goal` must be RUP: assuming the negation of its literals and
/// propagating over the final database must conflict. `goal = []` asks
/// for a refutation, which is [`check_drat`].
///
/// Each addition's hint chain ([`DratProof::hints`]) is walked first, with
/// formula clause `i` as ID `i` and addition `j` as ID `formula.len() + j`:
/// every hint must name an active clause that is unit under the negated
/// addition, the root trail and the chain's earlier units (a satisfied one
/// is passed over), until one is falsified. A chain that closes proves the
/// addition RUP; any other chain is ignored and the addition searched for
/// as if it had none. Hints never change the result, only
/// [`CheckStats::chained`] and [`CheckStats::searched`] and the time taken.
///
/// # Errors
///
/// Returns the first [`CheckError`] encountered: a literal of the formula
/// or the goal out of range is [`CheckError::OutOfRangeLit`] with no step,
/// and a replay that ends without making `goal` RUP is
/// [`CheckError::NotUnsat`].
///
/// # Example
///
/// ```
/// use sbgc_formula::Var;
/// use sbgc_proof::{check_derivation, CheckError, DratProof};
///
/// // (¬a∨b)(¬b∨c)(¬c∨¬a): a cannot hold, yet the formula is satisfiable.
/// let [a, b, c] = [0, 1, 2].map(|i| Var::from_index(i).positive());
/// let formula = vec![vec![!a, b], vec![!b, c], vec![!c, !a]];
/// let empty = DratProof::new();
/// // The goal [¬a] is RUP without a single lemma…
/// assert!(check_derivation(3, &formula, &empty, &[!a]).is_ok());
/// // …but neither [a] nor the empty clause is derived.
/// assert_eq!(check_derivation(3, &formula, &empty, &[a]), Err(CheckError::NotUnsat));
/// assert_eq!(check_derivation(3, &formula, &empty, &[]), Err(CheckError::NotUnsat));
/// ```
pub fn check_derivation<C: AsRef<[Lit]>>(
    num_vars: usize,
    formula: impl IntoIterator<Item = C>,
    proof: &DratProof,
    goal: &[Lit],
) -> Result<CheckStats, CheckError> {
    let out_of_range = |lits: &[Lit]| lits.iter().any(|l| l.var().index() >= num_vars);
    if out_of_range(goal) {
        return Err(CheckError::OutOfRangeLit { step: None });
    }
    let rat_allowed = goal.is_empty();
    let mut ck = Checker::new(num_vars);
    // Every formula clause is range-checked; those after a root
    // refutation need not be stored, as the replay below stops at once.
    for clause in formula {
        let clause = clause.as_ref();
        if out_of_range(clause) {
            return Err(CheckError::OutOfRangeLit { step: None });
        }
        if !ck.refuted {
            ck.insert(clause);
        }
    }
    let mut stats = CheckStats::default();
    for (step, s) in proof.steps().iter().enumerate() {
        if ck.refuted {
            break;
        }
        stats.steps += 1;
        match s {
            ProofStep::Add(lits) => {
                if out_of_range(lits) {
                    return Err(CheckError::OutOfRangeLit { step: Some(step) });
                }
                let hints = proof.hints(stats.adds);
                stats.adds += 1;
                if ck.closes_by_chain(lits, hints) {
                    stats.chained += 1;
                } else if ck.is_rup(lits) || (rat_allowed && ck.is_rat(lits)) {
                    stats.searched += 1;
                } else {
                    return Err(CheckError::NotRup { step });
                }
                ck.insert(lits);
            }
            ProofStep::Delete(lits) => {
                if out_of_range(lits) {
                    return Err(CheckError::OutOfRangeLit { step: Some(step) });
                }
                stats.deletes += 1;
                if !ck.delete(lits) {
                    return Err(CheckError::MissingDeletion { step });
                }
            }
        }
    }
    // A refuted database derives every goal; otherwise the goal must be
    // RUP, which for the empty goal is exactly a refutation.
    if !ck.is_rup(goal) {
        return Err(CheckError::NotUnsat);
    }
    stats.propagations = ck.propagations;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbgc_formula::{ClauseList, Var};

    fn lit(i: usize, neg: bool) -> Lit {
        Var::from_index(i).lit(neg)
    }

    fn l(d: i64) -> Lit {
        Lit::from_dimacs(d)
    }

    /// (a∨b)(¬a∨b)(a∨¬b)(¬a∨¬b): minimal UNSAT square.
    fn square() -> Vec<Vec<Lit>> {
        vec![vec![l(1), l(2)], vec![l(-1), l(2)], vec![l(1), l(-2)], vec![l(-1), l(-2)]]
    }

    #[test]
    fn accepts_unit_then_empty() {
        let mut proof = DratProof::new();
        proof.push_add(&[l(2)], &[]);
        proof.push_add(&[], &[]);
        let stats = check_drat(2, square(), &proof).unwrap();
        assert_eq!(stats.adds, 1, "refuted before the empty clause is reached");
    }

    #[test]
    fn accepts_refutation_without_explicit_empty_clause() {
        let mut proof = DratProof::new();
        proof.push_add(&[l(2)], &[]);
        assert!(check_drat(2, square(), &proof).is_ok());
    }

    #[test]
    fn rejects_non_rup_addition() {
        // Over (¬a∨b)(¬a∨c), the unit [a] is not RUP (assuming ¬a yields no
        // conflict) and not RAT either: the resolvent [b] with (¬a∨b) has
        // no propagation support.
        let formula = vec![vec![l(-1), l(2)], vec![l(-1), l(3)]];
        let mut proof = DratProof::new();
        proof.push_add(&[l(1)], &[]);
        proof.push_add(&[], &[]);
        assert_eq!(check_drat(3, &formula, &proof), Err(CheckError::NotRup { step: 0 }));
    }

    #[test]
    fn rejects_corrupted_lemma() {
        // Over (¬a∨b)(¬a∨c)(d∨e), the corrupted lemma [a, ¬d] is neither
        // RUP (assuming ¬a, d propagates nothing) nor RAT on pivot a (the
        // resolvent [¬d, b] with (¬a∨b) is not RUP).
        let formula = vec![vec![l(-1), l(2)], vec![l(-1), l(3)], vec![l(4), l(5)]];
        let mut proof = DratProof::new();
        proof.push_add(&[l(1), l(-4)], &[]);
        proof.push_add(&[], &[]);
        assert_eq!(check_drat(5, &formula, &proof), Err(CheckError::NotRup { step: 0 }));
    }

    #[test]
    fn rejects_truncated_proof() {
        let proof = DratProof::new();
        assert_eq!(check_drat(2, square(), &proof), Err(CheckError::NotUnsat));
    }

    #[test]
    fn rejects_missing_deletion() {
        let mut proof = DratProof::new();
        proof.push_delete(&[l(1), l(2), l(-3)]);
        assert_eq!(check_drat(3, square(), &proof), Err(CheckError::MissingDeletion { step: 0 }));
    }

    #[test]
    fn deletion_matches_any_literal_order() {
        // The clause is stored as [1, 2]; deleting [2, 1] must match it
        // (failure mode would be MissingDeletion, not NotUnsat).
        let mut proof = DratProof::new();
        proof.push_delete(&[l(2), l(1)]);
        assert_eq!(check_drat(2, square(), &proof), Err(CheckError::NotUnsat));
    }

    #[test]
    fn deleted_clause_no_longer_supports_rup() {
        // After deleting (a∨b), the unit [b] loses its RUP support:
        // assuming ¬b propagates a (from a∨¬b)... which conflicts with
        // ¬a∨¬b? No: ¬a∨¬b needs b true. Check the exact chain: ¬b makes
        // (a∨¬b) satisfied; remaining constraints (¬a∨b)→¬a, and nothing
        // conflicts. So [b] must be rejected.
        let mut proof = DratProof::new();
        proof.push_delete(&[l(1), l(2)]);
        proof.push_add(&[l(2)], &[]);
        proof.push_add(&[], &[]);
        assert_eq!(check_drat(2, square(), &proof), Err(CheckError::NotRup { step: 1 }));
    }

    #[test]
    fn rejects_proof_for_permuted_formula() {
        // A valid refutation of PHP-style pairwise constraints does not
        // refute the (satisfiable) formula with one clause sign-flipped.
        let mut satisfiable = square();
        satisfiable[3] = vec![l(1), l(-2)]; // duplicate, leaves (1, ¬2) open
        let mut proof = DratProof::new();
        proof.push_add(&[l(2)], &[]);
        proof.push_add(&[], &[]);
        let err = check_drat(2, &satisfiable, &proof).unwrap_err();
        assert!(matches!(err, CheckError::NotRup { .. } | CheckError::NotUnsat), "{err:?}");
    }

    #[test]
    fn out_of_range_literals_rejected() {
        let mut proof = DratProof::new();
        proof.push_add(&[lit(7, false)], &[]);
        assert_eq!(
            check_drat(2, square(), &proof),
            Err(CheckError::OutOfRangeLit { step: Some(0) })
        );
        assert_eq!(
            check_drat(1, square(), &DratProof::new()),
            Err(CheckError::OutOfRangeLit { step: None })
        );
    }

    #[test]
    fn formula_with_root_conflict_is_refuted_without_proof() {
        let formula = vec![vec![l(1)], vec![l(-1)]];
        assert!(check_drat(1, &formula, &DratProof::new()).is_ok());
    }

    #[test]
    fn empty_formula_is_not_refutable() {
        let proof = DratProof::new();
        assert_eq!(check_drat(1, &ClauseList::new(), &proof), Err(CheckError::NotUnsat));
    }

    #[test]
    fn rat_addition_accepted() {
        // [a] over (a∨b) is not RUP (assuming ¬a yields no conflict) but is
        // vacuously RAT on pivot a: no clause contains ¬a. The formula stays
        // satisfiable, so the final error must be NotUnsat — proving the
        // RAT addition itself passed.
        let formula = vec![vec![l(1), l(2)]];
        let mut proof = DratProof::new();
        proof.push_add(&[l(1)], &[]);
        assert_eq!(check_drat(2, &formula, &proof), Err(CheckError::NotUnsat));
        // Only the empty goal admits RAT. a = false, b = true is a model,
        // so [a] must not be derived; the implied goal [a∨b] refuses the
        // RAT lemma all the same.
        for goal in [&[l(1)][..], &[l(1), l(2)]] {
            assert_eq!(
                check_derivation(2, &formula, &proof, goal),
                Err(CheckError::NotRup { step: 0 }),
                "{goal:?}"
            );
        }
        assert!(check_derivation(2, &formula, &DratProof::new(), &[l(1), l(2)]).is_ok());
    }

    #[test]
    fn out_of_range_deletion_is_reported_as_such() {
        let mut proof = DratProof::new();
        proof.push_add(&[l(1), l(2)], &[]);
        proof.push_delete(&[l(1), l(-5)]);
        assert_eq!(
            check_drat(2, square(), &proof),
            Err(CheckError::OutOfRangeLit { step: Some(1) })
        );
    }

    #[test]
    fn deletion_removes_one_copy_of_a_duplicated_clause() {
        // (a∨b) twice plus the rest of the square: each deletion removes
        // one copy, in any literal order, and a third finds none.
        let mut formula = square();
        formula.push(vec![l(2), l(1), l(2)]);
        let mut proof = DratProof::new();
        proof.push_delete(&[l(1), l(2)]);
        proof.push_delete(&[l(2), l(1)]);
        proof.push_delete(&[l(1), l(2)]);
        assert_eq!(check_drat(2, &formula, &proof), Err(CheckError::MissingDeletion { step: 2 }));
    }

    /// Replays `ops` — `Ok(clause)` inserts, `Err(clause)` deletes — on a
    /// checker over 8 variables next to the rule the index must keep:
    /// a deletion removes the last inserted active clause with the same
    /// literal set, whatever the literal order and repetition. Returns
    /// each deletion's result.
    fn replay_deletions(ops: &[Result<Vec<Lit>, Vec<Lit>>]) -> Vec<bool> {
        let set = |lits: &[Lit]| {
            let mut key = Vec::new();
            normalize(lits, &mut key);
            key
        };
        let mut ck = Checker::new(8);
        let mut model: Vec<(Vec<Lit>, bool)> = Vec::new();
        let mut results = Vec::new();
        for op in ops {
            match op {
                Ok(lits) => {
                    ck.insert(lits);
                    model.push((set(lits), true));
                }
                Err(lits) => {
                    let target =
                        model.iter().rposition(|(key, active)| *active && *key == set(lits));
                    if let Some(i) = target {
                        model[i].1 = false;
                    }
                    assert_eq!(ck.delete(lits), target.is_some(), "deleting {lits:?}");
                    results.push(target.is_some());
                }
            }
            let active: Vec<bool> = ck.clauses.iter().map(|c| c.active).collect();
            let expected: Vec<bool> = model.iter().map(|&(_, active)| active).collect();
            assert_eq!(active, expected, "after {op:?}");
        }
        results
    }

    #[test]
    fn lazily_built_deletion_index_deletes_the_last_matching_copy() {
        let (a, b, c, d) = (l(1), l(2), l(-3), l(4));
        // Duplicates in permuted literal orders, one with a repeated
        // literal, all inserted before the first deletion builds the index.
        let before = vec![
            Ok(vec![a, b, c]),
            Ok(vec![c, d]),
            Ok(vec![b, c, a]),
            Ok(vec![c, a, b, b]),
            Ok(vec![d, c]),
        ];
        let mut ops = before.clone();
        ops.extend([Err(vec![c, b, a]), Err(vec![a, b, c]), Ok(vec![a, c, b]), Ok(vec![d, a])]);
        // After more additions the index is kept up to date: the newest
        // copy goes first, then the oldest remaining one, then none.
        ops.extend([
            Err(vec![b, a, c]),
            Err(vec![a, d]),
            Err(vec![c, a, b]),
            Err(vec![a, b, c]),
            Err(vec![d, c]),
            Err(vec![c, d]),
            Err(vec![c, d]),
        ]);
        let results = replay_deletions(&ops);
        assert_eq!(results, [true, true, true, true, true, false, true, true, false]);
        // A deletion of a set no clause has, first or later, finds none.
        let mut absent = before.clone();
        absent.extend([Err(vec![a, b]), Err(vec![a, b, c]), Err(vec![a, b, c, d])]);
        assert_eq!(replay_deletions(&absent), [false, true, false]);
    }

    #[test]
    fn deleting_an_absent_clause_is_missing_after_the_index_exists() {
        // The first deletion builds the index; a later absent or already
        // deleted clause is still a MissingDeletion at its own step.
        let mut proof = DratProof::new();
        proof.push_delete(&[l(-2), l(-1)]);
        proof.push_add(&[l(1), l(2), l(3)], &[]); // RUP by (a∨b)
        proof.push_delete(&[l(3), l(2), l(1)]);
        proof.push_delete(&[l(-1), l(-2)]);
        assert_eq!(check_drat(3, square(), &proof), Err(CheckError::MissingDeletion { step: 3 }));
        let mut proof = DratProof::new();
        proof.push_delete(&[l(-1), l(-2)]);
        proof.push_delete(&[l(1), l(-2), l(3)]);
        assert_eq!(check_drat(3, square(), &proof), Err(CheckError::MissingDeletion { step: 1 }));
    }

    #[test]
    fn a_closing_chain_counts_as_chained() {
        let mut proof = DratProof::new();
        proof.push_add(&[l(2)], &[1, 0]);
        let stats = check_drat(2, square(), &proof).unwrap();
        assert_eq!((stats.adds, stats.chained, stats.searched), (1, 1, 0));
        // The same lemma without hints is searched, with the same verdict.
        let mut bare = DratProof::new();
        bare.push_add(&[l(2)], &[]);
        let stats = check_drat(2, square(), &bare).unwrap();
        assert_eq!((stats.adds, stats.chained, stats.searched), (1, 0, 1));
    }

    #[test]
    fn non_rup_lemma_with_a_plausible_chain_is_still_rejected() {
        // Over (¬a∨b)(¬a∨c)(d∨e), [a] is neither RUP nor RAT. Its chain
        // names real clauses, but none is unit under ¬a, so it proves
        // nothing and the addition is rejected as before.
        let formula = vec![vec![l(-1), l(2)], vec![l(-1), l(3)], vec![l(4), l(5)]];
        for hints in [&[0, 1][..], &[2], &[0, 1, 2], &[2, 2, 2]] {
            let mut proof = DratProof::new();
            proof.push_add(&[l(1)], hints);
            proof.push_add(&[], &[0]);
            assert_eq!(
                check_drat(5, &formula, &proof),
                Err(CheckError::NotRup { step: 0 }),
                "{hints:?}"
            );
        }
    }

    #[test]
    fn a_chain_must_end_in_a_falsified_clause() {
        // [b] over the square with the chain [1] makes ¬a unit but never
        // reaches a conflict: it falls through to search, which accepts.
        let mut proof = DratProof::new();
        proof.push_add(&[l(2)], &[1]);
        let stats = check_drat(2, square(), &proof).unwrap();
        assert_eq!((stats.chained, stats.searched), (0, 1));
    }

    #[test]
    fn an_underived_goal_is_refused() {
        // (¬a∨b)(¬b∨c) is satisfiable: [¬a ∨ c] is RUP, but [¬c] and [a]
        // are not, with or without a proof that derives [¬a ∨ c].
        let formula = vec![vec![l(-1), l(2)], vec![l(-2), l(3)]];
        let mut proof = DratProof::new();
        proof.push_add(&[l(-1), l(3)], &[0, 1]);
        for p in [DratProof::new(), proof] {
            assert!(check_derivation(3, &formula, &p, &[l(-1), l(3)]).is_ok());
            for goal in [&[l(-3)][..], &[l(1)], &[]] {
                assert_eq!(
                    check_derivation(3, &formula, &p, goal),
                    Err(CheckError::NotUnsat),
                    "{goal:?}"
                );
            }
        }
        // A goal over a variable outside the formula is refused up front.
        assert_eq!(
            check_derivation(3, &formula, &DratProof::new(), &[l(4)]),
            Err(CheckError::OutOfRangeLit { step: None })
        );
    }

    #[test]
    fn a_goal_is_checked_after_the_whole_proof() {
        // Under the assumption a, (¬a∨b)(¬a∨c)(¬b∨¬c∨d)(¬d∨e)(¬d∨¬e) has
        // no model. The lemma [¬a ∨ d] leaves the goal [¬a] RUP; the
        // lemmas replay in full (the database is never refuted), and a
        // bad lemma anywhere still fails at its own step.
        let formula = vec![
            vec![l(-1), l(2)],
            vec![l(-1), l(3)],
            vec![l(-2), l(-3), l(4)],
            vec![l(-4), l(5)],
            vec![l(-4), l(-5)],
        ];
        let mut proof = DratProof::new();
        proof.push_add(&[l(-1), l(4)], &[0, 1, 2]);
        proof.push_add(&[l(-4)], &[3, 4]);
        let stats = check_derivation(5, &formula, &proof, &[l(-1)]).expect("goal derived");
        assert_eq!((stats.steps, stats.adds, stats.chained, stats.searched), (2, 2, 2, 0));
        assert_eq!(check_drat(5, &formula, &proof), Err(CheckError::NotUnsat));
        let mut bad = proof.clone();
        bad.push_add(&[l(1)], &[]);
        assert_eq!(
            check_derivation(5, &formula, &bad, &[l(-1)]),
            Err(CheckError::NotRup { step: 2 })
        );
    }

    #[test]
    fn the_empty_goal_asks_for_a_refutation() {
        // Goal [] gives the verdicts check_drat gave before goals existed:
        // a refutation is accepted with the same counts, and a non-RUP
        // lemma, a missing deletion, an out-of-range literal or a replay
        // that never refutes is refused with the same error.
        let refuting = |hints: &[u32]| {
            let mut proof = DratProof::new();
            proof.push_add(&[l(2)], hints);
            proof.push_add(&[], &[]);
            proof
        };
        let mut deleted = DratProof::new();
        deleted.push_delete(&[l(1), l(2)]);
        deleted.push_add(&[l(2)], &[]);
        let mut far = DratProof::new();
        far.push_add(&[lit(7, false)], &[]);
        let mut missing = DratProof::new();
        missing.push_delete(&[l(1), l(2), l(-3)]);
        let verdict = |num_vars, formula: &[Vec<Lit>], proof: &DratProof| {
            let checked = check_derivation(num_vars, formula, proof, &[]);
            assert_eq!(checked, check_drat(num_vars, formula, proof));
            checked.map(|s| (s.steps, s.adds, s.deletes, s.chained, s.searched))
        };
        assert_eq!(verdict(2, &square(), &refuting(&[1, 0])), Ok((1, 1, 0, 1, 0)));
        assert_eq!(verdict(2, &square(), &refuting(&[])), Ok((1, 1, 0, 0, 1)));
        assert_eq!(verdict(2, &square(), &deleted), Err(CheckError::NotRup { step: 1 }));
        assert_eq!(verdict(2, &square(), &far), Err(CheckError::OutOfRangeLit { step: Some(0) }));
        assert_eq!(verdict(3, &square(), &missing), Err(CheckError::MissingDeletion { step: 0 }));
        assert_eq!(verdict(2, &square(), &DratProof::new()), Err(CheckError::NotUnsat));
        assert_eq!(verdict(1, &[vec![l(1)], vec![l(-1)]], &DratProof::new()), Ok((0, 0, 0, 0, 0)));
    }

    #[test]
    fn malformed_hints_fall_back_without_panicking() {
        // b ∨ (a∨c) with a → b, c → b, and b → d, b → ¬d: UNSAT. Lemma 0
        // (ID 5) is [b ∨ ¬e], deleted again; lemma 1 (ID 6) is [b], whose
        // closing chain is [1, 2, 0]. A satisfied hint is passed over, so
        // [1, 1, 2, 0] closes too; every malformed chain must leave the
        // verdict and the counts unchanged.
        let formula = vec![
            vec![l(1), l(2), l(3)],
            vec![l(-1), l(2)],
            vec![l(-3), l(2)],
            vec![l(-2), l(4)],
            vec![l(-2), l(-4)],
        ];
        let check = |hints: &[u32]| {
            let mut proof = DratProof::new();
            proof.push_add(&[l(2), l(-5)], &[]);
            proof.push_delete(&[l(-5), l(2)]);
            proof.push_add(&[l(2)], hints);
            let stats = check_drat(5, &formula, &proof)
                .unwrap_or_else(|e| panic!("{hints:?} changed the verdict: {e}"));
            assert_eq!((stats.adds, stats.deletes), (2, 1), "{hints:?}");
            (stats.chained, stats.searched)
        };
        assert_eq!(check(&[1, 2, 0]), (1, 1));
        assert_eq!(check(&[1, 1, 2, 0]), (1, 1));
        let malformed: [&[u32]; 9] = [
            &[],
            &[u32::MAX],
            &[6, 7, 8],
            &[5],
            &[3, 0],
            &[0, 0, 0],
            &[1, 2],
            &[1, 2, u32::MAX, 0],
            &[100, 1, 2, 0],
        ];
        for hints in malformed {
            assert_eq!(check(hints), (0, 2), "{hints:?}");
        }
    }
}
