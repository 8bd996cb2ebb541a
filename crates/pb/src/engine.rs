//! The CDCL engine extended with counter-based pseudo-Boolean propagation.

use crate::config::{EngineConfig, RestartPolicy};
use crate::explain::FalseTerm;
use sbgc_formula::{Assignment, Lit, PbConstraint, PbFormula, Var};
use sbgc_obs::{Counter, Recorder, SearchCounters};
use sbgc_proof::ProofLogger;
use sbgc_sat::{Budget, ExhaustReason, GlueEma, Luby, SharingConfig, SharingHandle, SolveOutcome};
use std::cmp::Ordering::Equal;
use std::fmt;
use std::ops::Range;

/// Backjumps discarding more than this many decision levels are replaced
/// by a single chronological step when `EngineConfig::chrono` is on.
const CHRONO_THRESHOLD: u32 = 100;
/// Conflicts before the first rephase; the interval widens linearly.
const REPHASE_BASE: u64 = 1000;
/// Learned clauses at or below this LBD are never deleted by tiered
/// reduction (the "core" tier).
const CORE_LBD: u32 = 2;

/// Search statistics of a [`PbEngine`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PbStats {
    /// Number of decisions.
    pub decisions: u64,
    /// Number of conflicts.
    pub conflicts: u64,
    /// Number of propagated literals.
    pub propagations: u64,
    /// Number of restarts.
    pub restarts: u64,
    /// Number of learned clauses.
    pub learned: u64,
    /// Number of learned clauses deleted.
    pub deleted: u64,
    /// Number of analyzed conflicts whose conflicting constraint, or a
    /// reason their 1UIP derivation resolved on, is a PB constraint; each
    /// conflict counts at most once, so this never exceeds `conflicts`.
    pub pb_conflicts: u64,
    /// Total literals across all learned clauses (after minimization).
    pub learned_literals: u64,
    /// Sum of LBD (glue) values across all learned clauses.
    pub lbd_sum: u64,
    /// Learned clauses exported into the portfolio's shared clause pool.
    pub exported: u64,
    /// Clauses imported from the portfolio's shared clause pool.
    pub imported: u64,
    /// Number of database-reduction (`reduce_db`) passes.
    pub reductions: u64,
    /// Number of dead clause slots physically reclaimed by arena
    /// compaction (see [`PbEngine::set_compaction`]).
    pub reclaimed: u64,
    /// Why the most recent budgeted solve stopped early, if it did.
    /// `None` after a definitive SAT/UNSAT answer (and before any solve).
    /// Unlike the counters above this is a status, not a monotone count;
    /// it is reset at the start of every solve call.
    pub exhaust: Option<ExhaustReason>,
}

impl From<PbStats> for SearchCounters {
    fn from(s: PbStats) -> SearchCounters {
        SearchCounters {
            decisions: s.decisions,
            conflicts: s.conflicts,
            propagations: s.propagations,
            restarts: s.restarts,
            learned: s.learned,
            deleted: s.deleted,
            pb_conflicts: s.pb_conflicts,
            learned_literals: s.learned_literals,
            lbd_sum: s.lbd_sum,
            exported: s.exported,
            imported: s.imported,
        }
    }
}

impl PbStats {
    /// Flushes the delta between `self` and the snapshot `prev` into the
    /// recorder's typed counters, returning the new snapshot.
    fn flush_delta(self, prev: PbStats, recorder: &Recorder) -> PbStats {
        recorder.add(Counter::Decisions, self.decisions - prev.decisions);
        recorder.add(Counter::Conflicts, self.conflicts - prev.conflicts);
        recorder.add(Counter::Propagations, self.propagations - prev.propagations);
        recorder.add(Counter::Restarts, self.restarts - prev.restarts);
        recorder.add(Counter::Learned, self.learned - prev.learned);
        recorder.add(Counter::Deleted, self.deleted - prev.deleted);
        recorder.add(Counter::PbConflicts, self.pb_conflicts - prev.pb_conflicts);
        recorder.add(Counter::LearnedLiterals, self.learned_literals - prev.learned_literals);
        recorder.add(Counter::LbdSum, self.lbd_sum - prev.lbd_sum);
        recorder.add(Counter::Exported, self.exported - prev.exported);
        recorder.add(Counter::Imported, self.imported - prev.imported);
        self
    }
}

const NO_POS: usize = usize::MAX;

/// `len` as the offset of the next item of a clause or term arena.
///
/// # Panics
///
/// Panics once an arena holds 2^32 items (16 GiB of clause literals).
fn arena_offset(len: usize) -> u32 {
    u32::try_from(len).expect("an engine arena holds fewer than 2^32 items")
}

/// The arena range of an item stored at `start` with `len` entries.
#[inline]
fn arena_range(start: u32, len: u32) -> Range<usize> {
    let start = start as usize;
    start..start + len as usize
}

/// Proof clause ID of a clause with none: stored before a proof logger was
/// attached, or past the 31-bit ID space. A chain naming it is not logged.
const NO_ID: u32 = u32::MAX;
/// Tag of a stored clause ID that is a logged addition's number rather
/// than an input index; see [`PbEngine::hint`].
const ADDED: u32 = 1 << 31;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Reason {
    Decision,
    Clause(u32),
    Pb(u32),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum VarValue {
    Undef,
    True,
    False,
}

/// The fixed-size header of a stored clause. Its literals are
/// `arena[start..start + len]`: every clause's literals sit back to back
/// in one vector, in clause order, so storing a clause allocates nothing
/// of its own.
#[derive(Clone, Copy, Debug)]
struct ClauseHeader {
    start: u32,
    /// Two or more: units go to the trail, not the store.
    len: u32,
    /// LBD at learn/import time; 0 for original clauses.
    lbd: u32,
    learned: bool,
    deleted: bool,
    activity: f64,
}

// docs/ROBUSTNESS.md states this size in its arena-byte estimate.
const _: () = assert!(std::mem::size_of::<ClauseHeader>() == 24);

impl ClauseHeader {
    #[inline]
    fn range(&self) -> Range<usize> {
        arena_range(self.start, self.len)
    }
}

#[derive(Clone, Copy, Debug)]
struct Watcher {
    clause: u32,
    blocker: Lit,
}

/// A stored PB constraint; its terms are `pb_terms[start..start + len]`.
#[derive(Clone, Debug)]
struct StoredPb {
    start: u32,
    len: u32,
    rhs: u64,
    coeff_sum: u64,
    /// `Σ_{ℓ not false} aᵢ − rhs`; negative means violated.
    slack: i64,
}

impl StoredPb {
    #[inline]
    fn range(&self) -> Range<usize> {
        arena_range(self.start, self.len)
    }
}

/// Indexed max-heap over variable activities (VSIDS order).
#[derive(Clone, Debug, Default)]
struct ActivityHeap {
    heap: Vec<u32>,
    position: Vec<usize>,
}

impl ActivityHeap {
    fn with_capacity(n: usize) -> Self {
        ActivityHeap { heap: Vec::with_capacity(n), position: vec![NO_POS; n] }
    }

    fn insert(&mut self, var: usize, activity: &[f64]) {
        if self.position[var] != NO_POS {
            return;
        }
        self.position[var] = self.heap.len();
        self.heap.push(var as u32);
        self.sift_up(self.heap.len() - 1, activity);
    }

    fn pop_max(&mut self, activity: &[f64]) -> Option<usize> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0] as usize;
        let last = self.heap.pop().expect("non-empty");
        self.position[top] = NO_POS;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.position[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn increased(&mut self, var: usize, activity: &[f64]) {
        let pos = self.position[var];
        if pos != NO_POS {
            self.sift_up(pos, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, a: &[f64]) {
        while i > 0 {
            let p = (i - 1) / 2;
            if a[self.heap[i] as usize] <= a[self.heap[p] as usize] {
                break;
            }
            self.swap(i, p);
            i = p;
        }
    }

    fn sift_down(&mut self, mut i: usize, a: &[f64]) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut m = i;
            if l < self.heap.len() && a[self.heap[l] as usize] > a[self.heap[m] as usize] {
                m = l;
            }
            if r < self.heap.len() && a[self.heap[r] as usize] > a[self.heap[m] as usize] {
                m = r;
            }
            if m == i {
                break;
            }
            self.swap(i, m);
            i = m;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.position[self.heap[a] as usize] = a;
        self.position[self.heap[b] as usize] = b;
    }
}

/// A CDCL solver over mixed CNF + pseudo-Boolean formulas.
///
/// PB constraints are propagated with per-constraint slack counters;
/// conflicts and propagations caused by PB constraints are explained by
/// implied CNF clauses (the PBS scheme), with the explanation subset chosen
/// by the configured [`crate::ExplainStrategy`]. Learned constraints are
/// CNF clauses.
///
/// Use [`crate::optimize`] to minimize an objective; the engine itself
/// solves the decision problem.
pub struct PbEngine {
    config: EngineConfig,
    num_vars: usize,
    /// One header per stored clause; a clause reference is an index here.
    clauses: Vec<ClauseHeader>,
    /// The literals of every stored clause, back to back in `clauses`
    /// order. Propagation reorders a clause's literals within its range;
    /// compaction moves live ranges down over dead ones.
    arena: Vec<Lit>,
    watches: Vec<Vec<Watcher>>,
    pbs: Vec<StoredPb>,
    /// The terms of every PB constraint, back to back in `pbs` order.
    pb_terms: Vec<(u64, Lit)>,
    /// `occ[p.code()]` lists `(pb_index, coeff)` for constraints containing
    /// the literal `!p` — i.e. the constraints whose slack drops when `p`
    /// becomes true.
    occ: Vec<Vec<(u32, u64)>>,
    /// `vals[l.code()]` is the value of literal `l`: both polarities of a
    /// variable are written on assignment and cleared on backtrack, so
    /// reading a literal's value is a single load.
    vals: Vec<VarValue>,
    level: Vec<u32>,
    reason: Vec<Reason>,
    trail_pos: Vec<usize>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: ActivityHeap,
    saved_phase: Vec<bool>,
    cla_inc: f64,
    max_learnts: f64,
    ok: bool,
    /// Physically reclaim tombstoned clauses after each reduce_db pass;
    /// disabled only by tests comparing against the lazy-deletion baseline.
    compact: bool,
    stats: PbStats,
    recorder: Recorder,
    /// Stats snapshot already flushed to the recorder.
    flushed: PbStats,
    proof: Option<Box<dyn ProofLogger>>,
    /// Proof clause IDs of `clauses`, index for index; empty without a
    /// proof logger. An input clause stores its input index; a logged
    /// addition stores `ADDED | n`, `n` the number its sink assigned.
    clause_ids: Vec<u32>,
    /// `add_clause` calls since a proof logger was attached: the length of
    /// the formula a proof is checked against, once all inputs are in.
    inputs: u32,
    /// Hint chain of the lemma being derived, reused across conflicts.
    chain: Vec<u32>,
    /// The lemma `analyze` derived last (asserting literal first), reused.
    learnt: Vec<Lit>,
    /// A clause being added or imported, simplified in place; reused.
    scratch: Vec<Lit>,
    /// `reduce_db`'s deletion candidates, reused.
    candidates: Vec<u32>,
    /// `compact_db`'s old-to-new clause references, reused.
    remap: Vec<u32>,
    /// The lemma's resolved literals as (trail position, reason hint):
    /// those its 1UIP analysis resolved away and those minimization
    /// removed or passed through; reused.
    resolved: Vec<(usize, u32)>,
    seen: Vec<bool>,
    /// Literals `analyze` marked in `seen`, to unmark when it is done.
    to_clear: Vec<Lit>,
    /// Depth-first stack of `lit_redundant`.
    redundant_stack: Vec<Lit>,
    /// The falsified terms offered to the explainer, reused.
    false_terms: Vec<FalseTerm>,
    /// The PB explanation last materialized by `explain_pb`, reused.
    expl: Vec<Lit>,
    /// Assumption core of the last assumption-relative UNSAT answer.
    final_core: Vec<Lit>,
    /// LBD trend tracker for `RestartPolicy::AdaptiveLbd`.
    glue: GlueEma,
    /// Portfolio clause-sharing handle; `None` for sequential solving.
    sharing: Option<SharingHandle>,
    /// Generation-stamped scratch for `compute_lbd` (indexed by level).
    lbd_stamp: Vec<u64>,
    lbd_gen: u64,
    /// Conflict count at which the next rephase fires.
    next_rephase: u64,
    rephase_count: u64,
}

impl PbEngine {
    /// Creates an empty engine over `num_vars` variables with the given
    /// configuration.
    pub fn new(num_vars: usize, config: EngineConfig) -> Self {
        let mut engine = PbEngine {
            config,
            num_vars,
            clauses: Vec::new(),
            arena: Vec::new(),
            watches: vec![Vec::new(); 2 * num_vars],
            pbs: Vec::new(),
            pb_terms: Vec::new(),
            occ: vec![Vec::new(); 2 * num_vars],
            vals: vec![VarValue::Undef; 2 * num_vars],
            level: vec![0; num_vars],
            reason: vec![Reason::Decision; num_vars],
            trail_pos: vec![NO_POS; num_vars],
            trail: Vec::with_capacity(num_vars),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: vec![0.0; num_vars],
            var_inc: 1.0,
            heap: ActivityHeap::with_capacity(num_vars),
            saved_phase: vec![false; num_vars],
            cla_inc: 1.0,
            max_learnts: 0.0,
            ok: true,
            compact: true,
            stats: PbStats::default(),
            recorder: Recorder::disabled(),
            flushed: PbStats::default(),
            proof: None,
            clause_ids: Vec::new(),
            inputs: 0,
            chain: Vec::new(),
            learnt: Vec::new(),
            scratch: Vec::new(),
            candidates: Vec::new(),
            remap: Vec::new(),
            resolved: Vec::new(),
            seen: vec![false; num_vars],
            to_clear: Vec::new(),
            redundant_stack: Vec::new(),
            false_terms: Vec::new(),
            expl: Vec::new(),
            final_core: Vec::new(),
            glue: GlueEma::default(),
            sharing: None,
            lbd_stamp: vec![0; num_vars + 1],
            lbd_gen: 0,
            next_rephase: REPHASE_BASE,
            rephase_count: 0,
        };
        engine.diversify();
        engine
    }

    /// Deterministically perturbs the initial phases and activities from
    /// `config.seed`. Seed 0 is the identity — sequential presets are
    /// untouched. Nonzero seeds randomize initial phases and add a tiny
    /// activity jitter (far below one VSIDS bump) that only reorders
    /// zero-activity ties, sending portfolio workers down different
    /// branches of the same search tree.
    fn diversify(&mut self) {
        if self.config.seed == 0 {
            return;
        }
        let mut state = self.config.seed;
        let mut next = move || {
            // SplitMix64: cheap, well-mixed, dependency-free.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for v in 0..self.num_vars {
            let bits = next();
            self.saved_phase[v] = bits & 1 == 1;
            self.activity[v] = (bits >> 11) as f64 * (1e-6 / (1u64 << 53) as f64);
        }
    }

    /// Builds an engine from a formula (objective, if any, is ignored —
    /// use [`crate::optimize`] for optimization).
    pub fn from_formula(formula: &PbFormula, config: EngineConfig) -> Self {
        let mut engine = PbEngine::new(formula.num_vars(), config);
        engine.add_formula(formula);
        engine
    }

    /// Adds every clause of `formula`, then every PB constraint, in order,
    /// as [`add_clause`](PbEngine::add_clause) and
    /// [`add_pb`](PbEngine::add_pb) would (the objective is ignored). Each
    /// watch and occurrence list grows once, to the count of its literal
    /// in the formula, and the clause arena once, to the formula's
    /// literal count. Attach a proof logger first to have root
    /// simplifications logged.
    ///
    /// # Panics
    ///
    /// Panics if a literal references a variable `>= num_vars`.
    pub fn add_formula(&mut self, formula: &PbFormula) {
        let clauses = formula.clauses();
        let mut watched = vec![0usize; self.watches.len()];
        for &l in clauses.literals() {
            if let Some(n) = watched.get_mut(l.code()) {
                *n += 1;
            }
        }
        let mut occurring = vec![0usize; self.occ.len()];
        let mut terms = 0;
        for pb in formula.pb_constraints() {
            terms += pb.len();
            for &(_, l) in pb.terms() {
                if let Some(n) = occurring.get_mut((!l).code()) {
                    *n += 1;
                }
            }
        }
        for (list, n) in self.watches.iter_mut().zip(watched) {
            list.reserve(n);
        }
        for (list, n) in self.occ.iter_mut().zip(occurring) {
            list.reserve(n);
        }
        self.clauses.reserve(clauses.len());
        self.arena.reserve(clauses.num_literals());
        self.pbs.reserve(formula.pb_constraints().len());
        self.pb_terms.reserve(terms);
        for clause in clauses {
            self.add_clause(clause.iter().copied());
        }
        for pb in formula.pb_constraints() {
            self.add_pb_constraint(pb);
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Statistics so far.
    pub fn stats(&self) -> PbStats {
        self.stats
    }

    /// Attaches a [`Recorder`]; subsequent solve calls flush counter
    /// deltas to it every 64 conflicts (the budget-check stride) and on
    /// solve exit. The default disabled recorder costs one branch per
    /// stride.
    ///
    /// # Example
    ///
    /// ```
    /// use sbgc_formula::PbFormula;
    /// use sbgc_obs::{Counter, Recorder};
    /// use sbgc_pb::{EngineConfig, PbEngine};
    ///
    /// let mut f = PbFormula::new();
    /// let a = f.new_var().positive();
    /// let b = f.new_var().positive();
    /// f.add_clause([a, b]);
    /// f.add_clause([!a, b]);
    ///
    /// let recorder = Recorder::new();
    /// let mut engine = PbEngine::from_formula(&f, EngineConfig::default());
    /// engine.set_recorder(recorder.clone());
    /// engine.solve();
    /// assert_eq!(recorder.counter(Counter::Propagations), engine.stats().propagations);
    /// ```
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Attaches a DRAT [`ProofLogger`] covering the engine's *clausal*
    /// path: root-simplified clause additions, learned clauses, database
    /// deletions and the final empty clause.
    ///
    /// Each learned clause is logged with its hint chain: the proof IDs of
    /// the reason clauses its 1UIP analysis resolved on and of the reasons
    /// of every literal recursive minimization removed or passed through,
    /// in trail order, ending with the conflict clause. A
    /// root-simplified clause's chain is its input clause. IDs follow the
    /// checker's numbering — the `i`-th [`add_clause`](PbEngine::add_clause)
    /// call after this one is ID `i`, and the sink's addition `n` is
    /// `inputs + n` — so chains close when every input clause is added
    /// after the logger and before the first solve; otherwise (or when a
    /// derivation used a PB explanation) the checker searches instead.
    ///
    /// The resulting proof is RUP-checkable only when the input is pure
    /// CNF. PB constraints are not logged, and learned clauses whose
    /// derivation resolved on a PB explanation are consequences of those
    /// constraints — not of the clause database alone — so proofs of mixed
    /// inputs must be treated as `Unchecked` (see `sbgc-core`'s
    /// certificate layer).
    pub fn set_proof_logger(&mut self, logger: Box<dyn ProofLogger>) {
        self.proof = Some(logger);
        self.clause_ids.resize(self.clauses.len(), NO_ID);
    }

    /// Enables or disables physical arena compaction after each
    /// `reduce_db` pass (default: enabled). Disabling restores the
    /// historical tombstone-only behavior.
    pub fn set_compaction(&mut self, compact: bool) {
        self.compact = compact;
    }

    /// Attaches a portfolio clause-sharing handle. Good learned clauses
    /// are exported through it and peer clauses are imported at solve
    /// start and at every restart (root level only — the hot loop never
    /// touches the pool's lock).
    ///
    /// Imported clauses are re-logged through the attached [`ProofLogger`]
    /// as DRAT additions. That is sound when every worker in the race logs
    /// into the *same* shared, adds-only log: the exporter's addition
    /// precedes the importer's re-log (the pool mutex orders them), so the
    /// duplicate add is trivially RUP.
    pub fn set_sharing(&mut self, handle: SharingHandle) {
        self.sharing = Some(handle);
    }

    /// Overrides the learned-clause limit that triggers database
    /// reduction (test knob; the default is derived from the constraint
    /// count on the first solve).
    pub fn set_max_learnts(&mut self, max_learnts: f64) {
        self.max_learnts = max_learnts;
    }

    /// Stored clauses, live or tombstoned. With compaction enabled this
    /// tracks [`PbEngine::live_clauses`].
    pub fn arena_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Bytes held by the clause store and the PB store: one fixed-size
    /// header per stored clause plus the literal arena, and one record per
    /// PB constraint plus the term arena. Tombstoned clauses count until
    /// compaction frees them; the PB store never shrinks. Compared against
    /// [`Budget::with_max_memory`] on the stride-64 budget path.
    pub fn arena_bytes(&self) -> u64 {
        use std::mem::size_of_val;
        (size_of_val(&self.clauses[..])
            + size_of_val(&self.arena[..])
            + size_of_val(&self.pbs[..])
            + size_of_val(&self.pb_terms[..])) as u64
    }

    /// The literals of stored clause `cref`.
    #[inline]
    fn clause_lits(&self, cref: usize) -> &[Lit] {
        &self.arena[self.clauses[cref].range()]
    }

    /// Whether stored clause `cref` is the reason of a literal on the
    /// trail. A reason clause's implied literal is always its first: it
    /// is enqueued from position 0, and propagation moves position 0 only
    /// when it holds the literal just falsified, never a true one.
    #[inline]
    fn locked(&self, cref: u32) -> bool {
        let first = self.arena[self.clauses[cref as usize].start as usize];
        self.lit_value(first) == VarValue::True
            && self.reason[first.var().index()] == Reason::Clause(cref)
    }

    /// Logs an addition with its hint chain — dropped whole when a link
    /// has no ID — and returns the ID to store for it (`NO_ID` without a
    /// logger).
    fn proof_add(&mut self, lits: &[Lit], hints: &[u32]) -> u32 {
        let Some(p) = self.proof.as_mut() else { return NO_ID };
        let hints = if hints.contains(&NO_ID) { &[][..] } else { hints };
        match p.log_add(lits, hints) {
            n if n < ADDED => ADDED | n,
            _ => NO_ID,
        }
    }

    /// Logs the empty clause, hinted by the root-level conflict `confl`.
    fn proof_refute(&mut self, confl: Reason) {
        if self.proof.is_some() {
            let hint = self.hint(confl);
            self.proof_add(&[], &[hint]);
        }
    }

    /// Logs the lemma just derived with the chain `analyze` collected;
    /// returns its ID.
    fn proof_lemma(&mut self, lits: &[Lit]) -> u32 {
        let chain = std::mem::take(&mut self.chain);
        let id = self.proof_add(lits, &chain);
        self.chain = chain;
        id
    }

    /// The proof ID a hint chain names for `reason`, in the checker's
    /// numbering: an input clause's index, or `inputs + n` for the sink's
    /// addition `n` — resolved now so that additions logged while inputs
    /// were still arriving count every input. `NO_ID` for PB reasons and
    /// clauses without an ID.
    fn hint(&self, reason: Reason) -> u32 {
        let Reason::Clause(cref) = reason else { return NO_ID };
        match self.clause_ids[cref as usize] {
            NO_ID => NO_ID,
            id if id & ADDED != 0 => self.inputs.checked_add(id & !ADDED).unwrap_or(NO_ID),
            id => id,
        }
    }

    /// Pushes any counter deltas accumulated since the last flush into the
    /// attached recorder. Solve calls flush on exit themselves; the
    /// portfolio calls this for workers that never entered a solve (their
    /// setup-time root propagations would otherwise go unreported).
    pub(crate) fn flush_recorder(&mut self) {
        self.flushed = self.stats.flush_delta(self.flushed, &self.recorder);
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> VarValue {
        self.vals[l.code()]
    }

    #[inline]
    fn var_value(&self, v: usize) -> VarValue {
        self.lit_value(Var::from_index(v).positive())
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a CNF clause (backtracks to the root level first).
    ///
    /// # Panics
    ///
    /// Panics if a literal references a variable `>= num_vars`.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        let mut id = NO_ID;
        if self.proof.is_some() {
            id = if self.inputs < ADDED { self.inputs } else { NO_ID };
            self.inputs = self.inputs.saturating_add(1);
        }
        self.backtrack_to(0);
        if !self.ok {
            return;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend(lits);
        self.add_simplified(&mut scratch, id);
        self.scratch = scratch;
    }

    /// [`add_clause`](PbEngine::add_clause)'s body on the literals in
    /// `lits`, which it sorts and simplifies in place.
    fn add_simplified(&mut self, lits: &mut Vec<Lit>, mut id: u32) {
        for l in lits.iter() {
            assert!(l.var().index() < self.num_vars, "literal {l} out of range");
        }
        lits.sort_unstable();
        lits.dedup();
        if lits.windows(2).any(|w| w[0].var() == w[1].var()) {
            return; // tautology
        }
        let before = lits.len();
        lits.retain(|&l| self.lit_value(l) != VarValue::False);
        if lits.iter().any(|&l| self.lit_value(l) == VarValue::True) {
            return;
        }
        if lits.len() != before {
            // The simplified clause is a derived (RUP) clause: its dropped
            // literals are root-falsified by earlier unit propagation, so
            // the input clause is falsified under its negation.
            id = self.proof_add(lits, &[id]);
        }
        match lits.len() {
            0 => self.ok = false,
            1 => {
                self.enqueue(lits[0], Reason::Decision);
                if let Some(confl) = self.propagate() {
                    self.proof_refute(confl);
                    self.ok = false;
                }
            }
            _ => {
                self.attach_clause(lits, false, id);
            }
        }
    }

    /// Adds a pseudo-Boolean constraint (backtracks to the root level
    /// first). Constraints that are really clauses are routed to the clause
    /// store.
    ///
    /// # Panics
    ///
    /// Panics if a literal references a variable `>= num_vars`.
    pub fn add_pb(&mut self, constraint: PbConstraint) {
        self.add_pb_constraint(&constraint);
    }

    /// [`add_pb`](PbEngine::add_pb) on a borrowed constraint.
    fn add_pb_constraint(&mut self, constraint: &PbConstraint) {
        self.backtrack_to(0);
        if !self.ok {
            return;
        }
        if constraint.is_trivially_true() {
            return;
        }
        if constraint.is_trivially_false() {
            self.ok = false;
            return;
        }
        if constraint.is_clause() {
            self.add_clause(constraint.terms().iter().map(|&(_, l)| l));
            return;
        }
        for &(_, l) in constraint.terms() {
            assert!(l.var().index() < self.num_vars, "literal {l} out of range");
        }
        let coeff_sum = constraint.coefficient_sum();
        let idx = self.pbs.len() as u32;
        // Slack under the current (root-level) assignment.
        let mut slack = coeff_sum as i64 - constraint.rhs() as i64;
        for &(a, l) in constraint.terms() {
            self.occ[(!l).code()].push((idx, a));
            if self.lit_value(l) == VarValue::False {
                slack -= a as i64;
            }
        }
        let start = arena_offset(self.pb_terms.len());
        self.pb_terms.extend_from_slice(constraint.terms());
        self.pbs.push(StoredPb {
            start,
            len: constraint.len() as u32,
            rhs: constraint.rhs(),
            coeff_sum,
            slack,
        });
        if slack < 0 {
            self.ok = false;
            return;
        }
        // Root-level propagations implied by the new constraint. Each
        // term has a variable of its own, so enqueueing one changes
        // neither this constraint's slack nor another term's value.
        for k in self.pbs[idx as usize].range() {
            let (a, l) = self.pb_terms[k];
            if self.lit_value(l) == VarValue::Undef && a as i64 > slack {
                self.enqueue(l, Reason::Pb(idx));
            }
        }
        if self.propagate().is_some() {
            self.ok = false;
        }
    }

    /// Stores a clause of two or more literals with proof ID `id` (kept
    /// only while a proof logger is attached) and watches it.
    fn attach_clause(&mut self, lits: &[Lit], learned: bool, id: u32) -> u32 {
        debug_assert!(lits.len() >= 2);
        let cref = self.clauses.len() as u32;
        if self.proof.is_some() {
            self.clause_ids.push(id);
        }
        self.watches[lits[0].code()].push(Watcher { clause: cref, blocker: lits[1] });
        self.watches[lits[1].code()].push(Watcher { clause: cref, blocker: lits[0] });
        let start = arena_offset(self.arena.len());
        self.arena.extend_from_slice(lits);
        self.clauses.push(ClauseHeader {
            start,
            len: lits.len() as u32,
            lbd: 0,
            learned,
            deleted: false,
            activity: 0.0,
        });
        cref
    }

    /// LBD ("literals block distance", glue): the number of distinct
    /// nonzero decision levels among the clause's literals. Computed with
    /// a generation-stamped scratch array, O(len) per clause.
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_gen += 1;
        let mut lbd = 0u32;
        for &l in lits {
            let lvl = self.level[l.var().index()] as usize;
            if lvl != 0 && self.lbd_stamp[lvl] != self.lbd_gen {
                self.lbd_stamp[lvl] = self.lbd_gen;
                lbd += 1;
            }
        }
        lbd.max(1)
    }

    fn enqueue(&mut self, l: Lit, reason: Reason) {
        debug_assert_eq!(self.lit_value(l), VarValue::Undef);
        let v = l.var().index();
        self.vals[l.code()] = VarValue::True;
        self.vals[(!l).code()] = VarValue::False;
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail_pos[v] = self.trail.len();
        if self.config.phase_saving {
            self.saved_phase[v] = !l.is_negated();
        }
        self.trail.push(l);
        self.stats.propagations += 1;
        // Apply PB slack updates *at assignment time* so they are exactly
        // paired with the restores in `backtrack_to`, even when a conflict
        // short-circuits queue processing.
        for i in 0..self.occ[l.code()].len() {
            let (idx, a) = self.occ[l.code()][i];
            self.pbs[idx as usize].slack -= a as i64;
        }
    }

    /// Propagates clauses and PB constraints to fixpoint.
    fn propagate(&mut self) -> Option<Reason> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            if let Some(confl) = self.propagate_clauses(p) {
                return Some(confl);
            }
            if let Some(confl) = self.propagate_pbs(p) {
                return Some(confl);
            }
        }
        None
    }

    fn propagate_clauses(&mut self, p: Lit) -> Option<Reason> {
        let false_lit = !p;
        let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
        let mut i = 0;
        let mut conflict = None;
        while i < ws.len() {
            let w = ws[i];
            if self.lit_value(w.blocker) == VarValue::True {
                i += 1;
                continue;
            }
            let header = &self.clauses[w.clause as usize];
            if header.deleted {
                ws.swap_remove(i);
                continue;
            }
            let lits = header.range();
            let (s, end) = (lits.start, lits.end);
            if self.arena[s] == false_lit {
                self.arena.swap(s, s + 1);
            }
            let first = self.arena[s];
            if self.lit_value(first) == VarValue::True {
                ws[i].blocker = first;
                i += 1;
                continue;
            }
            let mut moved = false;
            for k in s + 2..end {
                let cand = self.arena[k];
                if self.lit_value(cand) != VarValue::False {
                    self.arena.swap(s + 1, k);
                    self.watches[cand.code()].push(Watcher { clause: w.clause, blocker: first });
                    ws.swap_remove(i);
                    moved = true;
                    break;
                }
            }
            if moved {
                continue;
            }
            if self.lit_value(first) == VarValue::False {
                conflict = Some(Reason::Clause(w.clause));
                self.qhead = self.trail.len();
                break;
            }
            self.enqueue(first, Reason::Clause(w.clause));
            i += 1;
        }
        self.watches[false_lit.code()] = ws;
        conflict
    }

    fn propagate_pbs(&mut self, p: Lit) -> Option<Reason> {
        // Slacks were already updated in `enqueue`; here we detect
        // violations and propagate forced literals in the constraints
        // containing !p. Propagation never adds to an occurrence list.
        for j in 0..self.occ[p.code()].len() {
            let idx = self.occ[p.code()][j].0;
            let pb = &self.pbs[idx as usize];
            let slack = pb.slack;
            if slack < 0 {
                return Some(Reason::Pb(idx));
            }
            // Propagate unassigned literals with coefficient > slack. Each
            // term has a variable of its own, so enqueueing one changes
            // neither this constraint's slack nor another term's value.
            for k in pb.range() {
                let (coeff, l) = self.pb_terms[k];
                if coeff as i64 > slack && self.lit_value(l) == VarValue::Undef {
                    self.enqueue(l, Reason::Pb(idx));
                }
            }
        }
        None
    }

    fn backtrack_to(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target as usize];
        for i in (bound..self.trail.len()).rev() {
            let p = self.trail[i];
            let v = p.var().index();
            // Restore PB slacks.
            for &(idx, a) in &self.occ[p.code()] {
                self.pbs[idx as usize].slack += a as i64;
            }
            self.vals[p.code()] = VarValue::Undef;
            self.vals[(!p).code()] = VarValue::Undef;
            self.reason[v] = Reason::Decision;
            self.trail_pos[v] = NO_POS;
            self.heap.insert(v, &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(target as usize);
        self.qhead = bound;
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.increased(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: usize) {
        let c = &mut self.clauses[cref];
        if !c.learned {
            return;
        }
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for cl in &mut self.clauses {
                cl.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// The literals of `reason`: its stored clause, or for a PB reason the
    /// explanation [`PbEngine::explain_pb`] last materialized.
    #[inline]
    fn reason_lits(&self, reason: Reason) -> &[Lit] {
        match reason {
            Reason::Decision => unreachable!("a decision has no reason"),
            Reason::Clause(cref) => self.clause_lits(cref as usize),
            Reason::Pb(_) => &self.expl,
        }
    }

    /// Materializes into `expl` the clause explaining PB constraint `idx`'s
    /// propagation of `implied` (the implied literal first), or its
    /// conflict when `implied` is `None`, using only literals falsified
    /// before the implied literal.
    fn explain_pb(&mut self, idx: u32, implied: Option<Lit>) {
        let pb = &self.pbs[idx as usize];
        let cutoff = implied.map_or(usize::MAX, |l| self.trail_pos[l.var().index()]);
        self.false_terms.clear();
        let mut propagated_coeff = 0;
        for &(a, l) in &self.pb_terms[pb.range()] {
            if Some(l) == implied {
                propagated_coeff = a;
                continue;
            }
            if self.lit_value(l) == VarValue::False {
                let pos = self.trail_pos[l.var().index()];
                if pos < cutoff {
                    self.false_terms.push(FalseTerm { lit: l, coeff: a, trail_pos: pos });
                }
            }
        }
        self.expl.clear();
        self.expl.extend(implied);
        self.config.explain.select(
            pb.rhs,
            pb.coeff_sum,
            &mut self.false_terms,
            propagated_coeff,
            &mut self.expl,
        );
    }

    /// First-UIP conflict analysis of `confl` followed by recursive
    /// minimization; returns the learned clause (asserting literal first)
    /// and the backjump level. The clause is the `learnt` scratch buffer,
    /// which the caller hands back once it has stored it.
    ///
    /// A PB conflict's explanation must already be in `expl`: the caller
    /// builds it *before* any chronological pre-backtrack, because PB
    /// explanations are computed from the assignment at conflict time.
    /// With a proof logger `analyze` also fills `chain`: the reasons of
    /// every literal the derivation resolved away, in trail order, then
    /// the conflict.
    fn analyze(&mut self, confl: Reason) -> (Vec<Lit>, u32) {
        let current = self.decision_level();
        let mut learnt = std::mem::take(&mut self.learnt);
        learnt.clear();
        learnt.push(Lit::from_code(0));
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut reason = confl;
        let mut touched_pb = matches!(confl, Reason::Pb(_));
        self.resolved.clear();

        loop {
            if let Reason::Clause(cref) = reason {
                self.bump_clause(cref as usize);
            }
            for i in 0..self.reason_lits(reason).len() {
                let q = self.reason_lits(reason)[i];
                if p == Some(q) {
                    continue;
                }
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(v);
                    if self.level[v] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            let v = lit.var().index();
            self.seen[v] = false;
            counter -= 1;
            p = Some(lit);
            if counter == 0 {
                break;
            }
            reason = self.reason[v];
            if let Reason::Pb(idx) = reason {
                touched_pb = true;
                self.explain_pb(idx, p);
            }
            if self.proof.is_some() {
                self.push_resolved(lit);
            }
        }
        self.stats.pb_conflicts += u64::from(touched_pb);
        learnt[0] = !p.expect("asserting literal");

        // Recursive minimization (MiniSat's `litRedundant`): drop every
        // literal whose reasons lead, through clause and PB reasons alike,
        // only to literals of the clause or the root level.
        let abstract_levels =
            learnt[1..].iter().fold(0, |acc, &q| acc | self.abstract_level(q.var().index()));
        self.to_clear.clear();
        self.to_clear.extend_from_slice(&learnt);
        let mut kept = 1;
        for i in 1..learnt.len() {
            let q = learnt[i];
            if self.reason[q.var().index()] == Reason::Decision
                || !self.lit_redundant(q, abstract_levels)
            {
                learnt[kept] = q;
                kept += 1;
            }
        }
        learnt.truncate(kept);
        for &q in &self.to_clear {
            self.seen[q.var().index()] = false;
        }
        if self.proof.is_some() {
            // A reason names, besides the literal it implied, only literals
            // set earlier on the trail; so under the negated clause each
            // reason is unit once those before it in trail order have
            // propagated, and the conflict ends falsified.
            self.resolved.sort_unstable_by_key(|&(pos, _)| pos);
            self.chain.clear();
            self.chain.extend(self.resolved.iter().map(|&(_, hint)| hint));
            let hint = self.hint(confl);
            self.chain.push(hint);
        }

        let mut bt = 0;
        let mut max_i = 1;
        for (i, &q) in learnt.iter().enumerate().skip(1) {
            let lvl = self.level[q.var().index()];
            if lvl > bt {
                bt = lvl;
                max_i = i;
            }
        }
        if learnt.len() > 1 {
            learnt.swap(1, max_i);
        }
        (learnt, bt)
    }

    /// A 32-bit summary of `v`'s decision level, OR-ed over a clause's
    /// literals to reject most non-redundant literals without a walk.
    #[inline]
    fn abstract_level(&self, v: usize) -> u32 {
        1 << (self.level[v] & 31)
    }

    /// Whether the learned-clause literal `p` (false, implied) is implied
    /// by the clause's literals marked in `seen`: its reason's other
    /// literals are marked, at the root level, or — recursively — implied
    /// literals at a level in `abstract_levels` that pass the same test.
    /// Literals found redundant stay marked (in `to_clear`), so later
    /// calls reuse them; a failed call unmarks what it marked. On success
    /// with a proof logger, the reasons of `p` and of the literals passed
    /// through join `resolved`.
    fn lit_redundant(&mut self, p: Lit, abstract_levels: u32) -> bool {
        let top = self.to_clear.len();
        self.redundant_stack.clear();
        self.redundant_stack.push(p);
        while let Some(q) = self.redundant_stack.pop() {
            let qv = q.var().index();
            let reason = self.reason[qv];
            if let Reason::Pb(idx) = reason {
                self.explain_pb(idx, Some(!q));
            }
            for i in 0..self.reason_lits(reason).len() {
                let x = self.reason_lits(reason)[i];
                let v = x.var().index();
                if v == qv || self.seen[v] || self.level[v] == 0 {
                    continue;
                }
                if self.reason[v] == Reason::Decision
                    || self.abstract_level(v) & abstract_levels == 0
                {
                    for &l in &self.to_clear[top..] {
                        self.seen[l.var().index()] = false;
                    }
                    self.to_clear.truncate(top);
                    return false;
                }
                self.seen[v] = true;
                self.redundant_stack.push(x);
                self.to_clear.push(x);
            }
        }
        if self.proof.is_some() {
            self.push_resolved(p);
            for i in top..self.to_clear.len() {
                self.push_resolved(self.to_clear[i]);
            }
        }
        true
    }

    /// Records `q`'s trail position and reason hint in `resolved`.
    fn push_resolved(&mut self, q: Lit) {
        let v = q.var().index();
        let hint = self.hint(self.reason[v]);
        self.resolved.push((self.trail_pos[v], hint));
    }

    fn reduce_db(&mut self) {
        // Tiered mode protects the "core" tier (glue clauses, LBD ≤ 2)
        // from deletion entirely and ranks the rest worst-first by
        // (LBD desc, activity asc); classic mode is pure activity. Ties
        // keep clause order: the index is the last key, so the sort needs
        // no stable merge and no buffer of its own.
        let tiered = self.config.tiered_reduce;
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.clear();
        candidates.extend((0..self.clauses.len() as u32).filter(|&i| {
            let c = &self.clauses[i as usize];
            c.learned && !c.deleted && c.len > 2 && !(tiered && c.lbd <= CORE_LBD)
        }));
        let activity = |a: &ClauseHeader, b: &ClauseHeader| {
            a.activity.partial_cmp(&b.activity).unwrap_or(Equal)
        };
        if tiered {
            candidates.sort_unstable_by(|&a, &b| {
                let (ca, cb) = (&self.clauses[a as usize], &self.clauses[b as usize]);
                cb.lbd.cmp(&ca.lbd).then(activity(ca, cb)).then(a.cmp(&b))
            });
        } else {
            candidates.sort_unstable_by(|&a, &b| {
                activity(&self.clauses[a as usize], &self.clauses[b as usize]).then(a.cmp(&b))
            });
        }
        let half = candidates.len() / 2;
        for &i in candidates.iter().take(half) {
            if self.locked(i) {
                continue;
            }
            let range = self.clauses[i as usize].range();
            if let Some(p) = self.proof.as_mut() {
                p.log_delete(&self.arena[range]);
            }
            self.clauses[i as usize].deleted = true;
            self.stats.deleted += 1;
        }
        self.candidates = candidates;
        self.stats.reductions += 1;
        if self.compact {
            self.compact_db();
        }
    }

    /// Physically removes tombstoned clauses: moves every live clause's
    /// literals down over the dead ones, in place and in order, and remaps
    /// the clause references held by watch lists and trail reasons. Runs
    /// right after `reduce_db` (propagation at fixpoint; locked clauses
    /// were kept, so every `Reason::Clause` on the trail stays live). PB
    /// constraints are unaffected — `Reason::Pb` indexes a separate store
    /// that never shrinks.
    fn compact_db(&mut self) {
        const DEAD: u32 = u32::MAX;
        let dead = self.clauses.iter().filter(|c| c.deleted).count();
        if dead == 0 {
            return;
        }
        self.stats.reclaimed += dead as u64;
        let mut remap = std::mem::take(&mut self.remap);
        remap.clear();
        let (mut next, mut write) = (0usize, 0usize);
        for i in 0..self.clauses.len() {
            let header = self.clauses[i];
            if header.deleted {
                remap.push(DEAD);
                continue;
            }
            remap.push(next as u32);
            // Live ranges ascend, so a range only ever moves down.
            if header.start as usize != write {
                self.arena.copy_within(header.range(), write);
            }
            self.clauses[next] = ClauseHeader { start: write as u32, ..header };
            if !self.clause_ids.is_empty() {
                self.clause_ids[next] = self.clause_ids[i];
            }
            write += header.len as usize;
            next += 1;
        }
        self.clauses.truncate(next);
        self.arena.truncate(write);
        if !self.clause_ids.is_empty() {
            self.clause_ids.truncate(next);
        }
        for ws in &mut self.watches {
            ws.retain_mut(|w| {
                let m = remap[w.clause as usize];
                w.clause = m;
                m != DEAD
            });
        }
        for i in 0..self.trail.len() {
            let v = self.trail[i].var().index();
            if let Reason::Clause(r) = self.reason[v] {
                debug_assert_ne!(remap[r as usize], DEAD, "trail reason must stay live");
                self.reason[v] = Reason::Clause(remap[r as usize]);
            }
        }
        self.remap = remap;
    }

    /// Debug sweep of the clause-database invariants: every watcher
    /// references a live clause and watches its first two literals, and
    /// every clausal trail reason is a live clause containing the implied
    /// literal. Intended for tests.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut end = 0;
        for (cref, c) in self.clauses.iter().enumerate() {
            assert!(c.len >= 2, "clause {cref} has {} literals", c.len);
            assert!(c.start as usize >= end, "clause {cref} overlaps the clause before it");
            end = c.range().end;
        }
        assert!(end <= self.arena.len(), "the last clause ends past the arena");
        for (code, ws) in self.watches.iter().enumerate() {
            let watched = Lit::from_code(code);
            for w in ws {
                let c = &self.clauses[w.clause as usize];
                if c.deleted {
                    continue; // lazily dropped on the next propagation visit
                }
                let lits = self.clause_lits(w.clause as usize);
                assert!(
                    lits[0] == watched || lits[1] == watched,
                    "watcher for {watched} does not watch clause {}",
                    w.clause
                );
            }
        }
        for &l in &self.trail {
            if let Reason::Clause(r) = self.reason[l.var().index()] {
                assert!(!self.clauses[r as usize].deleted, "trail reason {r} is deleted");
                let first = self.clause_lits(r as usize)[0];
                assert_eq!(first, l, "reason clause {r} does not imply {l} from its first literal");
                assert!(self.locked(r), "reason clause {r} of {l} is not locked");
            }
        }
    }

    /// Drains the shared pool at a root-level boundary (solve start or
    /// restart), attaching every peer clause. No-op without a sharing
    /// handle or when the generation stamp shows nothing new.
    ///
    /// Sound for mixed CNF+PB inputs because every worker in a race solves
    /// the *identical* formula: a peer's learned clause is entailed by
    /// that formula even when its derivation resolved on PB explanations.
    fn import_shared(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        let batch = match self.sharing.as_mut() {
            Some(h) if h.has_new() => h.take_new(),
            _ => return,
        };
        for (lits, lbd) in batch {
            if !self.ok {
                return;
            }
            self.import_clause(&lits, lbd);
        }
    }

    /// Attaches one imported clause at the root level: satisfied clauses
    /// are skipped, root-falsified literals stripped, units enqueued and
    /// propagated. The (possibly strengthened) clause is logged as a DRAT
    /// addition — see [`PbEngine::set_sharing`] for why that is sound.
    fn import_clause(&mut self, lits: &[Lit], lbd: u32) {
        if lits.iter().any(|&l| self.lit_value(l) == VarValue::True) {
            return;
        }
        let mut kept = std::mem::take(&mut self.scratch);
        kept.clear();
        kept.extend(lits.iter().copied().filter(|&l| self.lit_value(l) != VarValue::False));
        self.stats.imported += 1;
        let id = self.proof_add(&kept, &[]);
        match kept.len() {
            0 => self.ok = false,
            1 => {
                self.enqueue(kept[0], Reason::Decision);
                if let Some(confl) = self.propagate() {
                    self.proof_refute(confl);
                    self.ok = false;
                }
            }
            _ => {
                let cref = self.attach_clause(&kept, true, id);
                self.clauses[cref as usize].lbd = lbd;
            }
        }
        self.scratch = kept;
    }

    /// Rephasing schedule (splr/CaDiCaL style): at widening conflict
    /// intervals, rotate through inverting all saved phases, resetting
    /// them to the default polarity, and leaving them untouched (a
    /// stabilization window). Runs at restarts, where flipping phases is
    /// free.
    fn maybe_rephase(&mut self) {
        if !self.config.rephase || self.stats.conflicts < self.next_rephase {
            return;
        }
        self.rephase_count += 1;
        self.next_rephase = self.stats.conflicts + REPHASE_BASE * self.rephase_count;
        match self.rephase_count % 3 {
            1 => {
                for p in &mut self.saved_phase {
                    *p = !*p;
                }
            }
            2 => {
                for p in &mut self.saved_phase {
                    *p = false;
                }
            }
            _ => {} // stabilize: keep the phases the search settled on
        }
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap.pop_max(&self.activity) {
            if self.var_value(v) == VarValue::Undef {
                let phase = self.saved_phase[v];
                return Some(Var::from_index(v).lit(!phase));
            }
        }
        None
    }

    fn next_restart_limit(&self, restarts: u64, luby: &mut Luby) -> u64 {
        self.config.restart.next_limit(restarts, luby)
    }

    /// Runs the search under `budget` and unit *assumptions*: the
    /// assumption literals are placed as the first decisions, and the
    /// search reports UNSAT if they cannot all hold. Unlike a genuine
    /// UNSAT result, an assumption-relative UNSAT leaves the engine usable
    /// for further queries (with different assumptions) and keeps every
    /// learned clause — the incremental-SAT interface of MiniSat-family
    /// solvers.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit], budget: &Budget) -> SolveOutcome {
        self.final_core.clear();
        self.solve_inner(assumptions, budget)
    }

    /// After an UNSAT answer from [`PbEngine::solve_with_assumptions`]:
    /// a subset of the assumptions that is already unsatisfiable together
    /// with the constraints (the *assumption core*, per MiniSat's
    /// `analyze_final`). Empty when the formula is UNSAT outright.
    pub fn assumption_core(&self) -> &[Lit] {
        &self.final_core
    }

    /// Derives the core: walks reasons backwards from the failed
    /// assumption `p` (whose negation holds on the trail), collecting the
    /// assumption decisions it depends on.
    fn analyze_final(&mut self, p: Lit) -> Vec<Lit> {
        let mut core = vec![p];
        if self.decision_level() == 0 {
            return core; // ¬p is formula-implied; p alone is a core
        }
        self.seen[p.var().index()] = true;
        let start = self.trail_lim[0];
        for i in (start..self.trail.len()).rev() {
            let q = self.trail[i];
            let v = q.var().index();
            if !self.seen[v] {
                continue;
            }
            match self.reason[v] {
                // Decisions below the failure point are assumptions; they
                // enter the core as assumed (q is on the trail as assumed).
                Reason::Decision => core.push(q),
                r => {
                    if let Reason::Pb(idx) = r {
                        self.explain_pb(idx, Some(q));
                    }
                    for i in 0..self.reason_lits(r).len() {
                        let x = self.reason_lits(r)[i];
                        if x != q && self.level[x.var().index()] > 0 {
                            self.seen[x.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[v] = false;
        }
        self.seen[p.var().index()] = false;
        core
    }

    /// Runs the search under `budget`.
    pub fn solve_with_budget(&mut self, budget: &Budget) -> SolveOutcome {
        self.solve_inner(&[], budget)
    }

    fn solve_inner(&mut self, assumptions: &[Lit], budget: &Budget) -> SolveOutcome {
        self.stats.exhaust = None;
        let out = self.search(assumptions, budget);
        if self.recorder.is_enabled() {
            self.flush_recorder();
        }
        out
    }

    fn search(&mut self, assumptions: &[Lit], budget: &Budget) -> SolveOutcome {
        // Arm the wall-clock countdown (no-op if an outer entry point, e.g.
        // the optimization loop, already armed it).
        let budget = budget.started();
        if budget.cancelled() {
            // A lost portfolio race; easy solves must not sneak past the
            // stride-64 check below.
            self.stats.exhaust = Some(ExhaustReason::Cancelled);
            return SolveOutcome::Unknown;
        }
        if !self.ok {
            return SolveOutcome::Unsat;
        }
        self.backtrack_to(0);
        if let Some(confl) = self.propagate() {
            self.proof_refute(confl);
            self.ok = false;
            return SolveOutcome::Unsat;
        }
        // Pick up everything peers learned before this solve began.
        self.import_shared();
        if !self.ok {
            return SolveOutcome::Unsat;
        }
        for v in 0..self.num_vars {
            if self.var_value(v) == VarValue::Undef {
                self.heap.insert(v, &self.activity);
            }
        }
        if self.max_learnts == 0.0 {
            self.max_learnts = ((self.clauses.len() + self.pbs.len()) as f64 / 3.0).max(1000.0);
        }
        let mut luby = Luby::new();
        let mut conflicts_until_restart = self.next_restart_limit(0, &mut luby);
        let mut budget_check = 0u32;

        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
                if self.decision_level() == 0 {
                    self.proof_refute(confl);
                    self.ok = false;
                    return SolveOutcome::Unsat;
                }
                // Materialize a PB conflict's explanation *before* any
                // chronological pre-backtrack: PB conflict explanations
                // are computed from the assignment at conflict time.
                if let Reason::Pb(idx) = confl {
                    self.explain_pb(idx, None);
                }
                if self.config.chrono {
                    // Guard for out-of-order trails: if the conflict has
                    // no literal at the current level, undo the levels
                    // above its maximum before analyzing.
                    let maxl = self
                        .reason_lits(confl)
                        .iter()
                        .map(|l| self.level[l.var().index()])
                        .max()
                        .unwrap_or(0);
                    if maxl == 0 {
                        self.proof_refute(confl);
                        self.ok = false;
                        return SolveOutcome::Unsat;
                    }
                    if maxl < self.decision_level() {
                        self.backtrack_to(maxl);
                    }
                }
                let (learnt, bt) = self.analyze(confl);
                let lbd = self.compute_lbd(&learnt);
                self.glue.observe(lbd);
                self.stats.lbd_sum += lbd as u64;
                let id = self.proof_lemma(&learnt);
                if let Some(h) = self.sharing.as_ref() {
                    if h.export(&learnt, lbd) {
                        self.stats.exported += 1;
                    }
                }
                // Chronological backtracking: a deep backjump discards a
                // still-consistent partial assignment; step back a single
                // level instead and keep it (the learned clause is unit
                // there too — its asserting literal was the only one at
                // the conflict level).
                let bt = if self.config.chrono
                    && learnt.len() > 1
                    && self.decision_level() - bt > CHRONO_THRESHOLD
                {
                    self.decision_level() - 1
                } else {
                    bt
                };
                self.backtrack_to(bt);
                self.stats.learned += 1;
                self.stats.learned_literals += learnt.len() as u64;
                if learnt.len() == 1 {
                    self.enqueue(learnt[0], Reason::Decision);
                } else {
                    let cref = self.attach_clause(&learnt, true, id);
                    self.clauses[cref as usize].lbd = lbd;
                    self.bump_clause(cref as usize);
                    self.enqueue(learnt[0], Reason::Clause(cref));
                }
                self.learnt = learnt;
                self.var_inc /= self.config.var_decay;
                self.cla_inc /= 0.999;

                budget_check += 1;
                if budget_check >= 64 {
                    budget_check = 0;
                    if let Some(reason) =
                        budget.exhaust_reason(self.stats.conflicts, self.arena_bytes())
                    {
                        self.stats.exhaust = Some(reason);
                        return SolveOutcome::Unknown;
                    }
                    // Same stride as the budget check: live readers see
                    // counter progress without a per-conflict branch.
                    if self.recorder.is_enabled() {
                        self.flush_recorder();
                    }
                } else if budget.conflicts_exhausted(self.stats.conflicts) {
                    self.stats.exhaust = Some(ExhaustReason::Conflicts);
                    return SolveOutcome::Unknown;
                }
            } else {
                if conflicts_until_restart == 0 {
                    // Adaptive mode restarts only when the glue trend says
                    // the search degraded; fixed schedules always restart.
                    let fire = match self.config.restart {
                        RestartPolicy::AdaptiveLbd { .. } => self.glue.restart_indicated(),
                        _ => true,
                    };
                    if fire {
                        self.stats.restarts += 1;
                        conflicts_until_restart =
                            self.next_restart_limit(self.stats.restarts, &mut luby);
                        self.backtrack_to(0);
                        self.glue.restarted();
                        self.import_shared();
                        self.maybe_rephase();
                        if !self.ok {
                            return SolveOutcome::Unsat;
                        }
                    } else {
                        // Re-check the trend after a short stride.
                        conflicts_until_restart = 8;
                    }
                }
                let live = (self.stats.learned - self.stats.deleted) as f64;
                if live >= self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.3;
                }
                // Re-establish assumptions as the first decision levels.
                if (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.lit_value(p) {
                        VarValue::True => {
                            // Already satisfied: open a dummy level so the
                            // level-to-assumption mapping stays aligned.
                            self.trail_lim.push(self.trail.len());
                        }
                        VarValue::False => {
                            // The assumption set is unsatisfiable with the
                            // current constraint store; this is an
                            // assumption-relative UNSAT (engine stays ok).
                            self.final_core = self.analyze_final(p);
                            self.backtrack_to(0);
                            return SolveOutcome::Unsat;
                        }
                        VarValue::Undef => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(p, Reason::Decision);
                        }
                    }
                    continue;
                }
                match self.pick_branch() {
                    None => {
                        let model = Assignment::from_bools(
                            (0..self.num_vars).map(|v| self.var_value(v) == VarValue::True),
                        );
                        return SolveOutcome::Sat(model);
                    }
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(l, Reason::Decision);
                    }
                }
            }
        }
    }

    /// Runs the search with an unlimited budget.
    pub fn solve(&mut self) -> SolveOutcome {
        self.solve_with_budget(&Budget::unlimited())
    }

    /// Adds the blocking clause forbidding the given total model (used by
    /// enumeration-style callers and tests).
    pub fn block_model(&mut self, model: &Assignment) {
        let lits: Vec<Lit> = model.iter_assigned().map(|(v, b)| v.lit(b)).collect();
        self.add_clause(lits);
    }

    /// Number of stored (non-deleted) clauses, for tests and diagnostics.
    pub fn live_clauses(&self) -> usize {
        self.clauses.iter().filter(|c| !c.deleted).count()
    }

    /// Number of live *learned* clauses — lemmas the engine has derived
    /// and not yet deleted. Across assumption queries this measures the
    /// state a persistent session retains from earlier ladder steps.
    pub fn live_learned(&self) -> usize {
        self.clauses.iter().filter(|c| c.learned && !c.deleted).count()
    }

    /// Number of stored PB constraints.
    pub fn num_pb_constraints(&self) -> usize {
        self.pbs.len()
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Exports the live learned clauses that pass `config`'s share filter
    /// (LBD and length caps) — the lemmas worth persisting in a solve
    /// checkpoint. Every returned clause is derived by resolution from the
    /// clause database alone (assumptions enter the search as decisions,
    /// never as axioms), so it is entailed by the formula plus whatever
    /// root units had been added when it was learned.
    pub fn export_learned(&self, config: SharingConfig) -> Vec<(Vec<Lit>, u32)> {
        self.clauses
            .iter()
            .filter(|c| {
                c.learned
                    && !c.deleted
                    && c.len as usize <= config.max_len
                    && c.lbd >= 1
                    && c.lbd <= config.max_lbd
            })
            .map(|c| (self.arena[c.range()].to_vec(), c.lbd))
            .collect()
    }

    /// Imports externally supplied learned clauses (a resumed checkpoint's
    /// retained lemmas) at the root level, exactly like clauses taken from
    /// a sharing pool: satisfied clauses are skipped, root-falsified
    /// literals stripped, units propagated. Only sound when each clause is
    /// entailed by the current formula — for checkpoint clauses that means
    /// the bounds committed before they were learned have been re-committed
    /// first (see `docs/ROBUSTNESS.md`).
    pub fn import_learned(&mut self, clauses: &[(Vec<Lit>, u32)]) {
        self.backtrack_to(0);
        for (lits, lbd) in clauses {
            if !self.ok {
                return;
            }
            self.import_clause(lits, *lbd);
        }
    }
}

impl fmt::Debug for PbEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PbEngine(vars={}, clauses={}, pbs={}, conflicts={})",
            self.num_vars,
            self.clauses.len(),
            self.pbs.len(),
            self.stats.conflicts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use sbgc_formula::Objective;

    fn default_engine(f: &PbFormula) -> PbEngine {
        PbEngine::from_formula(f, EngineConfig::default())
    }

    #[test]
    fn pure_cnf_still_works() {
        let mut f = PbFormula::new();
        let a = f.new_var().positive();
        let b = f.new_var().positive();
        f.add_clause([a, b]);
        f.add_clause([!a]);
        let mut e = default_engine(&f);
        match e.solve() {
            SolveOutcome::Sat(m) => assert!(m.satisfies(b)),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn exactly_one_propagates() {
        let mut f = PbFormula::new();
        let lits: Vec<Lit> = f.new_vars(3).into_iter().map(Var::positive).collect();
        f.add_exactly_one(&lits);
        f.add_unit(lits[1]);
        let mut e = default_engine(&f);
        match e.solve() {
            SolveOutcome::Sat(m) => {
                assert!(m.satisfies(lits[1]));
                assert!(m.satisfies(!lits[0]));
                assert!(m.satisfies(!lits[2]));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn cardinality_conflict_is_unsat() {
        // x0 + x1 + x2 >= 2 with x0, x1 false is UNSAT with x2 alone.
        let mut f = PbFormula::new();
        let lits: Vec<Lit> = f.new_vars(3).into_iter().map(Var::positive).collect();
        f.add_pb(PbConstraint::cardinality(lits.clone(), 2));
        f.add_unit(!lits[0]);
        f.add_unit(!lits[1]);
        let mut e = default_engine(&f);
        assert!(e.solve().is_unsat());
    }

    #[test]
    fn weighted_propagation() {
        // 3*x0 + x1 + x2 >= 3: forcing x1,x2 insufficient — x0 forced.
        let mut f = PbFormula::new();
        let lits: Vec<Lit> = f.new_vars(3).into_iter().map(Var::positive).collect();
        f.add_pb(PbConstraint::at_least([(3, lits[0]), (1, lits[1]), (1, lits[2])], 3));
        f.add_unit(!lits[1]);
        let mut e = default_engine(&f);
        match e.solve() {
            SolveOutcome::Sat(m) => assert!(m.satisfies(lits[0]), "x0 must be forced"),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn pb_pigeonhole_unsat() {
        // n+1 pigeons in n holes using exactly-one PB constraints per pigeon
        // and at-most-one per hole: UNSAT, exercises PB conflict analysis.
        let holes = 4;
        let pigeons = holes + 1;
        let mut f = PbFormula::new();
        let var = |p: usize, h: usize| Var::from_index(p * holes + h);
        let _ = f.new_vars(pigeons * holes);
        for p in 0..pigeons {
            let row: Vec<Lit> = (0..holes).map(|h| var(p, h).positive()).collect();
            f.add_exactly_one(&row);
        }
        for h in 0..holes {
            let col: Vec<Lit> = (0..pigeons).map(|p| var(p, h).positive()).collect();
            f.add_at_most_one(&col);
        }
        for strategy in [
            crate::ExplainStrategy::AllFalse,
            crate::ExplainStrategy::GreedyCoefficient,
            crate::ExplainStrategy::GreedyRecency,
        ] {
            let config = EngineConfig { explain: strategy, ..EngineConfig::default() };
            let mut e = PbEngine::from_formula(&f, config);
            assert!(e.solve().is_unsat(), "{strategy:?}");
        }
    }

    #[test]
    fn model_satisfies_mixed_formula() {
        let mut f = PbFormula::new();
        let lits: Vec<Lit> = f.new_vars(5).into_iter().map(Var::positive).collect();
        f.add_pb(PbConstraint::at_least(
            [(2, lits[0]), (3, lits[1]), (1, lits[2]), (2, lits[3])],
            4,
        ));
        f.add_at_most_one(&[lits[0], lits[4]]);
        f.add_clause([!lits[1], lits[4]]);
        let mut e = default_engine(&f);
        match e.solve() {
            SolveOutcome::Sat(m) => assert!(f.is_satisfied_by(&m)),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn objective_is_ignored_by_engine() {
        let mut f = PbFormula::new();
        let a = f.new_var().positive();
        f.add_clause([a]);
        f.set_objective(Objective::minimize([(1, a)]));
        let mut e = default_engine(&f);
        assert!(e.solve().is_sat());
    }

    #[test]
    fn block_model_enumerates() {
        let mut f = PbFormula::new();
        let lits: Vec<Lit> = f.new_vars(3).into_iter().map(Var::positive).collect();
        f.add_exactly_one(&lits);
        let mut e = default_engine(&f);
        let mut count = 0;
        while let SolveOutcome::Sat(m) = e.solve() {
            assert!(f.is_satisfied_by(&m));
            e.block_model(&m);
            count += 1;
            assert!(count <= 3, "too many models");
        }
        assert_eq!(count, 3);
    }

    #[test]
    fn memory_budget_stops_with_reason() {
        let holes = 6;
        let pigeons = holes + 1;
        let mut f = PbFormula::new();
        let var = |p: usize, h: usize| Var::from_index(p * holes + h);
        let _ = f.new_vars(pigeons * holes);
        for p in 0..pigeons {
            let row: Vec<Lit> = (0..holes).map(|h| var(p, h).positive()).collect();
            f.add_exactly_one(&row);
        }
        for h in 0..holes {
            let col: Vec<Lit> = (0..pigeons).map(|p| var(p, h).positive()).collect();
            f.add_at_most_one(&col);
        }
        let mut e = default_engine(&f);
        // A 1-byte cap trips at the first stride-64 check.
        let b = Budget::unlimited().with_max_memory(1);
        assert!(matches!(e.solve_with_budget(&b), SolveOutcome::Unknown));
        assert_eq!(e.stats().exhaust, Some(ExhaustReason::Memory));
        assert!(e.arena_bytes() > 1);
        // A definitive follow-up answer clears the status.
        assert!(e.solve().is_unsat());
        assert_eq!(e.stats().exhaust, None);
    }

    #[test]
    fn trivially_false_pb() {
        let mut f = PbFormula::new();
        let a = f.new_var().positive();
        f.add_pb(PbConstraint::at_least([(1, a)], 5));
        let mut e = default_engine(&f);
        assert!(e.solve().is_unsat());
    }

    #[test]
    fn geometric_restart_limit_saturates_at_high_counts() {
        // Regression: the limit used to be computed as a raw f64→u64 cast
        // with an unclamped i32 exponent; verify it now grows monotonically
        // and pins to u64::MAX instead of wrapping or going to garbage.
        let config = EngineConfig {
            restart: RestartPolicy::Geometric { first: 100, factor: 1.5 },
            ..EngineConfig::default()
        };
        let e = PbEngine::new(1, config);
        let mut luby = Luby::new();
        let mut prev = 0u64;
        for r in [0u64, 1, 10, 100, 400, 1_000, 10_000, 1 << 40, u64::MAX] {
            let lim = e.next_restart_limit(r, &mut luby);
            assert!(lim >= prev, "limit must be monotone: {lim} after {prev} (restarts={r})");
            assert!(lim >= 100, "limit must never drop below `first` (restarts={r})");
            prev = lim;
        }
        assert_eq!(e.next_restart_limit(10_000, &mut luby), u64::MAX);
        assert_eq!(e.next_restart_limit(u64::MAX, &mut luby), u64::MAX);
    }

    /// PHP(holes+1, holes) as pure clauses (no PB constraints).
    fn clausal_pigeonhole(holes: usize) -> (usize, Vec<Vec<Lit>>) {
        let pigeons = holes + 1;
        let var = |p: usize, h: usize| Var::from_index(p * holes + h);
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        for p in 0..pigeons {
            clauses.push((0..holes).map(|h| var(p, h).positive()).collect());
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    clauses.push(vec![var(p1, h).negative(), var(p2, h).negative()]);
                }
            }
        }
        (pigeons * holes, clauses)
    }

    /// A pure-CNF engine with `config`, loaded with `clauses`.
    fn clausal_engine(num_vars: usize, clauses: &[Vec<Lit>], config: EngineConfig) -> PbEngine {
        let mut e = PbEngine::new(num_vars, config);
        for c in clauses {
            e.add_clause(c.iter().copied());
        }
        e
    }

    fn lit(i: usize, neg: bool) -> Lit {
        Var::from_index(i).lit(neg)
    }

    #[test]
    fn trivially_sat() {
        let mut e = PbEngine::new(1, EngineConfig::default());
        e.add_clause([lit(0, false)]);
        assert!(e.solve().is_sat());
    }

    #[test]
    fn trivially_unsat() {
        let mut e = PbEngine::new(1, EngineConfig::default());
        e.add_clause([lit(0, false)]);
        e.add_clause([lit(0, true)]);
        assert!(e.solve().is_unsat());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut e = PbEngine::new(1, EngineConfig::default());
        e.add_clause(std::iter::empty());
        assert!(e.solve().is_unsat());
    }

    #[test]
    fn no_clauses_is_sat() {
        let mut e = PbEngine::new(3, EngineConfig::default());
        assert!(e.solve().is_sat());
    }

    #[test]
    fn chain_of_implications() {
        // x0, x0 -> x1, ..., x8 -> x9: root propagation forces every link.
        let mut e = PbEngine::new(10, EngineConfig::default());
        e.add_clause([lit(0, false)]);
        for i in 0..9 {
            e.add_clause([lit(i, true), lit(i + 1, false)]);
        }
        let m = e.solve().model().cloned().expect("SAT");
        assert!((0..10).all(|i| m.satisfies(lit(i, false))));
    }

    #[test]
    fn unsat_xor_chain() {
        // x0 != x1, x1 != x2, x2 != x0 (an odd cycle of XORs): UNSAT.
        let mut e = PbEngine::new(3, EngineConfig::default());
        for (a, b) in [(0, 1), (1, 2), (2, 0)] {
            e.add_clause([lit(a, false), lit(b, false)]);
            e.add_clause([lit(a, true), lit(b, true)]);
        }
        assert!(e.solve().is_unsat());
    }

    #[test]
    fn pigeonhole_unsat() {
        for holes in 2..=5 {
            let (n, clauses) = clausal_pigeonhole(holes);
            let mut e = clausal_engine(n, &clauses, EngineConfig::default());
            assert!(e.solve().is_unsat(), "PHP({}) must be UNSAT", holes + 1);
        }
    }

    #[test]
    fn model_satisfies_formula() {
        // A small satisfiable 3-SAT instance; any model returned must hold.
        let mut f = PbFormula::with_vars(8);
        let cls: [[i64; 3]; 10] = [
            [1, -2, 3],
            [-1, 2, 4],
            [2, -3, -4],
            [5, 6, -7],
            [-5, -6, 8],
            [1, 7, -8],
            [-2, -7, 8],
            [3, -5, 7],
            [-3, 4, -6],
            [-1, -4, 6],
        ];
        for c in cls {
            f.add_clause(c.iter().map(|&d| Lit::from_dimacs(d)));
        }
        match default_engine(&f).solve() {
            SolveOutcome::Sat(m) => assert!(f.is_satisfied_by(&m)),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn incremental_clause_addition() {
        // Clauses added between solves keep tightening the same engine.
        let mut e = PbEngine::new(2, EngineConfig::default());
        e.add_clause([lit(0, false), lit(1, false)]);
        assert!(e.solve().is_sat());
        e.add_clause([lit(0, true)]);
        assert!(e.solve().is_sat());
        e.add_clause([lit(1, true)]);
        assert!(e.solve().is_unsat());
    }

    #[test]
    fn assumptions_work_incrementally() {
        let mut e = PbEngine::new(3, EngineConfig::default());
        e.add_clause([lit(0, false), lit(1, false), lit(2, false)]);
        // Assume all false: UNSAT, but only relative to the assumptions.
        let all_false = [lit(0, true), lit(1, true), lit(2, true)];
        assert!(e.solve_with_assumptions(&all_false, &Budget::unlimited()).is_unsat());
        // Drop one assumption: SAT, with the remaining literal true.
        let out = e.solve_with_assumptions(&all_false[..2], &Budget::unlimited());
        assert!(out.model().expect("SAT").satisfies(lit(2, false)));
        assert!(e.solve().is_sat());
    }

    #[test]
    fn budget_returns_unknown() {
        let (n, clauses) = clausal_pigeonhole(7);
        let mut e = clausal_engine(n, &clauses, EngineConfig::default());
        let b = Budget::unlimited().with_max_conflicts(1);
        assert!(matches!(e.solve_with_budget(&b), SolveOutcome::Unknown));
    }

    #[test]
    fn budget_exhaust_reason_conflicts() {
        let (n, clauses) = clausal_pigeonhole(7);
        let mut e = clausal_engine(n, &clauses, EngineConfig::default());
        let b = Budget::unlimited().with_max_conflicts(1);
        assert!(matches!(e.solve_with_budget(&b), SolveOutcome::Unknown));
        assert_eq!(e.stats().exhaust, Some(ExhaustReason::Conflicts));
    }

    #[test]
    fn definitive_answer_clears_exhaust() {
        let (n, clauses) = clausal_pigeonhole(4);
        let mut e = clausal_engine(n, &clauses, EngineConfig::default());
        let _ = e.solve_with_budget(&Budget::unlimited().with_max_conflicts(1));
        assert!(e.stats().exhaust.is_some());
        assert!(e.solve().is_unsat());
        assert_eq!(e.stats().exhaust, None);
    }

    #[test]
    fn stats_accumulate() {
        let (n, clauses) = clausal_pigeonhole(4);
        let mut e = clausal_engine(n, &clauses, EngineConfig::default());
        let _ = e.solve();
        let st = e.stats();
        assert!(st.conflicts > 0);
        assert!(st.propagations > 0);
        assert_eq!(st.pb_conflicts, 0, "pure CNF never resolves on a PB constraint");
    }

    #[test]
    fn arena_bytes_tracks_additions_and_compaction() {
        let mut e = PbEngine::new(3, EngineConfig::default());
        assert_eq!(e.arena_bytes(), 0);
        e.add_clause([lit(0, false), lit(1, false)]);
        let after_one = e.arena_bytes();
        assert!(after_one > 0);
        e.add_clause([lit(0, true), lit(2, false)]);
        assert!(e.arena_bytes() > after_one);
    }

    #[test]
    fn lbd_is_tracked_for_learned_clauses() {
        let (n, clauses) = clausal_pigeonhole(5);
        let mut e = clausal_engine(n, &clauses, EngineConfig::default());
        assert!(e.solve().is_unsat());
        let st = e.stats();
        assert!(st.learned > 0);
        assert!(st.lbd_sum >= st.learned, "every learned clause has LBD >= 1");
        assert!(st.lbd_sum <= st.learned_literals, "LBD never exceeds clause length");
    }

    #[test]
    fn chrono_backjumps_stay_correct_with_tiny_threshold() {
        // The shipped threshold is high; the machinery itself is exercised
        // by forcing frequent reductions + restarts on a larger instance.
        let (n, clauses) = clausal_pigeonhole(6);
        let config = EngineConfig {
            chrono: true,
            restart: RestartPolicy::Luby { base: 8 },
            ..EngineConfig::default()
        };
        let mut e = clausal_engine(n, &clauses, config);
        e.set_max_learnts(20.0);
        assert!(e.solve().is_unsat());
        e.check_invariants();
    }

    #[test]
    fn tiered_reduction_protects_core_clauses() {
        let (n, clauses) = clausal_pigeonhole(6);
        let config = EngineConfig { tiered_reduce: true, ..EngineConfig::default() };
        let mut e = clausal_engine(n, &clauses, config);
        e.set_max_learnts(20.0);
        assert!(e.solve().is_unsat());
        assert!(e.stats().reductions > 0, "reduction must have run");
        // The invariant check covers the surviving learned clauses with
        // LBD <= 2: no core clause was ever tombstoned.
        e.check_invariants();
    }

    #[test]
    fn pops_in_activity_order() {
        let activity = vec![0.5, 2.0, 1.0, 3.0];
        let mut h = ActivityHeap::with_capacity(4);
        for v in 0..4 {
            h.insert(v, &activity);
        }
        let order: Vec<usize> = std::iter::from_fn(|| h.pop_max(&activity)).collect();
        assert_eq!(order, vec![3, 1, 2, 0]);
    }

    #[test]
    fn insert_is_idempotent() {
        let activity = vec![1.0, 2.0];
        let mut h = ActivityHeap::with_capacity(2);
        h.insert(0, &activity);
        h.insert(0, &activity);
        h.insert(1, &activity);
        assert_eq!(h.pop_max(&activity), Some(1));
        assert_eq!(h.pop_max(&activity), Some(0));
        assert_eq!(h.pop_max(&activity), None);
    }

    #[test]
    fn increased_restores_order() {
        let mut activity = vec![1.0, 2.0, 3.0];
        let mut h = ActivityHeap::with_capacity(3);
        for v in 0..3 {
            h.insert(v, &activity);
        }
        activity[0] = 10.0;
        h.increased(0, &activity);
        assert_eq!(h.pop_max(&activity), Some(0));
    }

    /// Mixed CNF+PB pigeonhole (UNSAT), the engine's hardest small case.
    fn mixed_pigeonhole(holes: usize) -> PbFormula {
        let pigeons = holes + 1;
        let mut f = PbFormula::new();
        let var = |p: usize, h: usize| Var::from_index(p * holes + h);
        let _ = f.new_vars(pigeons * holes);
        for p in 0..pigeons {
            let row: Vec<Lit> = (0..holes).map(|h| var(p, h).positive()).collect();
            f.add_exactly_one(&row);
        }
        for h in 0..holes {
            let col: Vec<Lit> = (0..pigeons).map(|p| var(p, h).positive()).collect();
            f.add_at_most_one(&col);
        }
        f
    }

    #[test]
    fn modern_knobs_preserve_answers() {
        let unsat = mixed_pigeonhole(4);
        let mut sat = PbFormula::new();
        let lits: Vec<Lit> = sat.new_vars(6).into_iter().map(Var::positive).collect();
        sat.add_pb(PbConstraint::at_least(
            [(2, lits[0]), (3, lits[1]), (1, lits[2]), (2, lits[3])],
            4,
        ));
        sat.add_at_most_one(&[lits[0], lits[4]]);
        sat.add_clause([!lits[1], lits[5]]);
        let policies = [
            RestartPolicy::Luby { base: 8 },
            RestartPolicy::Geometric { first: 8, factor: 1.5 },
            RestartPolicy::AdaptiveLbd { min_interval: 16 },
        ];
        for &restart in &policies {
            for &(chrono, rephase, tiered) in
                &[(true, false, false), (false, true, true), (true, true, true)]
            {
                let config = EngineConfig {
                    restart,
                    chrono,
                    rephase,
                    tiered_reduce: tiered,
                    ..EngineConfig::default()
                };
                let mut e = PbEngine::from_formula(&unsat, config);
                e.set_max_learnts(20.0);
                assert!(e.solve().is_unsat(), "{restart:?} chrono={chrono} tiered={tiered}");
                e.check_invariants();
                let mut e = PbEngine::from_formula(&sat, config);
                match e.solve() {
                    SolveOutcome::Sat(m) => assert!(sat.is_satisfied_by(&m), "{restart:?}"),
                    other => panic!("expected SAT with {restart:?}, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn pb_conflicts_count_each_conflict_at_most_once() {
        let mut e = default_engine(&mixed_pigeonhole(6));
        assert!(e.solve().is_unsat());
        let st = e.stats();
        assert!(st.pb_conflicts > 0, "PB pigeonhole conflicts resolve on PB reasons");
        assert!(st.pb_conflicts <= st.conflicts, "{} of {}", st.pb_conflicts, st.conflicts);
    }

    #[test]
    fn recursive_minimization_removes_what_the_local_check_keeps() {
        // Assuming a then c: a implies x, x implies y (level 1); c and y
        // imply p, and p, a, c conflict (level 2). 1UIP learns
        // (¬c ∨ ¬a ∨ ¬y). Locally ¬y stays: its reason (¬x ∨ y) names x,
        // which is not in the clause. Recursively x's reason (¬a ∨ x) ends
        // at ¬a, which is, so ¬y drops out — whether x's reason is a
        // clause or an at-most-one PB explanation.
        let [a, x, y, c, p, e] = [0, 1, 2, 3, 4, 5].map(|i| lit(i, false));
        for pb in [false, true] {
            let mut f = PbFormula::with_vars(6);
            if pb {
                f.add_at_most_one(&[a, !x, e]);
            } else {
                f.add_clause([!a, x]);
            }
            f.add_clause([!x, y]);
            f.add_clause([!c, !y, p]);
            f.add_clause([!p, !a, !c]);
            let mut engine = default_engine(&f);
            assert!(engine.solve_with_assumptions(&[a, c], &Budget::unlimited()).is_unsat());
            let all = SharingConfig { max_lbd: u32::MAX, max_len: usize::MAX };
            let learned = engine.export_learned(all);
            assert_eq!(learned.len(), 1, "pb={pb}: {learned:?}");
            let mut lits = learned[0].0.clone();
            lits.sort_unstable();
            assert_eq!(lits, [!a, !c], "pb={pb}");
            assert_eq!(engine.stats().pb_conflicts, 0, "pb={pb}: 1UIP resolved clauses only");
        }
    }

    #[test]
    fn sharing_relays_clauses_between_engines() {
        use sbgc_sat::{SharedClausePool, SharingConfig};
        let f = mixed_pigeonhole(4);
        let pool = SharedClausePool::new();
        let mut a = PbEngine::from_formula(&f, EngineConfig::default());
        a.set_sharing(pool.handle(0, SharingConfig::default()));
        assert!(a.solve().is_unsat());
        assert!(a.stats().exported > 0, "refutation must export glue clauses");
        assert_eq!(a.stats().imported, 0, "nothing to import from an empty pool");
        // A second engine starting later sees A's full history at solve
        // start and must still reach the same answer.
        let mut b = PbEngine::from_formula(&f, EngineConfig::default());
        b.set_sharing(pool.handle(1, SharingConfig::default()));
        assert!(b.solve().is_unsat());
        assert!(b.stats().imported > 0, "peer clauses must be imported");
        b.check_invariants();
    }

    #[test]
    fn sharing_relays_clauses_between_solvers() {
        // The pure-CNF counterpart of the mixed test above: every conflict
        // is clausal, so exports and imports go through clause analysis only.
        use sbgc_sat::{SharedClausePool, SharingConfig};
        let (n, clauses) = clausal_pigeonhole(5);
        let pool = SharedClausePool::new();
        let mut a = clausal_engine(n, &clauses, EngineConfig::default());
        a.set_sharing(pool.handle(0, SharingConfig::default()));
        assert!(a.solve().is_unsat());
        assert!(a.stats().exported > 0, "refuting PHP(6,5) must export glue clauses");
        assert_eq!(a.stats().imported, 0, "own exports are never re-imported");
        let mut b = clausal_engine(n, &clauses, EngineConfig::default());
        b.set_sharing(pool.handle(1, SharingConfig::default()));
        assert!(b.solve().is_unsat());
        assert!(b.stats().imported > 0, "peer clauses must be imported at solve start");
        b.check_invariants();
    }

    #[test]
    fn sharing_preserves_sat_answers() {
        use sbgc_sat::{SharedClausePool, SharingConfig};
        // PHP(n, n) — one pigeon fewer — is satisfiable but conflict-rich,
        // so engines exchange clauses and must still produce real models.
        let holes = 5;
        let var = |p: usize, h: usize| Var::from_index(p * holes + h);
        let mut f = PbFormula::with_vars(holes * holes);
        for p in 0..holes {
            f.add_clause((0..holes).map(|h| var(p, h).positive()));
        }
        for h in 0..holes {
            for p1 in 0..holes {
                for p2 in p1 + 1..holes {
                    f.add_clause([var(p1, h).negative(), var(p2, h).negative()]);
                }
            }
        }
        let pool = SharedClausePool::new();
        for source in 0..2 {
            let mut e = default_engine(&f);
            e.set_sharing(pool.handle(source, SharingConfig::default()));
            let out = e.solve();
            assert!(f.is_satisfied_by(out.model().expect("SAT")), "engine {source}");
        }
    }

    #[test]
    fn imported_clauses_are_drat_logged_and_check() {
        use sbgc_proof::{AddsOnlyProofLogger, SharedProof};
        use sbgc_sat::{SharedClausePool, SharingConfig};
        let (n, clauses) = clausal_pigeonhole(4);
        let pool = SharedClausePool::new();
        let shared = SharedProof::new();
        // Worker A refutes and exports; worker B imports A's clauses and
        // re-logs them. Both log additions into ONE shared log (deletions
        // suppressed), so the combined proof must check.
        for source in 0..2 {
            let mut e = PbEngine::new(n, EngineConfig::default());
            e.set_proof_logger(Box::new(AddsOnlyProofLogger::new(shared.clone())));
            e.set_sharing(pool.handle(source, SharingConfig::default()));
            for c in &clauses {
                e.add_clause(c.iter().copied());
            }
            assert!(e.solve().is_unsat());
            if source == 1 {
                assert!(e.stats().imported > 0, "second worker must import");
            }
        }
        let proof = shared.take();
        assert_eq!(proof.num_deletes(), 0);
        sbgc_proof::check_drat(n, &clauses, &proof)
            .expect("proof with imported clauses must check");
    }

    #[test]
    fn compaction_reclaims_tombstones() {
        let (n, clauses) = clausal_pigeonhole(5);
        let mut e = PbEngine::new(n, EngineConfig::default());
        e.set_max_learnts(10.0);
        for c in &clauses {
            e.add_clause(c.iter().copied());
        }
        assert!(e.solve().is_unsat());
        let st = e.stats();
        assert!(st.reductions > 0);
        assert!(st.deleted > 0);
        assert_eq!(st.reclaimed, st.deleted, "every tombstone must be reclaimed");
        assert_eq!(e.arena_clauses(), e.live_clauses());
        e.check_invariants();
    }

    #[test]
    fn arena_compaction_keeps_invariants_and_hint_chains() {
        use sbgc_proof::SharedProof;
        // Solve in slices of 50 conflicts with a tiny learned-clause
        // limit, so the arena is reduced and compacted many times while a
        // proof logger numbers every clause.
        let (n, clauses) = clausal_pigeonhole(6);
        let shared = SharedProof::new();
        let mut e = PbEngine::new(n, EngineConfig::default());
        e.set_proof_logger(Box::new(shared.clone()));
        for c in &clauses {
            e.add_clause(c.iter().copied());
        }
        e.set_max_learnts(20.0);
        let slice = |e: &PbEngine| Budget::unlimited().with_max_conflicts(e.stats().conflicts + 50);
        let outcome = loop {
            let outcome = e.solve_with_budget(&slice(&e));
            e.check_invariants();
            if !matches!(outcome, SolveOutcome::Unknown) {
                break outcome;
            }
        };
        assert!(outcome.is_unsat());
        let st = e.stats();
        assert!(st.reductions >= 3, "{} reductions", st.reductions);
        assert_eq!(st.reclaimed, st.deleted, "every tombstone must be reclaimed");

        // Deletions name the clauses' literals as the arena holds them,
        // and every lemma's chain names clauses by their proof IDs across
        // the compactions: the checker finds each deleted clause and
        // closes every addition by its chain alone.
        let proof = shared.take();
        assert_eq!(proof.num_deletes() as u64, st.deleted);
        let checked = sbgc_proof::check_drat(n, &clauses, &proof).expect("the proof checks");
        assert_eq!((checked.chained, checked.searched), (checked.adds, 0));

        // The arena holds the live clauses' headers and literals, nothing
        // more.
        let live: Vec<&ClauseHeader> = e.clauses.iter().filter(|c| !c.deleted).collect();
        let literals: usize = live.iter().map(|c| c.len as usize).sum();
        assert_eq!(live.len(), e.arena_clauses());
        assert_eq!(
            e.arena_bytes() as usize,
            live.len() * std::mem::size_of::<ClauseHeader>()
                + literals * std::mem::size_of::<Lit>()
        );
    }

    #[test]
    fn reduction_breaks_ranking_ties_by_clause_order() {
        // Six learned clauses of equal LBD and activity: as a stable sort
        // of the candidates would, reduction deletes the older half, in
        // classic and tiered mode alike.
        for tiered_reduce in [false, true] {
            let mut e = PbEngine::new(8, EngineConfig { tiered_reduce, ..EngineConfig::default() });
            for i in 0..6 {
                let cref =
                    e.attach_clause(&[lit(i, false), lit(i + 1, true), lit(7, false)], true, NO_ID);
                e.clauses[cref as usize].lbd = 4;
            }
            e.reduce_db();
            let firsts: Vec<Lit> = (0..e.arena_clauses()).map(|c| e.clause_lits(c)[0]).collect();
            assert_eq!(
                firsts,
                [lit(3, false), lit(4, false), lit(5, false)],
                "tiered {tiered_reduce}"
            );
            assert_eq!(e.stats().deleted, 3);
            e.check_invariants();
        }
    }

    #[test]
    fn compaction_equivalence_with_mixed_constraints() {
        // The PB store is untouched by compaction; mixed instances must
        // give the same answer with and without it.
        let holes = 4;
        let pigeons = holes + 1;
        let mut f = PbFormula::new();
        let var = |p: usize, h: usize| Var::from_index(p * holes + h);
        let _ = f.new_vars(pigeons * holes);
        for p in 0..pigeons {
            let row: Vec<Lit> = (0..holes).map(|h| var(p, h).positive()).collect();
            f.add_exactly_one(&row);
        }
        for h in 0..holes {
            let col: Vec<Lit> = (0..pigeons).map(|p| var(p, h).positive()).collect();
            f.add_at_most_one(&col);
        }
        for compact in [true, false] {
            let mut e = default_engine(&f);
            e.set_compaction(compact);
            e.set_max_learnts(10.0);
            assert!(e.solve().is_unsat(), "compact={compact}");
            e.check_invariants();
            if !compact {
                assert_eq!(e.stats().reclaimed, 0);
            }
        }
    }

    #[test]
    fn exported_learned_clauses_respect_the_share_filter() {
        let f = mixed_pigeonhole(4);
        let mut e = default_engine(&f);
        assert!(e.solve().is_unsat());
        let tight = SharingConfig { max_lbd: 2, max_len: 3 };
        for (lits, lbd) in e.export_learned(tight) {
            assert!(!lits.is_empty());
            assert!(lits.len() <= 3);
            assert!((1..=2).contains(&lbd));
        }
        let loose = e.export_learned(SharingConfig { max_lbd: u32::MAX, max_len: usize::MAX });
        assert!(!loose.is_empty(), "a refutation must leave live learned clauses");
        assert!(loose.len() >= e.export_learned(tight).len());
    }

    #[test]
    fn import_learned_round_trips_into_a_fresh_engine() {
        let f = mixed_pigeonhole(4);
        let mut a = default_engine(&f);
        assert!(a.solve().is_unsat());
        let batch = a.export_learned(SharingConfig::default());
        assert!(!batch.is_empty());
        // A fresh engine on the same formula can absorb the batch at the
        // root and must still reach the same answer.
        let mut b = default_engine(&f);
        b.import_learned(&batch);
        assert!(b.stats().imported > 0, "round-tripped clauses must be imported");
        assert!(b.solve().is_unsat());
        b.check_invariants();
    }
}
