//! The formula check behind [`LitPermutation::preserves`]: a canonical
//! index of a formula's constraints, built once and queried per
//! permutation.
//!
//! Clauses and PB constraints are each grouped into *classes* of equal
//! canonical form (a clause as its sorted, duplicate-free literal codes; a
//! PB constraint as its sorted `(coefficient, literal)` terms and its
//! right-hand side), with each class's multiplicity and, per variable, the
//! classes whose form mentions it.
//!
//! A literal permutation π acts on canonical forms as a bijection, and the
//! formula is preserved iff every form keeps its multiplicity under it.
//! Only forms that mention a variable of π's support (phase-shifted
//! variables included) can move, and their images mention the support
//! too, since π maps the support onto itself. So π preserves the formula
//! iff each class touching the support maps to a class of equal
//! multiplicity: π then maps the finitely many classes touching the
//! support injectively into themselves, hence onto themselves.

use crate::litperm::LitPermutation;
use sbgc_formula::{Lit, PbFormula, Var};
use std::collections::hash_map::{Entry, HashMap};
use std::hash::Hash;

/// The canonical index of one formula (see the module docs).
pub(crate) struct FormulaIndex {
    num_vars: usize,
    clauses: Classes<u32>,
    /// Forms are `[(rhs, 0), terms…]`: the first entry holds the
    /// right-hand side, the rest are the sorted terms.
    pbs: Classes<(u64, u32)>,
    /// Sorted `(coefficient, literal code)` terms of the objective.
    objective: Option<Vec<(u64, u32)>>,
}

impl FormulaIndex {
    pub(crate) fn new(formula: &PbFormula) -> Self {
        let num_vars = formula.num_vars();
        let mut clauses = Classes::new(num_vars, formula.clauses().len());
        for c in formula.clauses() {
            let mut form: Vec<u32> = c.iter().map(|l| l.code() as u32).collect();
            form.sort_unstable();
            form.dedup();
            clauses.insert(form, c.iter().map(|l| l.var()));
        }
        let mut pbs = Classes::new(num_vars, formula.pb_constraints().len());
        for c in formula.pb_constraints() {
            let mut form = vec![(c.rhs(), 0)];
            form.extend(c.terms().iter().map(|&(a, l)| (a, l.code() as u32)));
            form[1..].sort_unstable();
            pbs.insert(form, c.terms().iter().map(|&(_, l)| l.var()));
        }
        let objective = formula.objective().map(|obj| {
            let mut terms: Vec<(u64, u32)> =
                obj.terms().iter().map(|&(a, l)| (a, l.code() as u32)).collect();
            terms.sort_unstable();
            terms
        });
        FormulaIndex { num_vars, clauses, pbs, objective }
    }

    /// Whether `p` maps the indexed formula onto itself.
    pub(crate) fn is_preserved_by(&self, p: &LitPermutation) -> bool {
        if p.num_vars() != self.num_vars {
            return false;
        }
        let image = |code: u32| p.apply(Lit::from_code(code as usize)).code() as u32;
        let support = p.support();
        self.clauses.preserved(&support, |form, buf| {
            buf.extend(form.iter().map(|&c| image(c)));
            buf.sort_unstable();
        }) && self.pbs.preserved(&support, |form, buf| {
            buf.push(form[0]);
            buf.extend(form[1..].iter().map(|&(a, c)| (a, image(c))));
            buf[1..].sort_unstable();
        }) && self.objective.as_ref().is_none_or(|terms| {
            let mut mapped: Vec<(u64, u32)> = terms.iter().map(|&(a, c)| (a, image(c))).collect();
            mapped.sort_unstable();
            mapped == *terms
        })
    }
}

/// Constraints of one kind grouped by canonical form.
struct Classes<T> {
    /// The class of each canonical form.
    class_of: HashMap<Vec<T>, usize>,
    /// Canonical form and multiplicity of each class.
    classes: Vec<(Vec<T>, usize)>,
    /// Per variable, the classes whose form mentions it.
    by_var: Vec<Vec<usize>>,
}

impl<T: Copy + Eq + Hash> Classes<T> {
    fn new(num_vars: usize, constraints: usize) -> Self {
        Classes {
            class_of: HashMap::with_capacity(constraints),
            classes: Vec::with_capacity(constraints),
            by_var: vec![Vec::new(); num_vars],
        }
    }

    /// Counts one constraint of canonical form `form` over `vars`.
    fn insert(&mut self, form: Vec<T>, vars: impl Iterator<Item = Var>) {
        match self.class_of.entry(form) {
            Entry::Occupied(e) => self.classes[*e.get()].1 += 1,
            Entry::Vacant(e) => {
                let class = self.classes.len();
                self.classes.push((e.key().clone(), 1));
                e.insert(class);
                for v in vars {
                    self.by_var[v.index()].push(class);
                }
            }
        }
    }

    /// Whether every class touching `support` has an image, computed into
    /// the cleared buffer by `image`, that is a class of equal
    /// multiplicity.
    fn preserved(&self, support: &[Var], mut image: impl FnMut(&[T], &mut Vec<T>)) -> bool {
        let mut touched: Vec<usize> =
            support.iter().flat_map(|v| self.by_var[v.index()].iter().copied()).collect();
        touched.sort_unstable();
        touched.dedup();
        let mut buf = Vec::new();
        touched.into_iter().all(|class| {
            let (form, count) = &self.classes[class];
            buf.clear();
            image(form, &mut buf);
            self.class_of.get(buf.as_slice()).is_some_and(|&c| self.classes[c].1 == *count)
        })
    }
}
