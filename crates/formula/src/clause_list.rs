//! Flat clause storage.

use crate::Lit;
use std::fmt;
use std::ops::{Index, Range};

/// A list of CNF clauses stored flat: the literals of every clause back
/// to back in one vector, and where each clause ends.
///
/// A list of `m` clauses costs two allocations instead of `m + 1`, and
/// walking it reads one contiguous block. Each clause keeps the literal
/// order it was pushed with, and clauses keep their order.
///
/// # Example
///
/// ```
/// use sbgc_formula::{ClauseList, Var};
/// let a = Var::from_index(0).positive();
/// let b = Var::from_index(1).negative();
/// let mut list = ClauseList::new();
/// list.push([a, b]);
/// list.push([!a]);
/// assert_eq!(list.len(), 2);
/// assert_eq!(&list[0], &[a, b]);
/// assert_eq!(list.num_literals(), 3);
/// assert_eq!(list.iter().map(<[_]>::len).collect::<Vec<_>>(), [2, 1]);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct ClauseList {
    lits: Vec<Lit>,
    /// `ends[i]` is where clause `i` ends in `lits`; it starts where
    /// clause `i − 1` ends (at 0 for the first).
    ends: Vec<usize>,
}

impl ClauseList {
    /// Creates an empty list.
    pub fn new() -> Self {
        ClauseList::default()
    }

    /// Creates an empty list with room for `clauses` clauses of
    /// `literals` literals in total.
    pub fn with_capacity(clauses: usize, literals: usize) -> Self {
        ClauseList { lits: Vec::with_capacity(literals), ends: Vec::with_capacity(clauses) }
    }

    /// Number of clauses.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Returns `true` if the list holds no clause.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total number of literals over all clauses.
    pub fn num_literals(&self) -> usize {
        self.lits.len()
    }

    /// Every literal of every clause, clause after clause.
    pub fn literals(&self) -> &[Lit] {
        &self.lits
    }

    /// Appends a clause.
    pub fn push(&mut self, clause: impl IntoIterator<Item = Lit>) {
        self.lits.extend(clause);
        self.ends.push(self.lits.len());
    }

    /// Iterates over the clauses in order.
    pub fn iter(&self) -> ClauseIter<'_> {
        ClauseIter { lits: &self.lits, ends: self.ends.iter(), start: 0 }
    }

    fn range(&self, i: usize) -> Range<usize> {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        start..self.ends[i]
    }
}

impl Index<usize> for ClauseList {
    type Output = [Lit];

    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    fn index(&self, i: usize) -> &[Lit] {
        &self.lits[self.range(i)]
    }
}

/// Iterator over the clauses of a [`ClauseList`], as literal slices.
#[derive(Clone, Debug)]
pub struct ClauseIter<'a> {
    lits: &'a [Lit],
    ends: std::slice::Iter<'a, usize>,
    start: usize,
}

impl<'a> Iterator for ClauseIter<'a> {
    type Item = &'a [Lit];

    fn next(&mut self) -> Option<&'a [Lit]> {
        let end = *self.ends.next()?;
        let clause = &self.lits[self.start..end];
        self.start = end;
        Some(clause)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ends.size_hint()
    }
}

impl ExactSizeIterator for ClauseIter<'_> {}

impl<'a> IntoIterator for &'a ClauseList {
    type Item = &'a [Lit];
    type IntoIter = ClauseIter<'a>;

    fn into_iter(self) -> ClauseIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for ClauseList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Var;

    fn lit(i: usize, neg: bool) -> Lit {
        Var::from_index(i).lit(neg)
    }

    #[test]
    fn clauses_keep_their_order_and_literal_order() {
        let clauses = vec![vec![lit(2, false), lit(0, true)], vec![], vec![lit(1, false)]];
        let mut list = ClauseList::new();
        for clause in &clauses {
            list.push(clause.iter().copied());
        }
        assert_eq!(list.len(), 3);
        assert_eq!(list.num_literals(), 3);
        let back: Vec<Vec<Lit>> = list.iter().map(<[Lit]>::to_vec).collect();
        assert_eq!(back, clauses);
        assert_eq!(&list[1], &[]);
        assert_eq!(&list[2], &[lit(1, false)]);
        assert_eq!(list.iter().len(), 3);
        assert_eq!(list.literals(), &[lit(2, false), lit(0, true), lit(1, false)]);
    }

    #[test]
    fn empty_list() {
        let list = ClauseList::with_capacity(4, 8);
        assert!(list.is_empty());
        assert_eq!(list.iter().next(), None);
        assert_eq!(format!("{list:?}"), "[]");
    }
}
