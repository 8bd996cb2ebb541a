//! Property-based tests on the formula substrate.

use proptest::prelude::*;
use sbgc_formula::{
    parse_opb, Assignment, Lit, Objective, PbConstraint, PbFormula, TruthValue, Var,
};

fn lit_strategy(num_vars: usize) -> impl Strategy<Value = Lit> {
    (0..num_vars, any::<bool>()).prop_map(|(v, neg)| Var::from_index(v).lit(neg))
}

fn formula_strategy(num_vars: usize) -> impl Strategy<Value = PbFormula> {
    let clause = proptest::collection::vec(lit_strategy(num_vars), 1..4);
    let clauses = proptest::collection::vec(clause, 0..8);
    let term = (1i64..4, lit_strategy(num_vars));
    let pb = (proptest::collection::vec(term, 1..num_vars.max(2)), -3i64..6, any::<bool>());
    let pbs = proptest::collection::vec(pb, 0..4);
    (clauses, pbs).prop_map(move |(clauses, pbs)| {
        let mut f = PbFormula::with_vars(num_vars);
        for c in clauses {
            f.add_clause(c);
        }
        for (terms, bound, ge) in pbs {
            if ge {
                f.add_pb(PbConstraint::at_least(terms, bound));
            } else {
                f.add_pb(PbConstraint::at_most(terms, bound));
            }
        }
        f
    })
}

fn assignment_strategy(num_vars: usize) -> impl Strategy<Value = Assignment> {
    proptest::collection::vec(any::<bool>(), num_vars).prop_map(Assignment::from_bools)
}

/// The normalization `PbConstraint` used before it sorted and merged: one
/// `BTreeMap` of net positive-literal coefficients per constraint. Kept as
/// the oracle the sort-and-merge version must match term for term.
fn btree_normalize(raw: &[(i64, Lit)], mut bound: i64) -> (Vec<(u64, Lit)>, u64) {
    use std::collections::BTreeMap;
    let mut net: BTreeMap<u32, i64> = BTreeMap::new();
    for &(a, l) in raw {
        if a == 0 {
            continue;
        }
        let v = l.var().index() as u32;
        if l.is_negated() {
            bound -= a;
            *net.entry(v).or_insert(0) -= a;
        } else {
            *net.entry(v).or_insert(0) += a;
        }
    }
    let mut terms = Vec::with_capacity(net.len());
    for (v, a) in net {
        let var = Var::from_index(v as usize);
        match a.cmp(&0) {
            std::cmp::Ordering::Greater => terms.push((a as u64, var.positive())),
            std::cmp::Ordering::Less => {
                bound += -a;
                terms.push(((-a) as u64, var.negative()));
            }
            std::cmp::Ordering::Equal => {}
        }
    }
    let rhs = if bound <= 0 { 0 } else { bound as u64 };
    if rhs > 0 {
        for t in &mut terms {
            if t.0 > rhs {
                t.0 = rhs;
            }
        }
    }
    (terms, rhs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Sort-and-merge normalization gives exactly the terms, in the same
    /// order, and the right-hand side of the `BTreeMap` algorithm it
    /// replaced — repeated and opposite literals, zero and negative
    /// coefficients, any bound — for `at_least` and `at_most` alike.
    #[test]
    fn pb_normalization_matches_the_btree_oracle(
        terms in proptest::collection::vec((-6i64..7, lit_strategy(7)), 0..12),
        bound in -12i64..14,
    ) {
        let c = PbConstraint::at_least(terms.clone(), bound);
        let (oracle_terms, oracle_rhs) = btree_normalize(&terms, bound);
        prop_assert_eq!(c.terms(), &oracle_terms[..]);
        prop_assert_eq!(c.rhs(), oracle_rhs);
        let negated: Vec<(i64, Lit)> = terms.iter().map(|&(a, l)| (-a, l)).collect();
        let c = PbConstraint::at_most(terms, bound);
        let (oracle_terms, oracle_rhs) = btree_normalize(&negated, -bound);
        prop_assert_eq!(c.terms(), &oracle_terms[..]);
        prop_assert_eq!(c.rhs(), oracle_rhs);
    }
}

proptest! {
    /// Normalization preserves semantics: an at-least constraint holds for
    /// an assignment iff the raw linear inequality does.
    #[test]
    fn pb_normalization_is_semantic(
        terms in proptest::collection::vec((-4i64..5, lit_strategy(6)), 1..6),
        bound in -8i64..10,
        asg in assignment_strategy(6),
    ) {
        let c = PbConstraint::at_least(terms.clone(), bound);
        let raw: i64 = terms
            .iter()
            .map(|&(a, l)| if asg.satisfies(l) { a } else { 0 })
            .sum();
        let expected = raw >= bound;
        prop_assert_eq!(c.eval(&asg) == TruthValue::True, expected);
    }

    /// `at_most` is the exact complement construction.
    #[test]
    fn at_most_is_dual(
        terms in proptest::collection::vec((1i64..5, lit_strategy(5)), 1..5),
        bound in 0i64..10,
        asg in assignment_strategy(5),
    ) {
        let c = PbConstraint::at_most(terms.clone(), bound);
        let raw: i64 = terms
            .iter()
            .map(|&(a, l)| if asg.satisfies(l) { a } else { 0 })
            .sum();
        prop_assert_eq!(c.eval(&asg) == TruthValue::True, raw <= bound);
    }

    /// equal() splits exactly.
    #[test]
    fn equal_is_conjunction(
        terms in proptest::collection::vec((1i64..4, lit_strategy(5)), 1..5),
        bound in 0i64..8,
        asg in assignment_strategy(5),
    ) {
        let (ge, le) = PbConstraint::equal(terms.clone(), bound);
        let raw: i64 = terms
            .iter()
            .map(|&(a, l)| if asg.satisfies(l) { a } else { 0 })
            .sum();
        let both = ge.eval(&asg) == TruthValue::True && le.eval(&asg) == TruthValue::True;
        prop_assert_eq!(both, raw == bound);
    }

    /// OPB serialization round-trips satisfaction on total assignments.
    #[test]
    fn opb_roundtrip_semantics(f in formula_strategy(5), asg in assignment_strategy(5)) {
        let text = f.to_opb();
        let g = parse_opb(&text).expect("own output parses");
        prop_assert_eq!(g.num_vars(), f.num_vars());
        prop_assert_eq!(f.is_satisfied_by(&asg), g.is_satisfied_by(&asg));
    }

    /// Clause evaluation (of a one-clause formula) is monotone: extending
    /// a partial assignment never flips True to False or vice versa.
    #[test]
    fn clause_eval_is_monotone(
        lits in proptest::collection::vec(lit_strategy(5), 1..5),
        asg in assignment_strategy(5),
        hide in proptest::collection::vec(any::<bool>(), 5),
    ) {
        let mut clause = PbFormula::new();
        clause.add_clause(lits);
        let mut partial = asg.clone();
        for (i, &h) in hide.iter().enumerate() {
            if h {
                partial.unassign(Var::from_index(i));
            }
        }
        match clause.eval(&partial) {
            TruthValue::True => prop_assert_eq!(clause.eval(&asg), TruthValue::True),
            TruthValue::False => prop_assert_eq!(clause.eval(&asg), TruthValue::False),
            TruthValue::Unknown => {}
        }
    }

    /// PB evaluation is likewise monotone under extension.
    #[test]
    fn pb_eval_is_monotone(
        terms in proptest::collection::vec((1i64..4, lit_strategy(5)), 1..5),
        bound in 0i64..8,
        asg in assignment_strategy(5),
        hide in proptest::collection::vec(any::<bool>(), 5),
    ) {
        let c = PbConstraint::at_least(terms, bound);
        let mut partial = asg.clone();
        for (i, &h) in hide.iter().enumerate() {
            if h {
                partial.unassign(Var::from_index(i));
            }
        }
        match c.eval(&partial) {
            TruthValue::True => prop_assert_eq!(c.eval(&asg), TruthValue::True),
            TruthValue::False => prop_assert_eq!(c.eval(&asg), TruthValue::False),
            TruthValue::Unknown => {}
        }
    }

    /// Objective lower bound never exceeds the final value.
    #[test]
    fn objective_bound_is_sound(
        terms in proptest::collection::vec((1u64..4, lit_strategy(5)), 1..5),
        asg in assignment_strategy(5),
        hide in proptest::collection::vec(any::<bool>(), 5),
    ) {
        let obj = Objective::minimize(terms);
        let mut partial = asg.clone();
        for (i, &h) in hide.iter().enumerate() {
            if h {
                partial.unassign(Var::from_index(i));
            }
        }
        let total = obj.value(&asg).expect("total");
        prop_assert!(obj.lower_bound(&partial) <= total);
        prop_assert!(total <= obj.max_value());
    }
}
