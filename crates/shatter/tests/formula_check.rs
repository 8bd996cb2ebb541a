//! The indexed formula check (`LitPermutation::preserves`, and the check
//! `detect_symmetries` runs on every generator) against a reference that
//! rebuilds a canonical map of every constraint and its image and compares
//! them whole.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sbgc_formula::{Lit, Objective, PbConstraint, PbFormula, Var};
use sbgc_shatter::{detect_symmetries, formula_graph, AutomorphismOptions, LitPermutation};
use std::collections::BTreeMap;

/// The reference check: `p` maps the clause multiset, the PB multiset and
/// the objective of `formula` onto themselves, decided by rebuilding both
/// sides of every comparison.
fn rebuild_oracle(p: &LitPermutation, formula: &PbFormula) -> bool {
    if formula.num_vars() != p.num_vars() {
        return false;
    }
    let canon_clause = |lits: &[Lit]| {
        let mut v: Vec<u32> = lits.iter().map(|l| l.code() as u32).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let mut clauses: BTreeMap<Vec<u32>, isize> = BTreeMap::new();
    for c in formula.clauses() {
        *clauses.entry(canon_clause(c.literals())).or_insert(0) += 1;
        let mapped: Vec<Lit> = c.literals().iter().map(|&l| p.apply(l)).collect();
        *clauses.entry(canon_clause(&mapped)).or_insert(0) -= 1;
    }
    if clauses.values().any(|&v| v != 0) {
        return false;
    }
    let canon_pb = |terms: &[(u64, Lit)], rhs: u64| {
        let mut v: Vec<(u64, u32)> = terms.iter().map(|&(a, l)| (a, l.code() as u32)).collect();
        v.sort_unstable();
        (v, rhs)
    };
    let mut pbs: BTreeMap<(Vec<(u64, u32)>, u64), isize> = BTreeMap::new();
    for c in formula.pb_constraints() {
        *pbs.entry(canon_pb(c.terms(), c.rhs())).or_insert(0) += 1;
        let mapped: Vec<(u64, Lit)> = c.terms().iter().map(|&(a, l)| (a, p.apply(l))).collect();
        *pbs.entry(canon_pb(&mapped, c.rhs())).or_insert(0) -= 1;
    }
    if pbs.values().any(|&v| v != 0) {
        return false;
    }
    formula.objective().is_none_or(|obj| {
        let mut canon: Vec<(u64, u32)> =
            obj.terms().iter().map(|&(c, l)| (c, l.code() as u32)).collect();
        let mut mapped: Vec<(u64, u32)> =
            obj.terms().iter().map(|&(c, l)| (c, p.apply(l).code() as u32)).collect();
        canon.sort_unstable();
        mapped.sort_unstable();
        canon == mapped
    })
}

fn random_lit(rng: &mut StdRng, n: usize) -> Lit {
    Var::from_index(rng.gen_range(0..n)).lit(rng.gen_bool(0.5))
}

/// A small formula with duplicate, reordered, tautological and unit
/// clauses, repeated literals, PB constraints with equal and mixed
/// coefficients (some repeated), and usually an objective.
fn random_formula(rng: &mut StdRng, n: usize) -> PbFormula {
    let mut f = PbFormula::with_vars(n);
    for _ in 0..rng.gen_range(0..8) {
        let mut lits: Vec<Lit> = (0..rng.gen_range(1..=4)).map(|_| random_lit(rng, n)).collect();
        f.add_clause(lits.iter().copied());
        if rng.gen_bool(0.3) {
            lits.shuffle(rng);
            f.add_clause(lits);
        }
    }
    for _ in 0..rng.gen_range(0..3) {
        let uniform = rng.gen_bool(0.5);
        let terms: Vec<(i64, Lit)> = (0..rng.gen_range(1..=n))
            .map(|_| (if uniform { 1 } else { rng.gen_range(1..=3) }, random_lit(rng, n)))
            .collect();
        let c = PbConstraint::at_least(terms, rng.gen_range(0..=4));
        if rng.gen_bool(0.3) {
            f.add_pb(c.clone());
        }
        f.add_pb(c);
    }
    if rng.gen_bool(0.7) {
        f.set_objective(Objective::minimize(
            (0..rng.gen_range(1..=n)).map(|_| (rng.gen_range(1..=2), random_lit(rng, n))),
        ));
    }
    f
}

/// A random variable permutation with random phase flips.
fn random_permutation(rng: &mut StdRng, n: usize) -> LitPermutation {
    let mut targets: Vec<usize> = (0..n).collect();
    targets.shuffle(rng);
    let mut images = vec![0; 2 * n];
    for (v, &t) in targets.iter().enumerate() {
        let image = Var::from_index(t).lit(rng.gen_bool(0.3));
        images[Var::from_index(v).positive().code()] = image.code() as u32;
        images[Var::from_index(v).negative().code()] = (!image).code() as u32;
    }
    LitPermutation::from_images(images).expect("negation-consistent by construction")
}

/// `formula` plus the images of all its constraints under every power of
/// `p`, so that `p` is a symmetry of the result. A `near_miss` adds the
/// first clause's image under `p` twice and raises the right-hand side of
/// the first PB constraint's image under `p` by one, so that the images
/// differ from the formula only in a multiplicity or a bound.
fn close_under(formula: &PbFormula, p: &LitPermutation, near_miss: bool) -> PbFormula {
    let mut powers = vec![LitPermutation::identity(p.num_vars())];
    while !powers.last().expect("nonempty").compose(p).is_identity() {
        let next = powers.last().expect("nonempty").compose(p);
        powers.push(next);
    }
    let mut closed = PbFormula::with_vars(formula.num_vars());
    for (k, q) in powers.iter().enumerate() {
        let perturb = |i: usize| near_miss && k == 1 && i == 0;
        for (i, c) in formula.clauses().iter().enumerate() {
            let image: Vec<Lit> = c.literals().iter().map(|&l| q.apply(l)).collect();
            if perturb(i) {
                closed.add_clause(image.iter().copied());
            }
            closed.add_clause(image);
        }
        for (i, c) in formula.pb_constraints().iter().enumerate() {
            let terms = c.terms().iter().map(|&(a, l)| (a as i64, q.apply(l)));
            let rhs = c.rhs() + u64::from(perturb(i));
            closed.add_pb(PbConstraint::at_least(terms, rhs as i64));
        }
    }
    if let Some(obj) = formula.objective() {
        closed.set_objective(Objective::minimize(
            powers.iter().flat_map(|q| obj.terms().iter().map(|&(a, l)| (a, q.apply(l)))),
        ));
    }
    closed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn index_agrees_with_rebuild_oracle(n in 1usize..=6, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = random_formula(&mut rng, n);
        let p = random_permutation(&mut rng, n);
        // As generated, closed under p, or closed with a near miss.
        let f = match rng.gen_range(0..3) {
            0 => base,
            1 => {
                let f = close_under(&base, &p, false);
                prop_assert!(rebuild_oracle(&p, &f), "closure under {:?} is not symmetric", p);
                f
            }
            _ => close_under(&base, &p, true),
        };

        let a = Var::from_index(rng.gen_range(0..n));
        let b = Var::from_index(rng.gen_range(0..n));
        let mut candidates = vec![
            LitPermutation::identity(n),
            p.clone(),
            p.compose(&LitPermutation::from_var_swap(n, a, b)),
            random_permutation(&mut rng, n),
            LitPermutation::identity(n + 1),
        ];
        // Every generator of the symmetry graph's group, spurious or not:
        // detection keeps exactly the moving ones the oracle accepts.
        let fg = formula_graph(&f);
        let group = sbgc_aut::automorphisms_with(&fg.graph, &AutomorphismOptions::default());
        let generators: Vec<LitPermutation> = group
            .generators()
            .iter()
            .filter_map(|g| {
                LitPermutation::from_images((0..2 * n).map(|c| g.apply(c) as u32).collect())
            })
            .collect();
        let accepted: Vec<&LitPermutation> =
            generators.iter().filter(|q| !q.is_identity() && rebuild_oracle(q, &f)).collect();
        let (kept, _) = detect_symmetries(&f, &AutomorphismOptions::default());
        prop_assert_eq!(kept.iter().collect::<Vec<_>>(), accepted, "{:?}", f);
        candidates.extend(generators);
        for q in &candidates {
            prop_assert_eq!(q.preserves(&f), rebuild_oracle(q, &f), "{:?} on {:?}", q, f);
        }
    }
}
