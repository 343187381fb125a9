//! Deterministic greedy shrinking for failing fuzz cases.
//!
//! Shrinkers take the failing value plus a `still_fails` predicate and
//! return a (locally) minimal value for which the predicate still holds.
//! The search is greedy first-improvement over a fixed candidate order and
//! uses no randomness, so a shrunk counterexample is a pure function of the
//! original failure — two runs of the fuzzer print identical reports.

use std::collections::HashSet;
use zodiac_model::{Program, ResourceId, Value};
use zodiac_spec::{Check, Expr, Val};

/// Shrinks a program while `still_fails` holds: first drops whole
/// resources, then drops individual top-level attributes, to fixpoint.
pub fn shrink_program<F>(program: &Program, still_fails: F) -> Program
where
    F: Fn(&Program) -> bool,
{
    let mut current = program.clone();
    // Pass 1: remove resources, restarting after every success so earlier
    // resources get retried once later ones are gone.
    loop {
        let mut improved = false;
        for idx in 0..current.len() {
            let victim = current.resources()[idx].id();
            let keep: HashSet<ResourceId> = current
                .resources()
                .iter()
                .map(|r| r.id())
                .filter(|id| *id != victim)
                .collect();
            let mut candidate = current.clone();
            candidate.retain_ids(&keep);
            if still_fails(&candidate) {
                current = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    // Pass 2: drop attributes one at a time.
    loop {
        let mut improved = false;
        'outer: for idx in 0..current.len() {
            let keys: Vec<String> = current.resources()[idx].attrs.keys().cloned().collect();
            for key in keys {
                let mut candidate = current.clone();
                candidate.resources_mut()[idx].unset(&key);
                if still_fails(&candidate) {
                    current = candidate;
                    improved = true;
                    break 'outer;
                }
            }
        }
        if !improved {
            break;
        }
    }
    current
}

/// Shrinks a repair edit list while `still_fails` holds: greedy drop-one
/// with restart after every success, so a returned list is locally minimal
/// (no single edit can be removed). Deterministic — candidate order is the
/// input order.
pub fn shrink_edits<T, F>(edits: &[T], still_fails: F) -> Vec<T>
where
    T: Clone,
    F: Fn(&[T]) -> bool,
{
    let mut current = edits.to_vec();
    loop {
        let mut improved = false;
        for i in 0..current.len() {
            let mut candidate = current.clone();
            candidate.remove(i);
            if still_fails(&candidate) {
                current = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return current;
        }
    }
}

/// Collects every string literal in a check, in printing order.
fn collect_str_lits(check: &Check, out: &mut Vec<String>) {
    for operand in check.atoms().flat_map(Expr::operands) {
        if let Val::Lit(Value::Str(s)) = operand {
            out.push(s.clone());
        }
    }
}

/// Replaces the `n`-th string literal (printing order) with `new`.
fn replace_str_lit(check: &Check, n: usize, new: &str) -> Check {
    fn walk_val(v: &mut Val, seen: &mut usize, n: usize, new: &str) {
        match v {
            Val::Lit(Value::Str(s)) => {
                if *seen == n {
                    *s = new.to_string();
                }
                *seen += 1;
            }
            Val::Length(inner) => walk_val(inner, seen, n, new),
            _ => {}
        }
    }
    fn walk_expr(e: &mut Expr, seen: &mut usize, n: usize, new: &str) {
        match e {
            Expr::Cmp { lhs, rhs, .. } => {
                walk_val(lhs, seen, n, new);
                walk_val(rhs, seen, n, new);
            }
            Expr::CoConn { first, second } | Expr::CoPath { first, second } => {
                walk_expr(first, seen, n, new);
                walk_expr(second, seen, n, new);
            }
            _ => {}
        }
    }
    let mut out = check.clone();
    let mut seen = 0usize;
    walk_expr(&mut out.cond, &mut seen, n, new);
    walk_expr(&mut out.stmt, &mut seen, n, new);
    out
}

/// Shrinks a check while `still_fails` holds by shortening its string
/// literals: halve from the back, then drop single characters. The check's
/// shape is left intact — for printer/parser failures the literal content
/// is the interesting axis.
pub fn shrink_check<F>(check: &Check, still_fails: F) -> Check
where
    F: Fn(&Check) -> bool,
{
    let mut current = check.clone();
    loop {
        let mut lits = Vec::new();
        collect_str_lits(&current, &mut lits);
        let mut improved = false;
        'outer: for (n, lit) in lits.iter().enumerate() {
            if lit.is_empty() {
                continue;
            }
            let mut half = lit.len() / 2;
            while !lit.is_char_boundary(half) {
                half -= 1;
            }
            let mut candidates: Vec<String> = vec![lit[..half].to_string()];
            for (i, ch) in lit.char_indices() {
                let mut shorter = String::with_capacity(lit.len());
                shorter.push_str(&lit[..i]);
                shorter.push_str(&lit[i + ch.len_utf8()..]);
                candidates.push(shorter);
            }
            for candidate_lit in candidates {
                if candidate_lit.len() >= lit.len() {
                    continue;
                }
                let candidate = replace_str_lit(&current, n, &candidate_lit);
                if still_fails(&candidate) {
                    current = candidate;
                    improved = true;
                    break 'outer;
                }
            }
        }
        if !improved {
            return current;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zodiac_model::Resource;
    use zodiac_spec::build as b;

    #[test]
    fn shrinks_program_to_failing_core() {
        let p = Program::new()
            .with(Resource::new("azurerm_storage_account", "bad").with("name", "Has_Upper"))
            .with(Resource::new("azurerm_storage_account", "ok").with("name", "fine"))
            .with(Resource::new("azurerm_resource_group", "rg").with("name", "rg"));
        // "Failure" = some SA has an underscore in its name.
        let fails = |p: &Program| {
            p.of_type("azurerm_storage_account")
                .any(|r| matches!(r.get_attr("name"), Some(Value::Str(s)) if s.contains('_')))
        };
        let shrunk = shrink_program(&p, fails);
        assert_eq!(shrunk.len(), 1);
        assert!(fails(&shrunk));
    }

    #[test]
    fn shrink_keeps_failing_attr_only() {
        let p = Program::new().with(
            Resource::new("azurerm_storage_account", "bad")
                .with("name", "Has_Upper")
                .with("location", "eastus")
                .with("account_tier", "Standard"),
        );
        let fails = |p: &Program| {
            p.resources()
                .iter()
                .any(|r| matches!(r.get_attr("name"), Some(Value::Str(s)) if s.contains('_')))
        };
        let shrunk = shrink_program(&p, fails);
        assert_eq!(shrunk.resources()[0].attrs.len(), 1);
    }

    #[test]
    fn shrinks_check_literal_to_minimal_quote() {
        let c = b::check(
            [b::binding("r", "VM")],
            b::eq(b::endpoint("r", "location"), b::lit("east'us and more")),
            b::ne(b::endpoint("r", "priority"), b::null()),
        );
        // "Failure" = some literal contains a quote.
        let fails = |c: &Check| {
            let mut lits = Vec::new();
            collect_str_lits(c, &mut lits);
            lits.iter().any(|l| l.contains('\''))
        };
        let shrunk = shrink_check(&c, fails);
        let mut lits = Vec::new();
        collect_str_lits(&shrunk, &mut lits);
        assert_eq!(lits[0], "'", "minimal literal is the quote alone");
    }

    #[test]
    fn shrink_edits_finds_minimal_subset() {
        // "Failure" = the list still contains both 2 and 4.
        let edits = vec![1, 2, 3, 4, 5];
        let fails = |e: &[i32]| e.contains(&2) && e.contains(&4);
        let shrunk = shrink_edits(&edits, fails);
        assert_eq!(shrunk, vec![2, 4]);
    }

    #[test]
    fn shrinking_is_deterministic() {
        let p = Program::new()
            .with(Resource::new("azurerm_storage_account", "a").with("name", "x_y"))
            .with(Resource::new("azurerm_storage_account", "b").with("name", "y_z"));
        let fails = |p: &Program| !p.is_empty();
        let one = shrink_program(&p, fails);
        let two = shrink_program(&p, fails);
        assert_eq!(one, two);
    }
}
