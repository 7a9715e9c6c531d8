//! Program elements: grouping terminal occurrences by identity.
//!
//! The paper represents a *program element* (e.g. the variable `d`) "as
//! the set of paths that its occurrences participate in". This module
//! provides the occurrence grouping; the learning layers decide which
//! elements are unknown (to be predicted) and which are given.

use pigeon_ast::{Ast, NodeId};
use std::collections::HashMap;

/// The occurrences of each distinct terminal value in `ast`, keyed by
/// value and ordered by first occurrence.
///
/// ```
/// use pigeon_ast::AstBuilder;
/// use pigeon_core::element_occurrences;
///
/// let mut b = AstBuilder::new("Toplevel");
/// b.token("SymbolRef", "d");
/// b.token("SymbolRef", "x");
/// b.token("SymbolRef", "d");
/// let ast = b.finish();
///
/// let occ = element_occurrences(&ast);
/// assert_eq!(occ.len(), 2);
/// assert_eq!(occ[0].0, "d");
/// assert_eq!(occ[0].1.len(), 2);
/// ```
pub fn element_occurrences(ast: &Ast) -> Vec<(&str, Vec<NodeId>)> {
    let mut index: HashMap<&str, usize> = HashMap::new();
    let mut groups: Vec<(&str, Vec<NodeId>)> = Vec::new();
    for &leaf in ast.leaves() {
        let value = ast.value(leaf).expect("leaves carry values");
        match index.get(&value) {
            Some(&i) => groups[i].1.push(leaf),
            None => {
                index.insert(value, groups.len());
                groups.push((value, vec![leaf]));
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use pigeon_ast::AstBuilder;

    #[test]
    fn groups_preserve_first_occurrence_order() {
        let mut b = AstBuilder::new("Toplevel");
        for v in ["b", "a", "b", "c", "a", "b"] {
            b.token("SymbolRef", v);
        }
        let ast = b.finish();
        let occ = element_occurrences(&ast);
        let names: Vec<_> = occ.iter().map(|&(s, _)| s).collect();
        assert_eq!(names, ["b", "a", "c"]);
        let counts: Vec<_> = occ.iter().map(|(_, o)| o.len()).collect();
        assert_eq!(counts, [3, 2, 1]);
    }

    #[test]
    fn empty_tree_has_no_elements() {
        let ast = AstBuilder::new("Toplevel").finish();
        assert!(element_occurrences(&ast).is_empty());
    }
}
