//! Path abstraction functions `α` (Definition 4.4 and §5.6).
//!
//! An abstraction maps a concrete [`AstPath`] to a coarser representation,
//! trading expressiveness for fewer distinct paths (and hence fewer model
//! parameters and faster training — the accuracy/time trade-off of the
//! paper's Fig. 12). The seven levels evaluated by the paper are all
//! implemented here, from `α_id` down to "no-paths".

use crate::path::{AstPath, Direction};
use pigeon_ast::Kind;
use std::fmt;

/// The abstraction levels of §5.6, ordered from most to least expressive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Abstraction {
    /// `α_id`: the full path, node-by-node with arrows.
    Full,
    /// The full kind sequence, without the up/down symbols.
    NoArrows,
    /// An unordered bag of the kinds on the path, listed by name.
    ForgetOrder,
    /// Only the first, top (turning-point) and last kinds.
    FirstTopLast,
    /// Only the first and last kinds.
    FirstLast,
    /// Only the top kind.
    Top,
    /// No path information at all: every relation looks the same
    /// ("bag of near identifiers").
    NoPath,
}

impl Abstraction {
    /// All levels, in the order of the paper's Fig. 12 x-axis sweep.
    pub const ALL: [Abstraction; 7] = [
        Abstraction::NoPath,
        Abstraction::FirstLast,
        Abstraction::Top,
        Abstraction::FirstTopLast,
        Abstraction::ForgetOrder,
        Abstraction::NoArrows,
        Abstraction::Full,
    ];

    /// The name used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Abstraction::Full => "full",
            Abstraction::NoArrows => "no-arrows",
            Abstraction::ForgetOrder => "forget-order",
            Abstraction::FirstTopLast => "first-top-last",
            Abstraction::FirstLast => "first-last",
            Abstraction::Top => "top",
            Abstraction::NoPath => "no-path",
        }
    }

    /// Parses a level from its [`name`](Abstraction::name).
    pub fn from_name(name: &str) -> Option<Abstraction> {
        Abstraction::ALL.into_iter().find(|a| a.name() == name)
    }

    /// Applies `α` to a concrete path.
    pub fn apply(self, path: &AstPath) -> AbstractPath {
        let mut elems: Vec<PathElem> = Vec::new();
        match self {
            Abstraction::Full => {
                for (i, &k) in path.kinds().iter().enumerate() {
                    if i > 0 {
                        elems.push(PathElem::Dir(path.directions()[i - 1]));
                    }
                    elems.push(PathElem::Kind(k));
                }
            }
            Abstraction::NoArrows => {
                elems.extend(path.kinds().iter().map(|&k| PathElem::Kind(k)));
            }
            Abstraction::ForgetOrder => {
                // By name, not by interner id: ids follow the order a
                // process first met each kind, so they would make the
                // rendered bag depend on what the process parsed first.
                let mut kinds: Vec<Kind> = path.kinds().to_vec();
                kinds.sort_unstable_by_key(|k| k.as_str());
                elems.extend(kinds.into_iter().map(PathElem::Kind));
            }
            Abstraction::FirstTopLast => {
                elems.push(PathElem::Kind(path.start_kind()));
                elems.push(PathElem::Kind(path.top_kind()));
                elems.push(PathElem::Kind(path.end_kind()));
            }
            Abstraction::FirstLast => {
                elems.push(PathElem::Kind(path.start_kind()));
                elems.push(PathElem::Kind(path.end_kind()));
            }
            Abstraction::Top => {
                elems.push(PathElem::Kind(path.top_kind()));
            }
            Abstraction::NoPath => {}
        }
        AbstractPath { elems }
    }
}

impl fmt::Display for Abstraction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One element of an abstracted path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PathElem {
    /// A node kind retained by the abstraction.
    Kind(Kind),
    /// A movement arrow (only present under [`Abstraction::Full`]).
    Dir(Direction),
}

/// The image `α(p)` of a path under an abstraction function.
///
/// Abstract paths are the unit interned by
/// [`PathVocab`](crate::PathVocab) and the unit the learning models treat
/// as a feature component; two concrete paths that abstract equally are
/// indistinguishable downstream — which is the point.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AbstractPath {
    elems: Vec<PathElem>,
}

impl AbstractPath {
    /// The retained elements, in abstraction-specific order.
    pub fn elems(&self) -> &[PathElem] {
        &self.elems
    }

    /// Number of retained elements (0 for [`Abstraction::NoPath`]).
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// Whether the abstraction retained nothing.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }
}

impl fmt::Display for AbstractPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.elems.is_empty() {
            return f.write_str("ε");
        }
        let mut first = true;
        for e in &self.elems {
            if !first {
                f.write_str(" ")?;
            }
            first = false;
            match e {
                PathElem::Kind(k) => write!(f, "{k}")?,
                PathElem::Dir(d) => write!(f, "{d}")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Kind {
        Kind::new(s)
    }

    /// Example 4.5 of the paper: item → array in `var item = array[i];`.
    fn example_path() -> AstPath {
        AstPath::new(
            vec![k("SymbolVar"), k("VarDef"), k("Sub"), k("SymbolRef")],
            vec![Direction::Up, Direction::Down, Direction::Down],
        )
    }

    #[test]
    fn alpha_id_keeps_arrows() {
        let a = Abstraction::Full.apply(&example_path());
        assert_eq!(a.to_string(), "SymbolVar ↑ VarDef ↓ Sub ↓ SymbolRef");
    }

    #[test]
    fn forget_arrows_matches_example_4_5() {
        let a = Abstraction::NoArrows.apply(&example_path());
        assert_eq!(a.to_string(), "SymbolVar VarDef Sub SymbolRef");
    }

    #[test]
    fn forget_order_sorts_kinds() {
        let p1 = AstPath::new(vec![k("B"), k("A")], vec![Direction::Up]);
        let p2 = AstPath::new(vec![k("A"), k("B")], vec![Direction::Up]);
        assert_eq!(
            Abstraction::ForgetOrder.apply(&p1),
            Abstraction::ForgetOrder.apply(&p2)
        );
    }

    #[test]
    fn forget_order_lists_kinds_by_name_not_by_interning_order() {
        // Interned here first, in reverse name order, so their ids run
        // against their names.
        let later = k("ForgetOrderZulu");
        let earlier = k("ForgetOrderAlpha");
        assert!(later.index() < earlier.index());
        let p = AstPath::new(vec![later, earlier], vec![Direction::Up]);
        assert_eq!(
            Abstraction::ForgetOrder.apply(&p).to_string(),
            "ForgetOrderAlpha ForgetOrderZulu"
        );
    }

    #[test]
    fn first_top_last_keeps_turning_point() {
        let a = Abstraction::FirstTopLast.apply(&example_path());
        assert_eq!(a.to_string(), "SymbolVar VarDef SymbolRef");
    }

    #[test]
    fn top_keeps_only_the_highest_node() {
        let a = Abstraction::Top.apply(&example_path());
        assert_eq!(a.to_string(), "VarDef");
    }

    #[test]
    fn names_round_trip() {
        for a in Abstraction::ALL {
            assert_eq!(Abstraction::from_name(a.name()), Some(a));
        }
        assert_eq!(Abstraction::from_name("nonsense"), None);
    }

    #[test]
    fn no_path_is_constant() {
        let a = Abstraction::NoPath.apply(&example_path());
        let b = Abstraction::NoPath.apply(&AstPath::new(vec![k("X")], vec![]));
        assert_eq!(a, b);
        assert!(a.is_empty());
        assert_eq!(a.to_string(), "ε");
    }

    /// Coarser abstractions can never distinguish paths a finer one maps
    /// together: α-levels form a refinement chain on this family.
    #[test]
    fn coarser_never_splits_what_finer_merges() {
        let paths = [
            example_path(),
            example_path().reversed(),
            AstPath::new(
                vec![k("SymbolVar"), k("VarDef"), k("SymbolRef")],
                vec![Direction::Up, Direction::Down],
            ),
        ];
        // For every pair of paths and every adjacent (finer, coarser) pair
        // of levels in the chain full → no-arrows → forget-order and
        // first-top-last → first-last → no-path:
        let chains: [&[Abstraction]; 2] = [
            &[
                Abstraction::Full,
                Abstraction::NoArrows,
                Abstraction::ForgetOrder,
            ],
            &[
                Abstraction::FirstTopLast,
                Abstraction::FirstLast,
                Abstraction::NoPath,
            ],
        ];
        for chain in chains {
            for w in chain.windows(2) {
                let (fine, coarse) = (w[0], w[1]);
                for p in &paths {
                    for q in &paths {
                        if fine.apply(p) == fine.apply(q) {
                            assert_eq!(
                                coarse.apply(p),
                                coarse.apply(q),
                                "{coarse} split paths merged by {fine}"
                            );
                        }
                    }
                }
            }
        }
    }
}
