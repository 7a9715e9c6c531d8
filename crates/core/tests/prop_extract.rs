//! Property tests for path extraction: every extracted path is a valid
//! walk of the tree it came from and respects the configured limits.

use pigeon_ast::{Ast, AstBuilder};
use pigeon_core::{
    extract, flow_contexts, leaf_pair_contexts, path_between, Abstraction, Direction,
    ExtractionConfig, FlowEdge, FlowKind, PathVocab,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Start(u8),
    Token(u8, u8),
    Finish,
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..5).prop_map(Op::Start),
            (0u8..5, 0u8..8).prop_map(|(k, v)| Op::Token(k, v)),
            Just(Op::Finish),
        ],
        0..80,
    )
}

fn build(ops: &[Op]) -> Ast {
    let mut b = AstBuilder::new("Root");
    let mut depth = 0usize;
    for op in ops {
        match op {
            Op::Start(k) => {
                b.start_node(format!("Nt{k}").as_str());
                depth += 1;
            }
            Op::Token(k, v) => {
                b.token(format!("T{k}").as_str(), format!("v{v}").as_str());
            }
            Op::Finish => {
                if depth > 0 {
                    b.finish_node();
                    depth -= 1;
                }
            }
        }
    }
    for _ in 0..depth {
        b.finish_node();
    }
    b.finish()
}

proptest! {
    /// Walking the tree according to an extracted path's directions from
    /// its start node lands exactly on its end node, visiting the recorded
    /// kinds: the path is faithful to the tree.
    #[test]
    fn extracted_paths_are_valid_walks(ops in ops_strategy()) {
        let ast = build(&ops);
        let cfg = ExtractionConfig::with_limits(10, 10).semi_paths(true);
        for ctx in extract(&ast, &cfg) {
            let kinds = ctx.path.kinds();
            let dirs = ctx.path.directions();
            let mut cur = ctx.start_node;
            prop_assert_eq!(ast.kind(cur), kinds[0]);
            for (i, &d) in dirs.iter().enumerate() {
                cur = match d {
                    Direction::Up => ast.parent(cur).expect("walk stays in tree"),
                    Direction::Down => {
                        // The next node is some child with the recorded kind;
                        // find the one that continues the path.
                        *ast.children(cur)
                            .iter()
                            .find(|&&c| {
                                ast.kind(c) == kinds[i + 1]
                                    && reaches(&ast, c, ctx.end_node)
                            })
                            .expect("down step exists")
                    }
                };
                prop_assert_eq!(ast.kind(cur), kinds[i + 1]);
            }
            prop_assert_eq!(cur, ctx.end_node);
        }
    }

    /// Length and width limits are respected, and tightening them only
    /// shrinks the extracted set.
    #[test]
    fn limits_are_monotone(ops in ops_strategy(), len in 1usize..8, width in 0usize..5) {
        let ast = build(&ops);
        let loose = leaf_pair_contexts(&ast, &ExtractionConfig::with_limits(len + 2, width + 2));
        let tight = leaf_pair_contexts(&ast, &ExtractionConfig::with_limits(len, width));
        prop_assert!(tight.len() <= loose.len());
        for c in &tight {
            prop_assert!(c.path.len() <= len);
        }
        for c in &tight {
            prop_assert!(loose.contains(c));
        }
    }

    /// Paths always climb then descend (single turning point).
    #[test]
    fn paths_are_up_star_down_star(ops in ops_strategy()) {
        let ast = build(&ops);
        for ctx in leaf_pair_contexts(&ast, &ExtractionConfig::with_limits(12, 12)) {
            let dirs = ctx.path.directions();
            let first_down = dirs.iter().position(|&d| d == Direction::Down);
            if let Some(i) = first_down {
                prop_assert!(dirs[i..].iter().all(|&d| d == Direction::Down));
            }
        }
    }

    /// path_between is symmetric up to reversal.
    #[test]
    fn path_between_reverses(ops in ops_strategy()) {
        let ast = build(&ops);
        let leaves = ast.leaves();
        if leaves.len() >= 2 {
            let (ab, w1) = path_between(&ast, leaves[0], leaves[leaves.len() - 1]);
            let (ba, w2) = path_between(&ast, leaves[leaves.len() - 1], leaves[0]);
            prop_assert_eq!(ab.reversed(), ba);
            prop_assert_eq!(w1, w2);
        }
    }

    /// The single-pass merge extractor agrees with the naive reference:
    /// calling [`path_between`] on every leaf pair and filtering by the
    /// limits afterwards. Same contexts, same order.
    #[test]
    fn merge_extractor_matches_pairwise_reference(
        ops in ops_strategy(),
        len in 0usize..9,
        width in 0usize..5,
    ) {
        let ast = build(&ops);
        let cfg = ExtractionConfig::with_limits(len, width);
        let leaves = ast.leaves();
        let mut reference = Vec::new();
        for (i, &a) in leaves.iter().enumerate() {
            for &b in &leaves[i + 1..] {
                let (path, w) = path_between(&ast, a, b);
                if path.len() <= cfg.max_length && w <= cfg.max_width {
                    reference.push((a, path, b));
                }
            }
        }
        let merged = leaf_pair_contexts(&ast, &cfg);
        prop_assert_eq!(merged.len(), reference.len());
        for (ctx, (a, path, b)) in merged.iter().zip(&reference) {
            prop_assert_eq!(ctx.start_node, *a);
            prop_assert_eq!(ctx.end_node, *b);
            prop_assert_eq!(&ctx.path, path);
        }
    }

    /// The flow-path walk agrees with the naive reference: calling
    /// [`path_between`] on every edge and keeping the paths within twice
    /// the length limit. Same contexts, same order.
    #[test]
    fn flow_walk_matches_path_between_reference(
        ops in ops_strategy(),
        picks in prop::collection::vec((0usize..64, 0usize..64, any::<bool>()), 0..24),
        len in 0usize..6,
    ) {
        let ast = build(&ops);
        let leaves = ast.leaves();
        if leaves.is_empty() {
            return Ok(());
        }
        let cfg = ExtractionConfig::with_limits(len, 1);
        let edges: Vec<FlowEdge> = picks
            .iter()
            .map(|&(a, b, write)| FlowEdge {
                kind: if write { FlowKind::LastWrite } else { FlowKind::LastUse },
                from: leaves[a % leaves.len()],
                to: leaves[b % leaves.len()],
            })
            .collect();
        let mut reference = Vec::new();
        for e in edges.iter().filter(|e| e.from != e.to) {
            let (path, _) = path_between(&ast, e.from, e.to);
            if path.len() <= 2 * cfg.max_length {
                reference.push((e.kind, e.from, path, e.to));
            }
        }
        let walked = flow_contexts(&ast, &edges, &cfg);
        prop_assert_eq!(walked.len(), reference.len());
        for ((kind, ctx), (k, a, path, b)) in walked.iter().zip(&reference) {
            prop_assert_eq!(kind, k);
            prop_assert_eq!(ctx.start_node, *a);
            prop_assert_eq!(ctx.end_node, *b);
            prop_assert_eq!(&ctx.path, path);
        }
    }

    /// Coarsening the abstraction never increases the number of distinct
    /// path ids over the same extraction.
    #[test]
    fn abstraction_chain_is_monotone_on_vocab_size(ops in ops_strategy()) {
        let ast = build(&ops);
        let ctxs = leaf_pair_contexts(&ast, &ExtractionConfig::with_limits(10, 10));
        let chain = [
            Abstraction::Full,
            Abstraction::NoArrows,
            Abstraction::ForgetOrder,
            Abstraction::NoPath,
        ];
        let mut last = usize::MAX;
        for a in chain {
            let mut v = PathVocab::new(a);
            for c in &ctxs {
                v.intern(&c.path);
            }
            prop_assert!(v.len() <= last);
            last = v.len();
        }
    }
}

fn reaches(ast: &Ast, from: pigeon_ast::NodeId, target: pigeon_ast::NodeId) -> bool {
    if from == target {
        return true;
    }
    ast.children(from).iter().any(|&c| reaches(ast, c, target))
}
