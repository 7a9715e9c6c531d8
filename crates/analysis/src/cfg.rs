//! Per-function control-flow graphs over the four mini-language ASTs.
//!
//! One [`Cfg`] is built for every function scope the resolver's
//! [`crate::scopes::ScopeTree`] identifies (the root scope is skipped:
//! top-level code mixes declarations whose uses live in nested scopes,
//! so flow conclusions there would be unsound). CFG nodes are
//! statement-level: each node carries an ordered list of AST subtrees
//! (`parts`) evaluated in that node, and the builder lowers the
//! structured statements of each frontend — sequencing, `if`/`else`,
//! the loop family, `switch`, `try`, `return`/`break`/`continue`/
//! `throw` — into explicit edges.
//!
//! The construction is a pure function of the AST: node indices follow
//! the deterministic lowering order, edge lists are deduplicated in
//! insertion order, and no hashing or parallelism is involved, so the
//! same source always yields byte-identical graphs (the jobs-invariance
//! the audit report relies on).
//!
//! Where a frontend's tree shape is ambiguous (a classic `for` whose
//! clause count cannot be told apart from spliced body statements), the
//! builder falls back to a conservative *loop region*: every statement
//! in the region both loops back to the header and may exit the loop.
//! Over-approximating edges is always safe for the consumers in
//! [`crate::dataflow`] — extra paths can only suppress findings, never
//! invent them.

use crate::scopes::{scope_opening_kinds, ScopeTree};
use pigeon_ast::{Ast, NodeId};
use pigeon_corpus::Language;

/// Index of the synthetic entry node (holds parameter bindings).
pub const ENTRY: usize = 0;
/// Index of the synthetic exit node (empty; `return`/`throw` and the
/// function's fall-through end all flow here).
pub const EXIT: usize = 1;

/// One statement-level CFG node.
#[derive(Debug, Default)]
pub struct CfgNode {
    /// AST subtrees evaluated in this node, in evaluation order.
    /// Leaves belonging to nested function scopes are filtered out by
    /// the dataflow layer, not here.
    pub parts: Vec<NodeId>,
    /// Successor node indices, deduplicated, insertion order.
    pub succs: Vec<usize>,
    /// Predecessor node indices, deduplicated, insertion order.
    pub preds: Vec<usize>,
}

/// The control-flow graph of one function scope.
#[derive(Debug)]
pub struct Cfg {
    /// Index of this function's scope in the [`ScopeTree`].
    pub scope: usize,
    /// The scope-opening AST node (the function itself).
    pub function: NodeId,
    /// Nodes; `nodes[ENTRY]` and `nodes[EXIT]` are always present.
    pub nodes: Vec<CfgNode>,
}

impl Cfg {
    /// Node indices reachable from the entry, in index order.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut work = vec![ENTRY];
        seen[ENTRY] = true;
        while let Some(n) = work.pop() {
            for &s in &self.nodes[n].succs {
                if !seen[s] {
                    seen[s] = true;
                    work.push(s);
                }
            }
        }
        seen
    }
}

/// Builds one CFG per function scope of `ast` (skipping the root
/// scope), in scope-tree order.
pub fn build_cfgs(language: Language, ast: &Ast, tree: &ScopeTree) -> Vec<Cfg> {
    (1..tree.scopes().len())
        .map(|scope| build_function(language, ast, tree.scopes()[scope].node, scope))
        .collect()
}

/// Statement-level kinds that can appear where an expression clause is
/// expected; used to disambiguate classic `for` headers.
fn statement_like(language: Language, kind: &str) -> bool {
    let kinds: &[&str] = match language {
        Language::JavaScript => &[
            "Block", "If", "While", "Do", "For", "ForIn", "ForOf", "Try", "Switch", "Return",
            "Break", "Continue", "Throw", "Defun",
        ],
        Language::Java => &[
            "Block",
            "If",
            "While",
            "Do",
            "For",
            "ForEach",
            "Try",
            "Switch",
            "LocalVar",
            "ExpressionStmt",
            "Return",
            "Break",
            "Continue",
            "Throw",
        ],
        Language::Python => &[],
        Language::CSharp => &[
            "Block",
            "IfStatement",
            "WhileStatement",
            "DoStatement",
            "ForStatement",
            "ForEachStatement",
            "TryStatement",
            "SwitchStatement",
            "LocalDeclarationStatement",
            "ExpressionStatement",
            "ReturnStatement",
            "BreakStatement",
            "ContinueStatement",
            "ThrowStatement",
        ],
    };
    kinds.contains(&kind)
}

/// One `break`/`continue` scope: loops carry a continue target, switch
/// frames do not.
struct Frame {
    continue_to: Option<usize>,
    breaks: Vec<usize>,
}

struct Builder<'a> {
    language: Language,
    ast: &'a Ast,
    nodes: Vec<CfgNode>,
    frames: Vec<Frame>,
    /// Nodes whose control flow leaves the function (`return`/`throw`).
    exits: Vec<usize>,
}

fn build_function(language: Language, ast: &Ast, function: NodeId, scope: usize) -> Cfg {
    let mut b = Builder {
        language,
        ast,
        nodes: vec![CfgNode::default(), CfgNode::default()],
        frames: Vec::new(),
        exits: Vec::new(),
    };
    let (params, body) = b.split_header(function);
    b.nodes[ENTRY].parts = params;
    let outs = b.seq(&body, vec![ENTRY]);
    for n in outs.into_iter().chain(std::mem::take(&mut b.exits)) {
        b.wire(n, EXIT);
    }
    Cfg {
        scope,
        function,
        nodes: b.nodes,
    }
}

impl<'a> Builder<'a> {
    fn kind(&self, id: NodeId) -> &str {
        self.ast.kind(id).as_str()
    }

    fn node(&mut self, parts: Vec<NodeId>, preds: &[usize]) -> usize {
        let n = self.nodes.len();
        self.nodes.push(CfgNode {
            parts,
            ..CfgNode::default()
        });
        for &p in preds {
            self.wire(p, n);
        }
        n
    }

    fn wire(&mut self, from: usize, to: usize) {
        if !self.nodes[from].succs.contains(&to) {
            self.nodes[from].succs.push(to);
            self.nodes[to].preds.push(from);
        }
    }

    fn wire_all(&mut self, from: &[usize], to: usize) {
        for &f in from {
            self.wire(f, to);
        }
    }

    /// Splits a function node into parameter-bearing entry parts and
    /// body statements, per frontend.
    fn split_header(&self, function: NodeId) -> (Vec<NodeId>, Vec<NodeId>) {
        let children = self.ast.children(function);
        let mut params = Vec::new();
        let mut body = Vec::new();
        match self.language {
            Language::JavaScript => {
                for &c in children {
                    match self.kind(c) {
                        "SymbolFunarg" => params.push(c),
                        "SymbolDefun" | "SymbolLambda" => {}
                        _ => body.push(c),
                    }
                }
            }
            Language::Java => {
                for &c in children {
                    match self.kind(c) {
                        "Parameter" => params.push(c),
                        "Block" => body.extend(self.ast.children(c).iter().copied()),
                        _ => {}
                    }
                }
            }
            Language::Python => {
                for &c in children {
                    match self.kind(c) {
                        "NameParam" | "DefaultParam" => params.push(c),
                        "NameFunc" => {}
                        _ => body.push(c),
                    }
                }
            }
            Language::CSharp => {
                for &c in children {
                    match self.kind(c) {
                        "ParameterList" => params.extend(self.ast.children(c).iter().copied()),
                        "Block" => body.extend(self.ast.children(c).iter().copied()),
                        _ => {}
                    }
                }
            }
        }
        (params, body)
    }

    /// Declaration statements become one node whose parts are the
    /// individual declarators, so `var a = 1, b = a;` sequences
    /// correctly.
    fn decl_parts(&self, stmt: NodeId) -> Vec<NodeId> {
        let kind = self.kind(stmt);
        match (self.language, kind) {
            (Language::JavaScript, "Var" | "Let" | "Const") => self.ast.children(stmt).to_vec(),
            (Language::Java, "LocalVar") => self
                .ast
                .children(stmt)
                .iter()
                .copied()
                .filter(|&c| self.kind(c) == "VariableDeclarator")
                .collect(),
            (Language::CSharp, "LocalDeclarationStatement") => {
                let mut parts = Vec::new();
                for &c in self.ast.children(stmt) {
                    if self.kind(c) == "VariableDeclaration" {
                        parts.extend(
                            self.ast
                                .children(c)
                                .iter()
                                .copied()
                                .filter(|&d| self.kind(d) == "VariableDeclarator"),
                        );
                    }
                }
                parts
            }
            _ => vec![stmt],
        }
    }

    fn seq(&mut self, stmts: &[NodeId], mut preds: Vec<usize>) -> Vec<usize> {
        for &s in stmts {
            preds = self.stmt(s, preds);
        }
        preds
    }

    /// Lowers one statement; returns the dangling exits that flow to
    /// whatever follows.
    fn stmt(&mut self, id: NodeId, preds: Vec<usize>) -> Vec<usize> {
        if scope_opening_kinds(self.language).contains(&self.kind(id)) {
            // A nested function is an atomic value at this level; its
            // body belongs to its own CFG.
            return vec![self.node(vec![id], &preds)];
        }
        match self.language {
            Language::JavaScript => self.stmt_js(id, preds),
            Language::Java => self.stmt_java(id, preds),
            Language::Python => self.stmt_python(id, preds),
            Language::CSharp => self.stmt_csharp(id, preds),
        }
    }

    fn atomic(&mut self, id: NodeId, preds: &[usize]) -> Vec<usize> {
        vec![self.node(vec![id], preds)]
    }

    /// `break`: route `preds` to the innermost frame.
    fn do_break(&mut self, preds: Vec<usize>) -> Vec<usize> {
        match self.frames.last_mut() {
            Some(f) => f.breaks.extend(preds),
            None => self.exits.extend(preds),
        }
        Vec::new()
    }

    /// `continue`: route `preds` to the innermost loop's latch.
    fn do_continue(&mut self, preds: Vec<usize>) -> Vec<usize> {
        let target = self.frames.iter().rev().find_map(|f| f.continue_to);
        match target {
            Some(t) => self.wire_all(&preds, t),
            None => self.exits.extend(preds),
        }
        Vec::new()
    }

    fn do_return(&mut self, id: NodeId, preds: &[usize]) -> Vec<usize> {
        let n = self.node(self.ast.children(id).to_vec(), preds);
        self.exits.push(n);
        Vec::new()
    }

    /// `while (cond) body`: cond is the header; body loops back to it.
    fn lower_while(&mut self, cond: NodeId, body: &[NodeId], preds: Vec<usize>) -> Vec<usize> {
        let c = self.node(vec![cond], &preds);
        self.frames.push(Frame {
            continue_to: Some(c),
            breaks: Vec::new(),
        });
        let outs = self.seq(body, vec![c]);
        self.wire_all(&outs, c);
        let frame = self.frames.pop().expect("pushed above");
        let mut outs = vec![c];
        outs.extend(frame.breaks);
        outs
    }

    /// `do body while (cond)`: body runs first; cond loops back to it.
    fn lower_do(&mut self, body: NodeId, cond: NodeId, preds: Vec<usize>) -> Vec<usize> {
        let h = self.node(Vec::new(), &preds);
        let c = self.node(vec![cond], &[]);
        self.frames.push(Frame {
            continue_to: Some(c),
            breaks: Vec::new(),
        });
        let body_outs = self.stmt(body, vec![h]);
        self.wire_all(&body_outs, c);
        self.wire(c, h);
        let frame = self.frames.pop().expect("pushed above");
        let mut outs = vec![c];
        outs.extend(frame.breaks);
        outs
    }

    /// A classic three-clause `for`: init → cond → body → update → cond.
    fn lower_for3(
        &mut self,
        init: NodeId,
        cond: NodeId,
        update: NodeId,
        body: &[NodeId],
        preds: Vec<usize>,
    ) -> Vec<usize> {
        let i = self.node(self.decl_parts(init), &preds);
        let c = self.node(vec![cond], &[i]);
        let u = self.node(vec![update], &[]);
        self.frames.push(Frame {
            continue_to: Some(u),
            breaks: Vec::new(),
        });
        let body_outs = self.seq(body, vec![c]);
        self.wire_all(&body_outs, u);
        self.wire(u, c);
        let frame = self.frames.pop().expect("pushed above");
        let mut outs = vec![c];
        outs.extend(frame.breaks);
        outs
    }

    /// The conservative fallback for a `for` whose clause roles cannot
    /// be identified: every statement loops back to the header and may
    /// exit the loop.
    fn lower_loop_region(&mut self, stmts: &[NodeId], preds: Vec<usize>) -> Vec<usize> {
        let h = self.node(Vec::new(), &preds);
        self.frames.push(Frame {
            continue_to: Some(h),
            breaks: Vec::new(),
        });
        let start = self.nodes.len();
        let region_outs = self.seq(stmts, vec![h]);
        let end = self.nodes.len();
        self.wire_all(&region_outs, h);
        let frame = self.frames.pop().expect("pushed above");
        let mut outs = vec![h];
        outs.extend(start..end);
        outs.extend(frame.breaks);
        outs
    }

    /// A foreach-style loop: the header evaluates the iterable then
    /// binds the element; the body loops back to the header.
    fn lower_foreach(
        &mut self,
        header_parts: Vec<NodeId>,
        body: &[NodeId],
        preds: Vec<usize>,
    ) -> Vec<usize> {
        let h = self.node(header_parts, &preds);
        self.frames.push(Frame {
            continue_to: Some(h),
            breaks: Vec::new(),
        });
        let outs = self.seq(body, vec![h]);
        self.wire_all(&outs, h);
        let frame = self.frames.pop().expect("pushed above");
        let mut outs = vec![h];
        outs.extend(frame.breaks);
        outs
    }

    /// `try`: handlers are entered from the state before the `try` and
    /// after every node of its body (an exception may fire anywhere).
    fn lower_try(
        &mut self,
        body: &[NodeId],
        handlers: &[(Vec<NodeId>, Vec<NodeId>)],
        finally: Option<&[NodeId]>,
        preds: Vec<usize>,
    ) -> Vec<usize> {
        let start = self.nodes.len();
        let body_outs = self.seq(body, preds.clone());
        let end = self.nodes.len();
        let mut handler_preds = preds;
        handler_preds.extend(start..end);
        let mut after = body_outs;
        for (binding, stmts) in handlers {
            let entry = self.node(binding.clone(), &handler_preds);
            after.extend(self.seq(stmts, vec![entry]));
        }
        match finally {
            Some(stmts) => self.seq(stmts, after),
            None => after,
        }
    }

    /// `switch`: arms fall through in order; without a `default` the
    /// scrutinee may match nothing and flow past.
    fn lower_switch(
        &mut self,
        scrutinee: NodeId,
        arms: &[(Option<NodeId>, Vec<NodeId>)],
        preds: Vec<usize>,
    ) -> Vec<usize> {
        let s = self.node(vec![scrutinee], &preds);
        self.frames.push(Frame {
            continue_to: None,
            breaks: Vec::new(),
        });
        let mut fall: Vec<usize> = Vec::new();
        let mut has_default = false;
        for (test, stmts) in arms {
            let mut arm_preds = vec![s];
            arm_preds.extend(fall.iter().copied());
            let entry = match test {
                Some(v) => self.node(vec![*v], &arm_preds),
                None => {
                    has_default = true;
                    self.node(Vec::new(), &arm_preds)
                }
            };
            fall = self.seq(stmts, vec![entry]);
        }
        let frame = self.frames.pop().expect("pushed above");
        let mut outs = fall;
        outs.extend(frame.breaks);
        if !has_default {
            outs.push(s);
        }
        outs
    }

    // ----- JavaScript -------------------------------------------------

    fn stmt_js(&mut self, id: NodeId, preds: Vec<usize>) -> Vec<usize> {
        let children = self.ast.children(id).to_vec();
        match self.kind(id) {
            "Block" => self.seq(&children, preds),
            "If" => {
                let c = self.node(vec![children[0]], &preds);
                let has_else = children.last().is_some_and(|&l| self.kind(l) == "Else");
                let then_end = if has_else {
                    children.len() - 1
                } else {
                    children.len()
                };
                let mut outs = self.seq(&children[1..then_end], vec![c]);
                if has_else {
                    let alt = self.ast.children(children[children.len() - 1]).to_vec();
                    outs.extend(self.seq(&alt, vec![c]));
                } else {
                    outs.push(c);
                }
                outs
            }
            "While" => self.lower_while(children[0], &children[1..], preds),
            "Do" => self.lower_do(children[0], children[1], preds),
            "For" => {
                // The body is spliced after the clauses, so the clause
                // count is only certain when all three are present and
                // expression-shaped.
                let three_clauses = children.len() >= 4
                    && !statement_like(self.language, self.kind(children[1]))
                    && !statement_like(self.language, self.kind(children[2]))
                    && (matches!(self.kind(children[0]), "Var" | "Let" | "Const")
                        || !statement_like(self.language, self.kind(children[0])));
                if three_clauses {
                    self.lower_for3(children[0], children[1], children[2], &children[3..], preds)
                } else {
                    self.lower_loop_region(&children, preds)
                }
            }
            "ForIn" | "ForOf" => {
                self.lower_foreach(vec![children[1], children[0]], &children[2..], preds)
            }
            "Try" => {
                let body = self.ast.children(children[0]).to_vec();
                let mut handlers = Vec::new();
                let mut finally = None;
                for &c in &children[1..] {
                    match self.kind(c) {
                        "Catch" => {
                            let mut binding = Vec::new();
                            let mut stmts = Vec::new();
                            for &h in self.ast.children(c) {
                                match self.kind(h) {
                                    "SymbolCatch" => binding.push(h),
                                    "Block" => stmts.extend(self.ast.children(h).iter().copied()),
                                    _ => stmts.push(h),
                                }
                            }
                            handlers.push((binding, stmts));
                        }
                        "Finally" => {
                            let mut stmts = Vec::new();
                            for &h in self.ast.children(c) {
                                if self.kind(h) == "Block" {
                                    stmts.extend(self.ast.children(h).iter().copied());
                                } else {
                                    stmts.push(h);
                                }
                            }
                            finally = Some(stmts);
                        }
                        _ => {}
                    }
                }
                self.lower_try(&body, &handlers, finally.as_deref(), preds)
            }
            "Switch" => {
                let arms: Vec<(Option<NodeId>, Vec<NodeId>)> = children[1..]
                    .iter()
                    .map(|&arm| {
                        let arm_children = self.ast.children(arm).to_vec();
                        if self.kind(arm) == "Case" {
                            (Some(arm_children[0]), arm_children[1..].to_vec())
                        } else {
                            (None, arm_children)
                        }
                    })
                    .collect();
                self.lower_switch(children[0], &arms, preds)
            }
            "Var" | "Let" | "Const" => vec![self.node(self.decl_parts(id), &preds)],
            "Return" => self.do_return(id, &preds),
            "Throw" => self.do_return(id, &preds),
            "Break" => self.do_break(preds),
            "Continue" => self.do_continue(preds),
            _ => self.atomic(id, &preds),
        }
    }

    // ----- Java -------------------------------------------------------

    fn stmt_java(&mut self, id: NodeId, preds: Vec<usize>) -> Vec<usize> {
        let children = self.ast.children(id).to_vec();
        match self.kind(id) {
            "Block" => self.seq(&children, preds),
            "If" => {
                let c = self.node(vec![children[0]], &preds);
                let mut outs = self.stmt(children[1], vec![c]);
                match children.get(2) {
                    Some(&alt) => outs.extend(self.stmt(alt, vec![c])),
                    None => outs.push(c),
                }
                outs
            }
            "While" => self.lower_while(children[0], &children[1..], preds),
            "Do" => self.lower_do(children[0], children[1], preds),
            "For" => {
                // Body is always the last child; only the full
                // three-clause header is unambiguous.
                if children.len() == 4 {
                    self.lower_for3(children[0], children[1], children[2], &children[3..], preds)
                } else {
                    self.lower_loop_region(&children, preds)
                }
            }
            "ForEach" => {
                // [ty, NameVar, iterable, body]
                self.lower_foreach(vec![children[2], children[1]], &children[3..], preds)
            }
            "Try" => {
                let body = self.ast.children(children[0]).to_vec();
                let mut handlers = Vec::new();
                let mut finally = None;
                for &c in &children[1..] {
                    match self.kind(c) {
                        "Catch" => {
                            let mut binding = Vec::new();
                            let mut stmts = Vec::new();
                            for &h in self.ast.children(c) {
                                match self.kind(h) {
                                    "NameParam" => binding.push(h),
                                    "Block" => stmts.extend(self.ast.children(h).iter().copied()),
                                    _ => {}
                                }
                            }
                            handlers.push((binding, stmts));
                        }
                        "Finally" => {
                            let mut stmts = Vec::new();
                            for &h in self.ast.children(c) {
                                if self.kind(h) == "Block" {
                                    stmts.extend(self.ast.children(h).iter().copied());
                                } else {
                                    stmts.push(h);
                                }
                            }
                            finally = Some(stmts);
                        }
                        _ => {}
                    }
                }
                self.lower_try(&body, &handlers, finally.as_deref(), preds)
            }
            "Switch" => {
                let arms: Vec<(Option<NodeId>, Vec<NodeId>)> = children[1..]
                    .iter()
                    .map(|&arm| {
                        let arm_children = self.ast.children(arm).to_vec();
                        if self.kind(arm) == "Case" {
                            (Some(arm_children[0]), arm_children[1..].to_vec())
                        } else {
                            (None, arm_children)
                        }
                    })
                    .collect();
                self.lower_switch(children[0], &arms, preds)
            }
            "LocalVar" => vec![self.node(self.decl_parts(id), &preds)],
            "ExpressionStmt" => self.atomic(id, &preds),
            "Return" | "Throw" => self.do_return(id, &preds),
            "Break" => self.do_break(preds),
            "Continue" => self.do_continue(preds),
            _ => self.atomic(id, &preds),
        }
    }

    // ----- Python -----------------------------------------------------

    fn stmt_python(&mut self, id: NodeId, preds: Vec<usize>) -> Vec<usize> {
        let children = self.ast.children(id).to_vec();
        match self.kind(id) {
            "If" => {
                let c = self.node(vec![children[0]], &preds);
                let has_else = children.last().is_some_and(|&l| self.kind(l) == "OrElse");
                let then_end = if has_else {
                    children.len() - 1
                } else {
                    children.len()
                };
                let mut outs = self.seq(&children[1..then_end], vec![c]);
                if has_else {
                    let alt = self.ast.children(children[children.len() - 1]).to_vec();
                    outs.extend(self.seq(&alt, vec![c]));
                } else {
                    outs.push(c);
                }
                outs
            }
            "While" => self.lower_while(children[0], &children[1..], preds),
            "For" => {
                // [target, iter, body...]: iterate, bind, loop.
                self.lower_foreach(vec![children[1], children[0]], &children[2..], preds)
            }
            "With" => {
                // [ctx, NameStore?, body...]
                let mut header = vec![children[0]];
                let mut body_start = 1;
                if children.len() > 1 && self.kind(children[1]) == "NameStore" {
                    header.push(children[1]);
                    body_start = 2;
                }
                let w = self.node(header, &preds);
                self.seq(&children[body_start..], vec![w])
            }
            "Try" => {
                let body = self.ast.children(children[0]).to_vec();
                let mut handlers = Vec::new();
                let mut finally = None;
                for &c in &children[1..] {
                    match self.kind(c) {
                        "ExceptHandler" => {
                            let mut binding = Vec::new();
                            let mut stmts = Vec::new();
                            for &h in self.ast.children(c) {
                                match self.kind(h) {
                                    "NameStore" => binding.push(h),
                                    "ExceptType" => {}
                                    _ => stmts.push(h),
                                }
                            }
                            handlers.push((binding, stmts));
                        }
                        "Finally" => finally = Some(self.ast.children(c).to_vec()),
                        _ => {}
                    }
                }
                self.lower_try(&body, &handlers, finally.as_deref(), preds)
            }
            "Return" | "Raise" => self.do_return(id, &preds),
            "Break" => self.do_break(preds),
            "Continue" => self.do_continue(preds),
            "Pass" => preds,
            _ => self.atomic(id, &preds),
        }
    }

    // ----- C# ---------------------------------------------------------

    fn stmt_csharp(&mut self, id: NodeId, preds: Vec<usize>) -> Vec<usize> {
        let children = self.ast.children(id).to_vec();
        match self.kind(id) {
            "Block" => self.seq(&children, preds),
            "IfStatement" => {
                let c = self.node(vec![children[0]], &preds);
                let mut outs = self.stmt(children[1], vec![c]);
                match children.get(2) {
                    Some(&alt) => outs.extend(self.stmt(alt, vec![c])),
                    None => outs.push(c),
                }
                outs
            }
            "WhileStatement" => self.lower_while(children[0], &children[1..], preds),
            "DoStatement" => self.lower_do(children[0], children[1], preds),
            "ForStatement" => {
                if children.len() == 4 {
                    self.lower_for3(children[0], children[1], children[2], &children[3..], preds)
                } else {
                    self.lower_loop_region(&children, preds)
                }
            }
            "ForEachStatement" => {
                // [ty, Identifier, iterable, body]
                self.lower_foreach(vec![children[2], children[1]], &children[3..], preds)
            }
            "TryStatement" => {
                let body = self.ast.children(children[0]).to_vec();
                let mut handlers = Vec::new();
                let mut finally = None;
                for &c in &children[1..] {
                    match self.kind(c) {
                        "CatchClause" => {
                            let mut binding = Vec::new();
                            let mut stmts = Vec::new();
                            for &h in self.ast.children(c) {
                                match self.kind(h) {
                                    "Identifier" => binding.push(h),
                                    "Block" => stmts.extend(self.ast.children(h).iter().copied()),
                                    _ => {}
                                }
                            }
                            handlers.push((binding, stmts));
                        }
                        "FinallyClause" => {
                            let mut stmts = Vec::new();
                            for &h in self.ast.children(c) {
                                if self.kind(h) == "Block" {
                                    stmts.extend(self.ast.children(h).iter().copied());
                                } else {
                                    stmts.push(h);
                                }
                            }
                            finally = Some(stmts);
                        }
                        _ => {}
                    }
                }
                self.lower_try(&body, &handlers, finally.as_deref(), preds)
            }
            "SwitchStatement" => {
                let arms: Vec<(Option<NodeId>, Vec<NodeId>)> = children[1..]
                    .iter()
                    .map(|&arm| {
                        let arm_children = self.ast.children(arm).to_vec();
                        if self.kind(arm) == "CaseSwitchLabel" {
                            (Some(arm_children[0]), arm_children[1..].to_vec())
                        } else {
                            (None, arm_children)
                        }
                    })
                    .collect();
                self.lower_switch(children[0], &arms, preds)
            }
            "LocalDeclarationStatement" => vec![self.node(self.decl_parts(id), &preds)],
            "ExpressionStatement" => self.atomic(id, &preds),
            "ReturnStatement" | "ThrowStatement" => self.do_return(id, &preds),
            "BreakStatement" => self.do_break(preds),
            "ContinueStatement" => self.do_continue(preds),
            _ => self.atomic(id, &preds),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfgs(language: Language, source: &str) -> (pigeon_ast::Ast, Vec<Cfg>) {
        let ast = language.parse(source).unwrap();
        let tree = ScopeTree::build(language, &ast);
        let graphs = build_cfgs(language, &ast, &tree);
        (ast, graphs)
    }

    #[test]
    fn straight_line_function_is_a_chain() {
        let (_, graphs) = cfgs(
            Language::JavaScript,
            "function f(a) { var x = a; return x; }",
        );
        assert_eq!(graphs.len(), 1);
        let g = &graphs[0];
        // entry → var → return → exit
        assert_eq!(g.nodes[ENTRY].succs.len(), 1);
        let var = g.nodes[ENTRY].succs[0];
        assert_eq!(g.nodes[var].succs.len(), 1);
        let ret = g.nodes[var].succs[0];
        assert_eq!(g.nodes[ret].succs, vec![EXIT]);
    }

    #[test]
    fn if_without_else_branches_and_rejoins() {
        let (_, graphs) = cfgs(
            Language::JavaScript,
            "function f(a) { if (a) { a = 1; } return a; }",
        );
        let g = &graphs[0];
        // The condition node has two successors: the then-branch and
        // (via fall-through) the return.
        let cond = g.nodes[ENTRY].succs[0];
        assert_eq!(g.nodes[cond].succs.len(), 2);
    }

    #[test]
    fn while_loop_has_a_back_edge() {
        let (_, graphs) = cfgs(
            Language::JavaScript,
            "function f(n) { while (n) { n = n - 1; } return n; }",
        );
        let g = &graphs[0];
        let cond = g.nodes[ENTRY].succs[0];
        let body = *g.nodes[cond]
            .succs
            .iter()
            .find(|&&s| g.nodes[s].succs.contains(&cond))
            .expect("loop body loops back to the condition");
        assert!(g.nodes[body].succs.contains(&cond));
    }

    #[test]
    fn classic_for_loops_in_every_c_like_language() {
        for (language, source) in [
            (
                Language::JavaScript,
                "function f(n) { for (var i = 0; i < n; i++) { n = n - 1; } return n; }",
            ),
            (
                Language::Java,
                "class A { int f(int n) { for (int i = 0; i < n; i++) { n = n - 1; } return n; } }",
            ),
            (
                Language::CSharp,
                "class A { int F(int n) { for (int i = 0; i < n; i++) { n = n - 1; } return n; } }",
            ),
        ] {
            let (_, graphs) = cfgs(language, source);
            let g = &graphs[0];
            // init → cond; cond has two successors (body, after); the
            // update loops back to cond.
            let init = g.nodes[ENTRY].succs[0];
            let cond = g.nodes[init].succs[0];
            assert_eq!(g.nodes[cond].succs.len(), 2, "{language:?}");
            assert!(
                g.nodes[cond].preds.len() >= 2,
                "{language:?}: cond must also be entered by the update's back edge"
            );
        }
    }

    #[test]
    fn return_cuts_fallthrough() {
        let (_, graphs) = cfgs(Language::Python, "def f(x):\n    return x\n    y = 1\n");
        let g = &graphs[0];
        // The statement after the return is unreachable.
        let reachable = g.reachable();
        let unreachable: Vec<usize> = (0..g.nodes.len()).filter(|&n| !reachable[n]).collect();
        assert!(!unreachable.is_empty());
    }

    #[test]
    fn try_handlers_are_entered_from_the_body() {
        let (_, graphs) = cfgs(
            Language::Python,
            "def f(x):\n    try:\n        y = x\n    except Exception as e:\n        y = e\n    return y\n",
        );
        let g = &graphs[0];
        // Some node carries the handler binding `e` as a part and has
        // more than one predecessor (try entry + body states).
        let handler = (0..g.nodes.len())
            .find(|&n| !g.nodes[n].parts.is_empty() && g.nodes[n].preds.len() >= 2 && n != EXIT);
        assert!(handler.is_some());
    }

    #[test]
    fn construction_is_deterministic() {
        for language in Language::ALL {
            let corpus = pigeon_corpus::generate(
                language,
                &pigeon_corpus::CorpusConfig::default().with_files(6),
            );
            for doc in &corpus.docs {
                let ast = language.parse(&doc.source).unwrap();
                let tree = ScopeTree::build(language, &ast);
                let a = build_cfgs(language, &ast, &tree);
                let b = build_cfgs(language, &ast, &tree);
                let dump = |gs: &[Cfg]| {
                    gs.iter()
                        .map(|g| {
                            g.nodes
                                .iter()
                                .map(|n| format!("{:?}{:?}{:?}", n.parts, n.succs, n.preds))
                                .collect::<String>()
                        })
                        .collect::<String>()
                };
                assert_eq!(dump(&a), dump(&b));
            }
        }
    }

    #[test]
    fn every_variable_occurrence_is_covered_by_some_part() {
        // On generated corpora, every occurrence of a function-scoped
        // variable must be inside some CFG node's parts — otherwise the
        // dataflow pass would silently miss uses or definitions.
        for language in Language::ALL {
            let corpus = pigeon_corpus::generate(
                language,
                &pigeon_corpus::CorpusConfig::default().with_files(6),
            );
            for doc in &corpus.docs {
                let ast = language.parse(&doc.source).unwrap();
                let tree = ScopeTree::build(language, &ast);
                let graphs = build_cfgs(language, &ast, &tree);
                let resolution = crate::scopes::resolve(language, &ast);
                for g in &graphs {
                    let mut covered = vec![false; ast.len()];
                    for node in &g.nodes {
                        for &part in &node.parts {
                            let mut stack = vec![part];
                            while let Some(id) = stack.pop() {
                                covered[id.index()] = true;
                                stack.extend(ast.children(id).iter().copied());
                            }
                        }
                    }
                    for group in &resolution.groups {
                        if group.scope != Some(g.scope) {
                            continue;
                        }
                        for &leaf in &group.occurrences {
                            assert!(
                                covered[leaf.index()],
                                "{language:?}: uncovered occurrence of {:?} (leaf {})",
                                group.name,
                                leaf.index(),
                            );
                        }
                    }
                }
            }
        }
    }
}
