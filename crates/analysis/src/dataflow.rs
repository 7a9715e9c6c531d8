//! Classic data-flow analyses over the per-function CFGs of
//! [`crate::cfg`]: reaching definitions, liveness, and last-use chains,
//! solved by fixed-point iteration on bitsets.
//!
//! Two consumers share one engine run:
//!
//! * **Lints** ([`lint`]): four def-use diagnostics with stable codes
//!   (see [`LINT_CODES`]) — `use-before-def`, `dead-store`,
//!   `unused-binding`, `write-write-shadow` — cross-checked against the
//!   binding groups of [`crate::scopes::resolve`].
//! * **Flow edges** ([`flow_edges`]): typed `last-use` / `last-write`
//!   edges between variable occurrences, which `pigeon-core` turns into
//!   the edge-typed path-contexts behind `--dataflow-contexts`.
//!
//! # Determinism
//!
//! Everything is a pure function of the AST. Variables are numbered in
//! the resolver's (name, scope) order, CFG nodes in lowering order, and
//! occurrences in evaluation order; the fixed-point loops sweep nodes in
//! index order until stable, which converges to the unique least
//! solution regardless of sweep order. No hashing, no parallelism —
//! byte-identical output for every `--jobs` value.
//!
//! # Soundness stance
//!
//! The CFG over-approximates control flow (see `cfg.rs`), so reaching
//! sets only ever grow. Every lint is phrased so that extra paths
//! *suppress* it: `use-before-def` requires that **no** real definition
//! reaches the read, `dead-store` that the value is live on **no**
//! outgoing path. Variables captured by a nested function scope are
//! excluded from flow lints entirely — a closure may read or write them
//! at any time — but still participate in `unused-binding`, which
//! counts reads across all scopes.
//!
//! Within one CFG node, each `part` (statement) emits its reads before
//! its writes: the right-hand side of an assignment is evaluated before
//! the store, and `i++` both reads and writes. This is exact for the
//! single-assignment statements of the four frontends.

use crate::cfg::{build_cfgs, Cfg, ENTRY};
use crate::diag::{Diagnostic, Severity};
use crate::scopes::{resolve_in, ResolvedGroup, ScopeTree};
use pigeon_ast::{Ast, NodeId};
use pigeon_core::{FlowEdge, FlowKind};
use pigeon_corpus::Language;
use pigeon_telemetry as telemetry;
use std::collections::BTreeMap;
use std::time::Instant;

/// Histogram family for engine timing, split by `phase` label
/// (`cfg` = scope + CFG construction, `solve` = fixed points + report).
pub const DATAFLOW_MICROS: &str = "pigeon_dataflow_micros";

/// The four lint codes this module emits, with their one-line
/// descriptions (stable; documented in README and `--list-codes`).
pub const LINT_CODES: [(&str, &str); 4] = [
    (
        "use-before-def",
        "a variable is read on a path where no assignment has reached it",
    ),
    (
        "dead-store",
        "an assigned value can never be read on any outgoing path",
    ),
    (
        "unused-binding",
        "a declared variable is never read anywhere",
    ),
    (
        "write-write-shadow",
        "an assigned value is always overwritten before being read",
    ),
];

/// Registers the metric families this module emits so `/v1/metrics`
/// exposes them (as zeros) before the first document is analysed.
pub fn register_metrics() {
    telemetry::describe(
        DATAFLOW_MICROS,
        "Data-flow engine wall time in microseconds, by phase",
    );
    for phase in ["cfg", "solve"] {
        telemetry::histogram(
            DATAFLOW_MICROS,
            &[("phase", phase)],
            telemetry::PHASE_BOUNDS,
        );
    }
}

/// What one variable occurrence does, before expansion into the
/// read/write stream.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Access {
    Use,
    Def(DefKind),
    /// Reads the old value, then writes (`i++`, `x += 1`).
    UseDef(DefKind),
    /// Not a variable access at all: a property-position leaf
    /// (`obj.name`) that merely shares the variable's text. The
    /// resolver groups it by name; the flow engine must not.
    Skip,
}

/// Why a write exists. Only explicit value stores (`Init`, `Assign`,
/// `Update`) are dead-store candidates: a bare declaration, parameter,
/// or loop/with/catch binding stores no value the programmer wrote.
#[derive(Clone, Copy, PartialEq, Eq)]
enum DefKind {
    Param,
    Catch,
    LoopBinding,
    With,
    Decl,
    Init,
    Assign,
    Update,
}

impl DefKind {
    fn is_store(self) -> bool {
        matches!(self, DefKind::Init | DefKind::Assign | DefKind::Update)
    }
}

fn kind_str(ast: &Ast, id: NodeId) -> &'static str {
    ast.kind(id).as_str()
}

fn parent_kind(ast: &Ast, id: NodeId) -> &'static str {
    ast.parent(id).map_or("", |p| kind_str(ast, p))
}

fn is_first_child(ast: &Ast, id: NodeId) -> bool {
    ast.child_index(id) == 0
}

fn is_incdec(kind: &str) -> bool {
    kind.ends_with("++") || kind.ends_with("--")
}

/// Classifies one variable-occurrence leaf. Unknown shapes default to
/// `Use`: the resolver groups *any* valued leaf whose text matches a
/// declared name (e.g. a property access), and treating those as reads
/// can only suppress findings, never invent them.
fn classify(language: Language, ast: &Ast, leaf: NodeId) -> Access {
    let kind = kind_str(ast, leaf);
    let parent = parent_kind(ast, leaf);
    // Property-position leaves: `obj.name` names a member, not the
    // local `name`.
    match (language, kind) {
        (Language::JavaScript, "Property")
        | (Language::Java, "NameField")
        | (Language::Python, "AttrName") => return Access::Skip,
        (Language::CSharp, "IdentifierName")
            if parent == "SimpleMemberAccessExpression" && !is_first_child(ast, leaf) =>
        {
            return Access::Skip
        }
        _ => {}
    }
    match language {
        Language::JavaScript => match kind {
            "SymbolFunarg" => Access::Def(DefKind::Param),
            "SymbolCatch" => Access::Def(DefKind::Catch),
            "SymbolVar" => {
                // VarDef[SymbolVar, init?]; a VarDef directly under
                // ForIn/ForOf is the loop binding.
                let grandparent = ast.parent(leaf).map_or("", |p| parent_kind(ast, p));
                if matches!(grandparent, "ForIn" | "ForOf") {
                    Access::Def(DefKind::LoopBinding)
                } else if ast.parent(leaf).is_some_and(|p| ast.children(p).len() >= 2) {
                    Access::Def(DefKind::Init)
                } else {
                    Access::Def(DefKind::Decl)
                }
            }
            "SymbolRef" => {
                if parent == "Assign=" && is_first_child(ast, leaf) {
                    Access::Def(DefKind::Assign)
                } else if (parent.starts_with("Assign") && is_first_child(ast, leaf))
                    || ((parent.starts_with("UnaryPrefix") || parent.starts_with("UnaryPostfix"))
                        && is_incdec(parent))
                {
                    Access::UseDef(DefKind::Update)
                } else if matches!(parent, "ForIn" | "ForOf") && is_first_child(ast, leaf) {
                    // `for (x of xs)` re-binding an existing variable.
                    Access::Def(DefKind::LoopBinding)
                } else {
                    Access::Use
                }
            }
            _ => Access::Use,
        },
        Language::Java => match kind {
            "NameParam" => {
                if parent == "Catch" {
                    Access::Def(DefKind::Catch)
                } else {
                    Access::Def(DefKind::Param)
                }
            }
            "NameVar" => {
                if parent == "ForEach" {
                    Access::Def(DefKind::LoopBinding)
                } else if ast.parent(leaf).is_some_and(|p| ast.children(p).len() >= 2) {
                    Access::Def(DefKind::Init)
                } else {
                    Access::Def(DefKind::Decl)
                }
            }
            "NameRef" => {
                if parent == "Assign=" && is_first_child(ast, leaf) {
                    Access::Def(DefKind::Assign)
                } else if (parent.starts_with("Assign") && is_first_child(ast, leaf))
                    || ((parent.starts_with("UnaryPrefix") || parent.starts_with("UnaryPostfix"))
                        && is_incdec(parent))
                {
                    Access::UseDef(DefKind::Update)
                } else {
                    Access::Use
                }
            }
            _ => Access::Use,
        },
        Language::Python => match kind {
            "NameParam" => Access::Def(DefKind::Param),
            "NameStore" => match parent {
                "For" => Access::Def(DefKind::LoopBinding),
                "With" => Access::Def(DefKind::With),
                "ExceptHandler" => Access::Def(DefKind::Catch),
                "TupleStore" => {
                    let grandparent = ast.parent(leaf).map_or("", |p| parent_kind(ast, p));
                    if grandparent == "For" {
                        Access::Def(DefKind::LoopBinding)
                    } else {
                        Access::Def(DefKind::Assign)
                    }
                }
                p if p.starts_with("AugAssign") => Access::UseDef(DefKind::Update),
                // `Assign` and any other store position.
                _ => Access::Def(DefKind::Assign),
            },
            _ => Access::Use,
        },
        Language::CSharp => match kind {
            "Identifier" => match parent {
                "Parameter" => Access::Def(DefKind::Param),
                "CatchClause" => Access::Def(DefKind::Catch),
                "ForEachStatement" => Access::Def(DefKind::LoopBinding),
                "VariableDeclarator" => {
                    if ast.parent(leaf).is_some_and(|p| ast.children(p).len() >= 2) {
                        Access::Def(DefKind::Init)
                    } else {
                        Access::Def(DefKind::Decl)
                    }
                }
                _ => Access::Use,
            },
            "IdentifierName" => {
                if parent == "AssignmentExpression=" && is_first_child(ast, leaf) {
                    Access::Def(DefKind::Assign)
                } else if (parent.starts_with("AssignmentExpression") && is_first_child(ast, leaf))
                    || ((parent.starts_with("PrefixUnaryExpression")
                        || parent.starts_with("PostfixUnaryExpression"))
                        && is_incdec(parent))
                {
                    Access::UseDef(DefKind::Update)
                } else {
                    Access::Use
                }
            }
            _ => Access::Use,
        },
    }
}

/// A fixed-width bitset; the universes here (defs, reads, variables of
/// one function) are small, so `Vec<u64>` words beat any sparse set.
#[derive(Clone, PartialEq, Eq)]
struct Bits {
    words: Vec<u64>,
}

impl Bits {
    fn new(len: usize) -> Bits {
        Bits {
            words: vec![0; len.div_ceil(64)],
        }
    }

    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    fn get(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    fn union(&mut self, other: &Bits) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    fn subtract(&mut self, other: &Bits) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// Indices set in both `self` and `mask`, ascending.
    fn ones_in<'a>(&'a self, mask: &'a Bits) -> impl Iterator<Item = usize> + 'a {
        self.words
            .iter()
            .zip(&mask.words)
            .enumerate()
            .flat_map(|(wi, (a, b))| {
                let mut word = a & b;
                std::iter::from_fn(move || {
                    if word == 0 {
                        return None;
                    }
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    Some(wi * 64 + bit)
                })
            })
    }
}

/// One entry of a node's read/write stream.
#[derive(Clone, Copy)]
enum Occ {
    Read {
        leaf: NodeId,
        var: u32,
        read_id: u32,
    },
    Write {
        leaf: NodeId,
        var: u32,
        def_id: u32,
        kind: DefKind,
    },
}

/// Everything the engine knows about one function after collection.
struct Func<'a> {
    cfg: &'a Cfg,
    /// Read/write stream per CFG node, in evaluation order.
    occs: Vec<Vec<Occ>>,
    names: Vec<String>,
    /// Reads per variable across *all* scopes (closure reads count).
    read_count: Vec<u32>,
    /// Any occurrence lives in a nested function scope.
    captured: Vec<bool>,
    /// Any def is a parameter or catch binding (unused-binding exempt).
    binding_exempt: Vec<bool>,
    /// First occurrence leaf per variable, for group-level findings.
    first_occurrence: Vec<NodeId>,
    def_leaf: Vec<NodeId>,
    def_node: Vec<usize>,
    def_kind: Vec<DefKind>,
    read_leaf: Vec<NodeId>,
    /// Def universe (`nvars` bottom bits, then real defs) per variable.
    var_defs: Vec<Bits>,
    /// Read universe per variable.
    var_reads: Vec<Bits>,
    nvars: usize,
}

/// Collects the per-node occurrence streams of one function.
/// `extras[v]` holds occurrences of variable `v` that live in *nested*
/// function scopes (closures): they stay out of this CFG's streams but
/// mark the variable captured and count towards its reads.
fn collect<'a>(
    language: Language,
    ast: &Ast,
    tree: &ScopeTree,
    groups: &[&ResolvedGroup],
    extras: &[Vec<NodeId>],
    cfg: &'a Cfg,
    var_of: &mut [u32],
) -> Func<'a> {
    let nvars = groups.len();
    let mut read_count = vec![0u32; nvars];
    let mut captured = vec![false; nvars];
    let mut binding_exempt = vec![false; nvars];
    let mut first_occurrence = Vec::with_capacity(nvars);
    let mut names = Vec::with_capacity(nvars);
    for (v, g) in groups.iter().enumerate() {
        names.push(g.name.clone());
        first_occurrence.push(g.occurrences[0]);
        for &leaf in g.occurrences.iter().chain(&extras[v]) {
            match classify(language, ast, leaf) {
                Access::Use | Access::UseDef(_) => read_count[v] += 1,
                Access::Def(_) | Access::Skip => {}
            }
            if let Access::Def(k) | Access::UseDef(k) = classify(language, ast, leaf) {
                if matches!(k, DefKind::Param | DefKind::Catch) {
                    binding_exempt[v] = true;
                }
            }
            if tree.scope_of(leaf) == cfg.scope {
                var_of[leaf.index()] = v as u32;
            } else {
                captured[v] = true;
            }
        }
    }

    let mut occs: Vec<Vec<Occ>> = vec![Vec::new(); cfg.nodes.len()];
    let mut def_leaf = Vec::new();
    let mut def_node = Vec::new();
    let mut def_kind = Vec::new();
    let mut def_var = Vec::new();
    let mut read_leaf = Vec::new();
    let mut read_var = Vec::new();
    for (n, node) in cfg.nodes.iter().enumerate() {
        for &part in &node.parts {
            // All reads of the part (in preorder), then all its writes:
            // a statement evaluates its right-hand side before storing.
            let mut reads = Vec::new();
            let mut writes = Vec::new();
            let mut stack = vec![part];
            let mut leaves = Vec::new();
            while let Some(id) = stack.pop() {
                if ast.is_terminal(id) {
                    leaves.push(id);
                }
                for &c in ast.children(id).iter().rev() {
                    stack.push(c);
                }
            }
            for leaf in leaves {
                let v = var_of[leaf.index()];
                if v == u32::MAX {
                    continue;
                }
                match classify(language, ast, leaf) {
                    Access::Use => reads.push((leaf, v)),
                    Access::Def(k) => writes.push((leaf, v, k)),
                    Access::UseDef(k) => {
                        reads.push((leaf, v));
                        writes.push((leaf, v, k));
                    }
                    Access::Skip => {}
                }
            }
            for (leaf, var) in reads {
                let read_id = read_leaf.len() as u32;
                read_leaf.push(leaf);
                read_var.push(var);
                occs[n].push(Occ::Read { leaf, var, read_id });
            }
            for (leaf, var, kind) in writes {
                let def_id = def_leaf.len() as u32;
                def_leaf.push(leaf);
                def_node.push(n);
                def_kind.push(kind);
                def_var.push(var);
                occs[n].push(Occ::Write {
                    leaf,
                    var,
                    def_id,
                    kind,
                });
            }
        }
    }

    let ndefs = nvars + def_leaf.len();
    let mut var_defs: Vec<Bits> = (0..nvars)
        .map(|v| {
            let mut b = Bits::new(ndefs);
            b.set(v); // the ⊥ "uninitialized" pseudo-def
            b
        })
        .collect();
    for (d, &v) in def_var.iter().enumerate() {
        var_defs[v as usize].set(nvars + d);
    }
    let mut var_reads: Vec<Bits> = vec![Bits::new(read_leaf.len()); nvars];
    for (r, &v) in read_var.iter().enumerate() {
        var_reads[v as usize].set(r);
    }
    // Leave the shared table clean for the next function.
    for (g, extra) in groups.iter().zip(extras) {
        for &leaf in g.occurrences.iter().chain(extra) {
            var_of[leaf.index()] = u32::MAX;
        }
    }

    Func {
        cfg,
        occs,
        names,
        read_count,
        captured,
        binding_exempt,
        first_occurrence,
        def_leaf,
        def_node,
        def_kind,
        read_leaf,
        var_defs,
        var_reads,
        nvars,
    }
}

impl Func<'_> {
    fn nn(&self) -> usize {
        self.cfg.nodes.len()
    }

    /// Forward may-analysis: which definitions (⊥ or real) may reach
    /// each node entry. Strong updates: a write kills every other def
    /// of its variable. A bare declaration (`DefKind::Decl`) stores no
    /// value: it neither kills ⊥ nor enters the def sets, so `int x;`
    /// leaves the variable uninitialized.
    fn reaching_defs(&self) -> Vec<Bits> {
        let nd = self.nvars + self.def_leaf.len();
        let mut bottoms = Bits::new(nd);
        for v in 0..self.nvars {
            bottoms.set(v);
        }
        let mut out: Vec<Bits> = vec![Bits::new(nd); self.nn()];
        loop {
            let mut changed = false;
            for n in 0..self.nn() {
                let mut cur = self.in_defs(n, &out, &bottoms);
                for occ in &self.occs[n] {
                    if let Occ::Write {
                        var, def_id, kind, ..
                    } = occ
                    {
                        if *kind != DefKind::Decl {
                            cur.subtract(&self.var_defs[*var as usize]);
                            cur.set(self.nvars + *def_id as usize);
                        }
                    }
                }
                if cur != out[n] {
                    out[n] = cur;
                    changed = true;
                }
            }
            if !changed {
                return out;
            }
        }
    }

    fn in_defs(&self, n: usize, out: &[Bits], bottoms: &Bits) -> Bits {
        let mut cur = if n == ENTRY {
            bottoms.clone()
        } else {
            Bits::new(bottoms.words.len() * 64)
        };
        for &p in &self.cfg.nodes[n].preds {
            cur.union(&out[p]);
        }
        cur
    }

    /// Forward may-analysis: which *reads* may be the most recent read
    /// of each variable. A read supersedes earlier reads of the same
    /// variable; writes do not kill (last-use looks through them).
    fn reaching_reads(&self) -> Vec<Bits> {
        let nr = self.read_leaf.len();
        let mut out: Vec<Bits> = vec![Bits::new(nr); self.nn()];
        loop {
            let mut changed = false;
            for n in 0..self.nn() {
                let mut cur = Bits::new(nr);
                for &p in &self.cfg.nodes[n].preds {
                    cur.union(&out[p]);
                }
                for occ in &self.occs[n] {
                    if let Occ::Read { var, read_id, .. } = occ {
                        cur.subtract(&self.var_reads[*var as usize]);
                        cur.set(*read_id as usize);
                    }
                }
                if cur != out[n] {
                    out[n] = cur;
                    changed = true;
                }
            }
            if !changed {
                return out;
            }
        }
    }

    /// Backward liveness at node exit, over variables.
    fn live_out(&self) -> Vec<Bits> {
        let mut live_in: Vec<Bits> = vec![Bits::new(self.nvars); self.nn()];
        let mut live_out: Vec<Bits> = vec![Bits::new(self.nvars); self.nn()];
        loop {
            let mut changed = false;
            for n in (0..self.nn()).rev() {
                let mut out = Bits::new(self.nvars);
                for &s in &self.cfg.nodes[n].succs {
                    out.union(&live_in[s]);
                }
                let mut cur = out.clone();
                for occ in self.occs[n].iter().rev() {
                    match occ {
                        Occ::Write { var, .. } => cur.clear(*var as usize),
                        Occ::Read { var, .. } => cur.set(*var as usize),
                    }
                }
                live_out[n] = out;
                if cur != live_in[n] {
                    live_in[n] = cur;
                    changed = true;
                }
            }
            if !changed {
                return live_out;
            }
        }
    }

    /// Nodes reachable strictly *after* `n` (via its successors; `n`
    /// itself only through a cycle).
    fn reachable_after(&self, n: usize) -> Vec<bool> {
        let mut seen = vec![false; self.nn()];
        let mut work: Vec<usize> = self.cfg.nodes[n].succs.clone();
        for &s in &work {
            seen[s] = true;
        }
        while let Some(m) = work.pop() {
            for &s in &self.cfg.nodes[m].succs {
                if !seen[s] {
                    seen[s] = true;
                    work.push(s);
                }
            }
        }
        seen
    }
}

/// One raw finding, before rendering into a [`Diagnostic`].
struct Hit {
    leaf: NodeId,
    code: &'static str,
    message: String,
}

/// Runs the engine over every function of one tree, producing typed
/// flow edges and, when `lint` is set, lint hits in the same pass.
/// Without `lint` no liveness is solved and no hit is built.
fn analyze(language: Language, ast: &Ast, lint: bool) -> (Vec<Hit>, Vec<FlowEdge>) {
    let t0 = Instant::now();
    let tree = ScopeTree::build(language, ast);
    let resolution = resolve_in(language, ast, &tree);
    let cfgs = build_cfgs(language, ast, &tree);
    telemetry::observe(
        DATAFLOW_MICROS,
        &[("phase", "cfg")],
        t0.elapsed().as_micros() as u64,
    );

    // The resolver buckets by *exact* scope: an occurrence inside a
    // nested function whose binding lives in an enclosing scope lands
    // in the file-wide residual group. Re-attach each such occurrence
    // to its nearest declaring ancestor scope so the binding counts as
    // captured (and closure reads count as reads).
    let mut declared_in: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for g in &resolution.groups {
        if let Some(scope) = g.scope {
            declared_in.entry(g.name.as_str()).or_default().push(scope);
        }
    }
    let mut nested: BTreeMap<(&str, usize), Vec<NodeId>> = BTreeMap::new();
    for g in resolution.groups.iter().filter(|g| g.scope.is_none()) {
        let Some(scopes) = declared_in.get(g.name.as_str()) else {
            continue;
        };
        for &leaf in &g.occurrences {
            let mut cur = Some(tree.scope_of(leaf));
            while let Some(s) = cur {
                // Groups come in (name, scope) order, so `scopes` is sorted.
                if scopes.binary_search(&s).is_ok() {
                    nested.entry((g.name.as_str(), s)).or_default().push(leaf);
                    break;
                }
                cur = tree.scopes()[s].parent;
            }
        }
    }

    let t1 = Instant::now();
    let mut hits = Vec::new();
    let mut edges = Vec::new();
    // Each scope's variable groups, in resolution order.
    let mut groups_of: Vec<Vec<&ResolvedGroup>> = vec![Vec::new(); tree.scopes().len()];
    for g in &resolution.groups {
        if let Some(scope) = g.scope {
            groups_of[scope].push(g);
        }
    }
    // One occurrence → variable table for every function, reset after
    // each.
    let mut var_of = vec![u32::MAX; ast.len()];
    for cfg in &cfgs {
        let groups = &groups_of[cfg.scope];
        if groups.is_empty() {
            continue;
        }
        let extras: Vec<Vec<NodeId>> = groups
            .iter()
            .map(|g| {
                nested
                    .get(&(g.name.as_str(), cfg.scope))
                    .cloned()
                    .unwrap_or_default()
            })
            .collect();
        let func = collect(language, ast, &tree, groups, &extras, cfg, &mut var_of);
        solve_function(&func, lint.then_some(&mut hits), &mut edges);
    }
    edges.sort_unstable();
    edges.dedup();
    telemetry::observe(
        DATAFLOW_MICROS,
        &[("phase", "solve")],
        t1.elapsed().as_micros() as u64,
    );
    (hits, edges)
}

/// Solves one function's fixed points and walks every reachable node
/// once more, simulating the streams against the entry facts to emit
/// flow edges and, given `hits`, report per-occurrence findings. Only
/// the findings need liveness, so it is solved only for them.
fn solve_function(func: &Func<'_>, mut hits: Option<&mut Vec<Hit>>, edges: &mut Vec<FlowEdge>) {
    let out_defs = func.reaching_defs();
    let out_reads = func.reaching_reads();
    let live_out = hits.as_ref().map(|_| func.live_out());
    let reachable = func.cfg.reachable();
    let nd = func.nvars + func.def_leaf.len();
    let mut bottoms = Bits::new(nd);
    for v in 0..func.nvars {
        bottoms.set(v);
    }

    for (n, &is_reachable) in reachable.iter().enumerate().take(func.nn()) {
        if !is_reachable {
            continue;
        }
        let mut defs = func.in_defs(n, &out_defs, &bottoms);
        let mut reads = Bits::new(func.read_leaf.len());
        for &p in &func.cfg.nodes[n].preds {
            reads.union(&out_reads[p]);
        }
        for (pos, occ) in func.occs[n].iter().enumerate() {
            match *occ {
                Occ::Read { leaf, var, read_id } => {
                    let v = var as usize;
                    let mut any_real = false;
                    for d in defs.ones_in(&func.var_defs[v]) {
                        if d >= func.nvars {
                            any_real = true;
                            let target = func.def_leaf[d - func.nvars];
                            if target != leaf {
                                edges.push(FlowEdge {
                                    kind: FlowKind::LastWrite,
                                    from: leaf,
                                    to: target,
                                });
                            }
                        }
                    }
                    if let Some(hits) = hits
                        .as_deref_mut()
                        .filter(|_| !func.captured[v] && defs.get(v) && !any_real)
                    {
                        hits.push(Hit {
                            leaf,
                            code: "use-before-def",
                            message: format!(
                                "`{}` is read before any assignment reaches it",
                                func.names[v]
                            ),
                        });
                    }
                    for r in reads.ones_in(&func.var_reads[v]) {
                        let target = func.read_leaf[r];
                        if target != leaf {
                            edges.push(FlowEdge {
                                kind: FlowKind::LastUse,
                                from: leaf,
                                to: target,
                            });
                        }
                    }
                    reads.subtract(&func.var_reads[v]);
                    reads.set(read_id as usize);
                }
                Occ::Write {
                    leaf,
                    var,
                    def_id,
                    kind,
                } => {
                    let v = var as usize;
                    for d in defs.ones_in(&func.var_defs[v]) {
                        if d >= func.nvars {
                            let target = func.def_leaf[d - func.nvars];
                            if target != leaf {
                                edges.push(FlowEdge {
                                    kind: FlowKind::LastWrite,
                                    from: leaf,
                                    to: target,
                                });
                            }
                        }
                    }
                    if let (Some(hits), Some(live_out)) = (hits.as_deref_mut(), &live_out) {
                        if !func.captured[v] && kind.is_store() && func.read_count[v] > 0 {
                            check_dead_store(func, n, pos, leaf, var, def_id, live_out, hits);
                        }
                    }
                    if kind != DefKind::Decl {
                        defs.subtract(&func.var_defs[v]);
                        defs.set(func.nvars + def_id as usize);
                    }
                }
            }
        }
    }

    // Group-level finding: declared but never read, in any scope.
    // Parameters and catch bindings are part of a signature the author
    // may not control; they are exempt, as linters conventionally do.
    let Some(hits) = hits else {
        return;
    };
    for v in 0..func.nvars {
        if func.read_count[v] == 0 && !func.binding_exempt[v] {
            hits.push(Hit {
                leaf: func.first_occurrence[v],
                code: "unused-binding",
                message: format!("`{}` is never read", func.names[v]),
            });
        }
    }
}

/// Decides whether the write at `occs[n][pos]` can ever be read, and
/// reports `dead-store` (no later def on any path) or
/// `write-write-shadow` (a later def overwrites it) when it cannot.
#[allow(clippy::too_many_arguments)]
fn check_dead_store(
    func: &Func<'_>,
    n: usize,
    pos: usize,
    leaf: NodeId,
    var: u32,
    def_id: u32,
    live_out: &[Bits],
    hits: &mut Vec<Hit>,
) {
    let v = var as usize;
    // First, the rest of this node's stream settles it exactly.
    for occ in &func.occs[n][pos + 1..] {
        match *occ {
            Occ::Read { var: rv, .. } if rv == var => return,
            Occ::Write { var: wv, .. } if wv == var => {
                hits.push(Hit {
                    leaf,
                    code: "write-write-shadow",
                    message: format!(
                        "value assigned to `{}` is overwritten before being read",
                        func.names[v]
                    ),
                });
                return;
            }
            _ => {}
        }
    }
    if live_out[n].get(v) {
        return;
    }
    // Dead at node exit. If some other def of the variable sits on a
    // path out of here, the store is shadowed; otherwise it is simply
    // never read again.
    let after = func.reachable_after(n);
    let shadowed = func.def_node.iter().enumerate().any(|(d, &dn)| {
        d as u32 != def_id
            && func.def_kind[d] != DefKind::Decl
            && after[dn]
            && func.var_defs[v].get(func.nvars + d)
    });
    hits.push(Hit {
        leaf,
        code: if shadowed {
            "write-write-shadow"
        } else {
            "dead-store"
        },
        message: if shadowed {
            format!(
                "value assigned to `{}` is overwritten before being read",
                func.names[v]
            )
        } else {
            format!("value assigned to `{}` is never read", func.names[v])
        },
    });
}

/// Runs the four data-flow lints over one tree. Deterministic and
/// jobs-invariant; diagnostics are ordered by leaf preorder index, then
/// code.
pub fn lint(language: Language, unit: &str, ast: &Ast) -> Vec<Diagnostic> {
    let (mut hits, _) = analyze(language, ast, true);
    hits.sort_by(|a, b| (a.leaf.index(), a.code).cmp(&(b.leaf.index(), b.code)));
    hits.into_iter()
        .map(|h| {
            Diagnostic::new(h.code, Severity::Warning, unit.to_string(), h.message)
                .with_language(language)
                .with_node(h.leaf.index() as u32)
        })
        .collect()
}

/// Computes the typed data-flow edges of one tree: for every variable
/// occurrence, `LastWrite` edges to each definition that may reach it
/// and `LastUse` edges to each read that may precede it. Sorted by
/// (kind, from, to) and deduplicated; self-edges are dropped.
pub fn flow_edges(language: Language, ast: &Ast) -> Vec<FlowEdge> {
    analyze(language, ast, false).1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_js(source: &str) -> Vec<Diagnostic> {
        let ast = Language::JavaScript.parse(source).unwrap();
        lint(Language::JavaScript, "test.js", &ast)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_function_produces_no_findings() {
        let diags = lint_js("function f(a) { var b = a + 1; return b; }");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn use_before_def_fires_on_a_straight_line() {
        let diags = lint_js("function f() { g(x); var x = 1; return x; }");
        assert_eq!(codes(&diags), ["use-before-def"]);
    }

    #[test]
    fn a_maybe_initialized_read_is_not_flagged() {
        // On the `else` path x is still ⊥, but on the `then` path it is
        // defined — "may reach" means no finding.
        let diags = lint_js("function f(c) { var x; if (c) { x = 1; } return x; }");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn dead_store_fires_when_the_value_cannot_be_read() {
        let diags = lint_js("function f(a) { var b = a; b = 2; return b; }");
        // The initializing store of `b` is immediately overwritten.
        assert_eq!(codes(&diags), ["write-write-shadow"]);
        let diags = lint_js("function f(a) { var b = 1; return a; }");
        assert_eq!(codes(&diags), ["unused-binding"]);
    }

    #[test]
    fn final_dead_store_without_shadow_is_a_dead_store() {
        let diags = lint_js("function f(a) { var b = a; g(b); b = 2; return a; }");
        assert_eq!(codes(&diags), ["dead-store"]);
    }

    #[test]
    fn loop_carried_values_stay_alive() {
        let diags = lint_js(
            "function f(n) { var t = 0; for (var i = 0; i < n; i++) { t += i; } return t; }",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unused_binding_ignores_parameters() {
        let diags = lint_js("function f(unused) { return 1; }");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn captured_variables_are_exempt_from_flow_lints() {
        let diags =
            lint_js("function f() { var x = 1; var g = function () { return x; }; return g; }");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn every_language_flags_a_seeded_use_before_def() {
        for (language, source) in [
            (
                Language::Java,
                "class C { int f() { int x; int y = x + 1; x = 2; return y + x; } }",
            ),
            (
                Language::Python,
                "def f():\n    y = x + 1\n    x = 2\n    return y + x\n",
            ),
            (
                Language::CSharp,
                "class C { int F() { int x; int y = x + 1; x = 2; return y + x; } }",
            ),
        ] {
            let ast = language.parse(source).unwrap();
            let diags = lint(language, "unit", &ast);
            assert_eq!(codes(&diags), ["use-before-def"], "{language:?}: {diags:?}");
        }
    }

    #[test]
    fn flow_edges_link_a_read_to_its_write_and_prior_read() {
        let ast = Language::JavaScript
            .parse("function f(a) { var b = a; g(b); h(b); return b; }")
            .unwrap();
        let edges = flow_edges(Language::JavaScript, &ast);
        assert!(edges
            .iter()
            .any(|e| e.kind == FlowKind::LastWrite && e.from != e.to));
        assert!(edges
            .iter()
            .any(|e| e.kind == FlowKind::LastUse && e.from != e.to));
        // Sorted and deduplicated.
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(edges, sorted);
    }

    #[test]
    fn lints_and_edges_are_deterministic_on_generated_corpora() {
        for language in Language::ALL {
            let corpus = pigeon_corpus::generate(
                language,
                &pigeon_corpus::CorpusConfig::default().with_files(6),
            );
            for doc in &corpus.docs {
                let ast = language.parse(&doc.source).unwrap();
                let a = lint(language, "u", &ast);
                let b = lint(language, "u", &ast);
                assert_eq!(
                    a.iter().map(|d| d.render_text()).collect::<Vec<_>>(),
                    b.iter().map(|d| d.render_text()).collect::<Vec<_>>(),
                );
                assert_eq!(flow_edges(language, &ast), flow_edges(language, &ast));
            }
        }
    }

    #[test]
    fn generated_corpora_are_lint_clean() {
        for language in Language::ALL {
            let corpus = pigeon_corpus::generate(
                language,
                &pigeon_corpus::CorpusConfig::default().with_files(12),
            );
            for (i, doc) in corpus.docs.iter().enumerate() {
                let ast = language.parse(&doc.source).unwrap();
                let diags = lint(language, "u", &ast);
                assert!(
                    diags.is_empty(),
                    "{language:?} doc{i}: {:?}\n{}",
                    diags.iter().map(|d| d.render_text()).collect::<Vec<_>>(),
                    doc.source
                );
            }
        }
    }
}
