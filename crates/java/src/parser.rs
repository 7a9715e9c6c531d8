//! Recursive-descent parser for the Java subset.
//!
//! Node kinds are JavaParser-flavoured: `CompilationUnit`, `ClassDecl`,
//! `MethodDecl`, `LocalVar`, `NameRef`, `MethodCall`, `FieldAccess`, and
//! structured type nodes (`ClassType` / `PrimitiveType` / `ArrayType`).
//! Declared names use distinct terminal kinds (`NameVar`, `NameParam`,
//! `NameMethod`, `NameField`, `NameClass`) so paths can tell a definition
//! from a reference — the same distinction UglifyJS's `SymbolVar` /
//! `SymbolRef` gives the JavaScript frontend.

use crate::lexer::{tokenize, Java, PRIMITIVES};
use pigeon_ast::syntax::{Cursor, Grammar, ParseError, TokenKind};
use pigeon_ast::{Ast, TreeNode};

/// Parses a Java compilation unit into a PIGEON AST rooted at
/// `CompilationUnit`.
///
/// # Errors
///
/// Returns [`ParseError`] on input outside the supported subset.
///
/// ```
/// # fn main() -> Result<(), pigeon_java::ParseError> {
/// let ast = pigeon_java::parse("class A { int x; }")?;
/// assert_eq!(
///     pigeon_ast::sexp(&ast),
///     "(CompilationUnit (ClassDecl (NameClass A) (FieldDecl \
///      (PrimitiveType int) (VariableDeclarator (NameField x)))))"
/// );
/// # Ok(())
/// # }
/// ```
pub fn parse(source: &str) -> Result<Ast, ParseError> {
    let mut p = Parser(Cursor::new(tokenize(source)?));
    let mut children = Vec::new();
    if p.at("package") {
        p.bump();
        let name = p.qualified_name()?;
        p.expect(";")?;
        children.push(TreeNode::inner(
            "PackageDecl",
            vec![TreeNode::leaf("Name", name)],
        ));
    }
    while p.at("import") {
        p.bump();
        let name = p.qualified_name()?;
        p.expect(";")?;
        children.push(TreeNode::inner(
            "Import",
            vec![TreeNode::leaf("Name", name)],
        ));
    }
    while !p.at_eof() {
        children.push(p.class_decl()?);
    }
    Ok(TreeNode::inner("CompilationUnit", children).into_ast())
}

pigeon_ast::grammar!(Parser, Java);

type PResult = Result<TreeNode, ParseError>;

impl Parser {
    fn qualified_name(&mut self) -> Result<String, ParseError> {
        let mut name = self.ident()?;
        while self.at(".") {
            // `import a.b.*;` ends with a star.
            self.bump();
            if self.eat("*") {
                name.push_str(".*");
                break;
            }
            name.push('.');
            name.push_str(&self.ident()?);
        }
        Ok(name)
    }

    fn skip_annotations(&mut self) {
        while self.at("@") {
            self.bump();
            let _ = self.ident();
            if self.at("(") {
                self.skip_group("(", ")");
            }
        }
    }

    fn modifiers(&mut self) -> Vec<TreeNode> {
        let mut mods = Vec::new();
        loop {
            self.skip_annotations();
            let t = self.peek();
            if t.kind == TokenKind::Ident
                && matches!(
                    t.text.as_str(),
                    "public"
                        | "private"
                        | "protected"
                        | "static"
                        | "final"
                        | "abstract"
                        | "synchronized"
                )
            {
                let m = self.bump().text;
                mods.push(TreeNode::leaf("Modifier", m));
            } else {
                return mods;
            }
        }
    }

    // ---- declarations ---------------------------------------------------

    fn class_decl(&mut self) -> PResult {
        let mut children = self.modifiers();
        let kw = if self.eat("interface") {
            "InterfaceDecl"
        } else {
            self.expect("class")?;
            "ClassDecl"
        };
        let name = self.ident()?;
        children.push(TreeNode::leaf("NameClass", name.as_str()));
        if self.eat("extends") {
            children.push(TreeNode::inner("Extends", vec![self.type_node()?]));
        }
        if self.eat("implements") {
            let mut impls = vec![self.type_node()?];
            while self.eat(",") {
                impls.push(self.type_node()?);
            }
            children.push(TreeNode::inner("Implements", impls));
        }
        self.expect("{")?;
        while !self.at("}") {
            children.push(self.member(&name)?);
        }
        self.expect("}")?;
        Ok(TreeNode::inner(kw, children))
    }

    /// A field, method or constructor declaration.
    fn member(&mut self, class_name: &str) -> PResult {
        let mut children = self.modifiers();
        // Constructor: `ClassName (`.
        if self.peek().text == class_name && self.peek_at(1).text == "(" {
            let name = self.ident()?;
            children.push(TreeNode::leaf("NameMethod", name));
            self.params_and_body(&mut children)?;
            return Ok(TreeNode::inner("ConstructorDecl", children));
        }
        let ty = self.type_node()?;
        let name = self.ident()?;
        if self.at("(") {
            children.push(ty);
            children.push(TreeNode::leaf("NameMethod", name));
            self.params_and_body(&mut children)?;
            return Ok(TreeNode::inner("MethodDecl", children));
        }
        // Field declaration (possibly several declarators).
        children.push(ty);
        let mut first = vec![TreeNode::leaf("NameField", name)];
        if self.eat("=") {
            first.push(self.expression()?);
        }
        children.push(TreeNode::inner("VariableDeclarator", first));
        while self.eat(",") {
            let n = self.ident()?;
            let mut d = vec![TreeNode::leaf("NameField", n)];
            if self.eat("=") {
                d.push(self.expression()?);
            }
            children.push(TreeNode::inner("VariableDeclarator", d));
        }
        self.expect(";")?;
        Ok(TreeNode::inner("FieldDecl", children))
    }

    fn params_and_body(&mut self, children: &mut Vec<TreeNode>) -> Result<(), ParseError> {
        self.expect("(")?;
        while !self.at(")") {
            let ty = self.type_node()?;
            let name = self.ident()?;
            children.push(TreeNode::inner(
                "Parameter",
                vec![ty, TreeNode::leaf("NameParam", name)],
            ));
            if !self.eat(",") {
                break;
            }
        }
        self.expect(")")?;
        if self.eat("throws") {
            let mut thrown = vec![self.type_node()?];
            while self.eat(",") {
                thrown.push(self.type_node()?);
            }
            children.push(TreeNode::inner("Throws", thrown));
        }
        if self.eat(";") {
            // Abstract/interface method: no body.
            return Ok(());
        }
        children.push(self.block()?);
        Ok(())
    }

    // ---- types ----------------------------------------------------------

    /// Type arguments nest, so each type takes a nesting level.
    fn type_node(&mut self) -> PResult {
        self.nested(Self::bare_type_node)
    }

    fn bare_type_node(&mut self) -> PResult {
        let mut base = self.base_type_node()?;
        while self.at("[") && self.peek_at(1).text == "]" {
            self.deepen()?;
            self.bump();
            self.expect("]")?;
            base = TreeNode::inner("ArrayType", vec![base]);
        }
        Ok(base)
    }

    /// A type without trailing `[]` suffixes, as needed after `new` where
    /// `[` begins an array-creation size instead.
    fn base_type_node(&mut self) -> PResult {
        let t = self.peek().clone();
        let base = if t.kind == TokenKind::Ident && PRIMITIVES.contains(&t.text.as_str()) {
            self.bump();
            TreeNode::leaf("PrimitiveType", t.text)
        } else {
            let name = self.qualified_name()?;
            let mut children = vec![TreeNode::leaf("TypeName", name)];
            if self.at("<") {
                self.bump();
                let mut args = Vec::new();
                if !self.at(">") {
                    args.push(self.type_node()?);
                    while self.eat(",") {
                        args.push(self.type_node()?);
                    }
                }
                self.expect(">")?;
                children.push(TreeNode::inner("TypeArgs", args));
            }
            TreeNode::inner("ClassType", children)
        };
        Ok(base)
    }

    /// Attempts to parse `Type Ident` at the current position; returns
    /// `None` (with the position restored) when the tokens do not form a
    /// declaration head.
    fn try_decl_head(&mut self) -> Option<(TreeNode, String)> {
        let save = self.mark();
        let ty = match self.type_node() {
            Ok(t) => t,
            Err(_) => {
                self.rewind(save);
                return None;
            }
        };
        match self.ident() {
            Ok(name) if self.at("=") || self.at(";") || self.at(",") || self.at(":") => {
                Some((ty, name))
            }
            _ => {
                self.rewind(save);
                None
            }
        }
    }

    // ---- statements -----------------------------------------------------

    fn block(&mut self) -> PResult {
        self.expect("{")?;
        let mut stmts = Vec::new();
        while !self.at("}") {
            stmts.push(self.statement()?);
        }
        self.expect("}")?;
        Ok(TreeNode::inner("Block", stmts))
    }

    /// Statements nest, so each one takes a nesting level.
    fn statement(&mut self) -> PResult {
        self.nested(Self::bare_statement)
    }

    fn bare_statement(&mut self) -> PResult {
        if self.at("{") {
            return self.block();
        }
        if self.at("if") {
            self.bump();
            self.expect("(")?;
            let cond = self.expression()?;
            self.expect(")")?;
            let then = self.statement()?;
            let mut children = vec![cond, then];
            if self.eat("else") {
                children.push(self.statement()?);
            }
            return Ok(TreeNode::inner("If", children));
        }
        if self.at("while") {
            self.bump();
            self.expect("(")?;
            let cond = self.expression()?;
            self.expect(")")?;
            let body = self.statement()?;
            return Ok(TreeNode::inner("While", vec![cond, body]));
        }
        if self.at("do") {
            self.bump();
            let body = self.statement()?;
            self.expect("while")?;
            self.expect("(")?;
            let cond = self.expression()?;
            self.expect(")")?;
            self.expect(";")?;
            return Ok(TreeNode::inner("Do", vec![body, cond]));
        }
        if self.at("for") {
            return self.for_statement();
        }
        if self.at("return") {
            self.bump();
            let mut children = Vec::new();
            if !self.at(";") {
                children.push(self.expression()?);
            }
            self.expect(";")?;
            return Ok(TreeNode::inner("Return", children));
        }
        if self.at("break") {
            self.bump();
            self.expect(";")?;
            return Ok(TreeNode::nullary("Break"));
        }
        if self.at("continue") {
            self.bump();
            self.expect(";")?;
            return Ok(TreeNode::nullary("Continue"));
        }
        if self.at("throw") {
            self.bump();
            let e = self.expression()?;
            self.expect(";")?;
            return Ok(TreeNode::inner("Throw", vec![e]));
        }
        if self.at("try") {
            return self.try_statement();
        }
        if self.at("switch") {
            return self.switch_statement();
        }
        // Local variable declaration or expression statement.
        if let Some((ty, name)) = self.try_decl_head() {
            let mut decl = vec![TreeNode::leaf("NameVar", name)];
            if self.eat("=") {
                decl.push(self.expression()?);
            }
            let mut children = vec![ty, TreeNode::inner("VariableDeclarator", decl)];
            while self.eat(",") {
                let n = self.ident()?;
                let mut d = vec![TreeNode::leaf("NameVar", n)];
                if self.eat("=") {
                    d.push(self.expression()?);
                }
                children.push(TreeNode::inner("VariableDeclarator", d));
            }
            self.expect(";")?;
            return Ok(TreeNode::inner("LocalVar", children));
        }
        let e = self.expression()?;
        self.expect(";")?;
        Ok(TreeNode::inner("ExpressionStmt", vec![e]))
    }

    fn for_statement(&mut self) -> PResult {
        self.expect("for")?;
        self.expect("(")?;
        // For-each: `for (Type name : expr)`.
        if let Some((ty, name)) = self.try_decl_head() {
            if self.eat(":") {
                let iterable = self.expression()?;
                self.expect(")")?;
                let body = self.statement()?;
                return Ok(TreeNode::inner(
                    "ForEach",
                    vec![ty, TreeNode::leaf("NameVar", name), iterable, body],
                ));
            }
            // Classic for with a declaration initialiser.
            let mut decl = vec![TreeNode::leaf("NameVar", name)];
            if self.eat("=") {
                decl.push(self.expression()?);
            }
            let init = TreeNode::inner(
                "LocalVar",
                vec![ty, TreeNode::inner("VariableDeclarator", decl)],
            );
            return self.classic_for_tail(Some(init));
        }
        let init = if self.at(";") {
            None
        } else {
            Some(TreeNode::inner("ExpressionStmt", vec![self.expression()?]))
        };
        self.classic_for_tail(init)
    }

    fn classic_for_tail(&mut self, init: Option<TreeNode>) -> PResult {
        self.expect(";")?;
        let mut children = Vec::new();
        if let Some(i) = init {
            children.push(i);
        }
        if !self.at(";") {
            children.push(self.expression()?);
        }
        self.expect(";")?;
        if !self.at(")") {
            children.push(self.expression()?);
        }
        self.expect(")")?;
        children.push(self.statement()?);
        Ok(TreeNode::inner("For", children))
    }

    fn try_statement(&mut self) -> PResult {
        self.expect("try")?;
        let mut children = vec![self.block()?];
        while self.at("catch") {
            self.bump();
            self.expect("(")?;
            let ty = self.type_node()?;
            let name = self.ident()?;
            self.expect(")")?;
            let body = self.block()?;
            children.push(TreeNode::inner(
                "Catch",
                vec![ty, TreeNode::leaf("NameParam", name), body],
            ));
        }
        if self.eat("finally") {
            children.push(TreeNode::inner("Finally", vec![self.block()?]));
        }
        if children.len() == 1 {
            return Err(self.error("try requires catch or finally"));
        }
        Ok(TreeNode::inner("Try", children))
    }

    fn switch_statement(&mut self) -> PResult {
        self.expect("switch")?;
        self.expect("(")?;
        let scrutinee = self.expression()?;
        self.expect(")")?;
        self.expect("{")?;
        let mut children = vec![scrutinee];
        while !self.at("}") {
            if self.eat("case") {
                let v = self.expression()?;
                self.expect(":")?;
                let mut body = vec![v];
                while !self.at("case") && !self.at("default") && !self.at("}") {
                    body.push(self.statement()?);
                }
                children.push(TreeNode::inner("Case", body));
            } else {
                self.expect("default")?;
                self.expect(":")?;
                let mut body = Vec::new();
                while !self.at("case") && !self.at("default") && !self.at("}") {
                    body.push(self.statement()?);
                }
                children.push(TreeNode::inner("Default", body));
            }
        }
        self.expect("}")?;
        Ok(TreeNode::inner("Switch", children))
    }

    // ---- expressions ----------------------------------------------------

    /// Every nested expression passes through here, so each one takes a
    /// nesting level.
    fn expression(&mut self) -> PResult {
        self.nested(Self::bare_expression)
    }

    fn bare_expression(&mut self) -> PResult {
        let lhs = self.conditional()?;
        for op in ["=", "+=", "-=", "*=", "/=", "%="] {
            if self.at(op) {
                self.bump();
                let rhs = self.expression()?;
                return Ok(TreeNode::inner(
                    format!("Assign{op}").as_str(),
                    vec![lhs, rhs],
                ));
            }
        }
        Ok(lhs)
    }

    fn conditional(&mut self) -> PResult {
        let cond = self.binary(0)?;
        if self.eat("?") {
            let then = self.expression()?;
            self.expect(":")?;
            let alt = self.expression()?;
            return Ok(TreeNode::inner("Conditional", vec![cond, then, alt]));
        }
        Ok(cond)
    }

    const BINARY_TIERS: [&'static [&'static str]; 6] = [
        &["||"],
        &["&&"],
        &["==", "!="],
        &["<", ">", "<=", ">=", "instanceof"],
        &["+", "-"],
        &["*", "/", "%"],
    ];

    /// Operators of tier `min_tier` and tighter, folded left-associatively
    /// by precedence climbing: one frame per operand, not one per tier.
    fn binary(&mut self, min_tier: usize) -> PResult {
        let mut lhs = self.unary()?;
        let mut tiers = &Self::BINARY_TIERS[..];
        while let Some((tier, op)) = self.operator(tiers, min_tier) {
            self.deepen()?;
            self.bump();
            // A tighter operator after this one would belong to its right
            // operand; after a type operand it may not continue at all.
            tiers = &Self::BINARY_TIERS[..=tier];
            lhs = if op == "instanceof" {
                TreeNode::inner("InstanceOf", vec![lhs, self.type_node()?])
            } else {
                let rhs = self.binary(tier + 1)?;
                TreeNode::inner(format!("Binary{op}").as_str(), vec![lhs, rhs])
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> PResult {
        for op in ["!", "-", "+", "++", "--"] {
            if self.at(op) {
                self.bump();
                let operand = self.nested(Self::unary)?;
                return Ok(TreeNode::inner(
                    format!("UnaryPrefix{op}").as_str(),
                    vec![operand],
                ));
            }
        }
        // Cast: `(Type) expr` — backtrack if the parens don't hold a type.
        if self.at("(") {
            let save = self.mark();
            self.bump();
            if let Ok(ty) = self.type_node() {
                if self.at(")") {
                    self.bump();
                    // A cast must be followed by the start of a unary
                    // expression; `(x) + 1` would otherwise misparse.
                    let t = self.peek();
                    let starts_unary = matches!(
                        t.kind,
                        TokenKind::Number | TokenKind::String | TokenKind::Char
                    ) || (t.kind == TokenKind::Ident
                        && (!self.is_keyword(&t.text)
                            || matches!(
                                t.text.as_str(),
                                "new" | "this" | "true" | "false" | "null"
                            )))
                        || t.text == "(";
                    if starts_unary {
                        let operand = self.nested(Self::unary)?;
                        return Ok(TreeNode::inner("Cast", vec![ty, operand]));
                    }
                }
            }
            self.rewind(save);
        }
        self.postfix()
    }

    /// Every operand passes through here, so each one takes a nesting
    /// level, which also releases the levels its chain took.
    fn postfix(&mut self) -> PResult {
        self.nested(Self::bare_postfix)
    }

    fn bare_postfix(&mut self) -> PResult {
        let mut e = self.primary()?;
        loop {
            if self.at(".") {
                self.deepen()?;
                self.bump();
                let name = self.ident()?;
                if self.at("(") {
                    let args = self.call_args()?;
                    let mut children = vec![e, TreeNode::leaf("NameCall", name)];
                    children.extend(args);
                    e = TreeNode::inner("MethodCall", children);
                } else {
                    e = TreeNode::inner("FieldAccess", vec![e, TreeNode::leaf("NameField", name)]);
                }
            } else if self.at("[") {
                self.deepen()?;
                self.bump();
                let idx = self.expression()?;
                self.expect("]")?;
                e = TreeNode::inner("ArrayAccess", vec![e, idx]);
            } else if self.at("++") || self.at("--") {
                self.deepen()?;
                let op = self.bump().text;
                e = TreeNode::inner(format!("UnaryPostfix{op}").as_str(), vec![e]);
            } else {
                return Ok(e);
            }
        }
    }

    fn call_args(&mut self) -> Result<Vec<TreeNode>, ParseError> {
        self.expect("(")?;
        let mut args = Vec::new();
        while !self.at(")") {
            args.push(self.expression()?);
            if !self.eat(",") {
                break;
            }
        }
        self.expect(")")?;
        Ok(args)
    }

    fn primary(&mut self) -> PResult {
        let t = self.peek().clone();
        match t.kind {
            TokenKind::Number => {
                self.bump();
                Ok(TreeNode::leaf("IntLit", t.text))
            }
            TokenKind::String => {
                self.bump();
                Ok(TreeNode::leaf("StringLit", t.text))
            }
            TokenKind::Char => {
                self.bump();
                Ok(TreeNode::leaf("CharLit", t.text))
            }
            TokenKind::Ident => match t.text.as_str() {
                "true" | "false" => {
                    self.bump();
                    Ok(TreeNode::leaf("BooleanLit", t.text))
                }
                "null" => {
                    self.bump();
                    Ok(TreeNode::leaf("NullLit", "null"))
                }
                "this" => {
                    self.bump();
                    Ok(TreeNode::leaf("This", "this"))
                }
                "new" => {
                    self.bump();
                    let ty = self.base_type_node()?;
                    if self.at("[") {
                        self.bump();
                        let size = self.expression()?;
                        self.expect("]")?;
                        return Ok(TreeNode::inner("ArrayCreation", vec![ty, size]));
                    }
                    let args = self.call_args()?;
                    let mut children = vec![ty];
                    children.extend(args);
                    Ok(TreeNode::inner("ObjectCreation", children))
                }
                _ if self.is_keyword(&t.text) => {
                    Err(self.error(&format!("unexpected keyword `{}`", t.text)))
                }
                _ => {
                    self.bump();
                    if self.at("(") {
                        // Unqualified call: `foo(args)`.
                        let args = self.call_args()?;
                        let mut children = vec![TreeNode::leaf("NameCall", t.text)];
                        children.extend(args);
                        return Ok(TreeNode::inner("MethodCall", children));
                    }
                    Ok(TreeNode::leaf("NameRef", t.text))
                }
            },
            TokenKind::Punct if t.text == "(" => {
                self.bump();
                let e = self.expression()?;
                self.expect(")")?;
                Ok(e)
            }
            _ => Err(self.error(&format!("unexpected token `{}`", t.text))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pigeon_ast::sexp;

    fn s(src: &str) -> String {
        sexp(&parse(src).unwrap())
    }

    #[test]
    fn minimal_class_with_field() {
        assert_eq!(
            s("class A { int x = 1; }"),
            "(CompilationUnit (ClassDecl (NameClass A) (FieldDecl (PrimitiveType int) \
             (VariableDeclarator (NameField x) (IntLit 1)))))"
        );
    }

    #[test]
    fn package_and_imports() {
        assert_eq!(
            s("package com.example; import java.util.List; class A { }"),
            "(CompilationUnit (PackageDecl (Name com.example)) (Import (Name \
             java.util.List)) (ClassDecl (NameClass A)))"
        );
    }

    #[test]
    fn paper_fig9_count_method() {
        let src = "class C { int count(List<Integer> values, int value) { int count = 0; \
                   for (int v : values) { if (v == value) { count++; } } return count; } }";
        let text = s(src);
        assert!(text.contains("(MethodDecl (PrimitiveType int) (NameMethod count)"));
        assert!(text.contains("(ForEach (PrimitiveType int) (NameVar v) (NameRef values)"));
        assert!(text.contains("(UnaryPostfix++ (NameRef count))"));
    }

    #[test]
    fn paper_fig9_done_loop() {
        let src = "class C { void run() { boolean done = false; while (!done) { \
                   if (someCondition()) { done = true; } } } }";
        let text = s(src);
        assert!(text.contains(
            "(LocalVar (PrimitiveType boolean) (VariableDeclarator (NameVar done) \
             (BooleanLit false)))"
        ));
        assert!(text.contains("(While (UnaryPrefix! (NameRef done))"));
        assert!(text.contains("(Assign= (NameRef done) (BooleanLit true))"));
    }

    #[test]
    fn generics_and_qualified_types() {
        assert_eq!(
            s("class A { java.util.Map<String, List<Integer>> m; }"),
            "(CompilationUnit (ClassDecl (NameClass A) (FieldDecl (ClassType (TypeName \
             java.util.Map) (TypeArgs (ClassType (TypeName String)) (ClassType (TypeName \
             List) (TypeArgs (ClassType (TypeName Integer)))))) (VariableDeclarator \
             (NameField m)))))"
        );
    }

    #[test]
    fn arrays_and_array_access() {
        let text = s("class A { void f() { int[] xs = new int[10]; xs[0] = 1; } }");
        assert!(text.contains("(ArrayType (PrimitiveType int))"));
        assert!(text.contains("(ArrayCreation (PrimitiveType int) (IntLit 10))"));
        assert!(text.contains("(Assign= (ArrayAccess (NameRef xs) (IntLit 0)) (IntLit 1))"));
    }

    #[test]
    fn constructors_and_this_assignment() {
        let text = s("class Point { int x; Point(int x) { this.x = x; } }");
        assert!(text.contains(
            "(ConstructorDecl (NameMethod Point) (Parameter \
                               (PrimitiveType int) (NameParam x))"
        ));
        assert!(text.contains("(Assign= (FieldAccess (This this) (NameField x)) (NameRef x))"));
    }

    #[test]
    fn method_calls_qualified_and_unqualified() {
        let text = s("class A { void f(HttpClient client) { client.execute(get()); } }");
        assert!(text.contains(
            "(MethodCall (NameRef client) (NameCall execute) (MethodCall (NameCall get)))"
        ));
    }

    #[test]
    fn try_catch_and_throw() {
        let text = s("class A { void f() { try { g(); } catch (IOException e) { \
                      throw new RuntimeException(e); } } }");
        assert!(text.contains("(Catch (ClassType (TypeName IOException)) (NameParam e)"));
        assert!(text.contains(
            "(Throw (ObjectCreation (ClassType (TypeName RuntimeException)) (NameRef e)))"
        ));
    }

    #[test]
    fn cast_and_instanceof() {
        let text = s(
            "class A { void f(Object o) { if (o instanceof String) { String s = \
                      (String) o; } } }",
        );
        assert!(text.contains("(InstanceOf (NameRef o) (ClassType (TypeName String)))"));
        assert!(text.contains("(Cast (ClassType (TypeName String)) (NameRef o))"));
    }

    #[test]
    fn parenthesized_expr_is_not_a_cast() {
        let text = s("class A { int f(int x) { return (x) + 1; } }");
        assert!(text.contains("(Binary+ (NameRef x) (IntLit 1))"));
    }

    #[test]
    fn annotations_are_skipped() {
        let text = s("class A { @Override public String toString() { return \"a\"; } }");
        assert!(text.contains("(Modifier public)"));
        assert!(text.contains("(NameMethod toString)"));
    }

    #[test]
    fn interface_with_abstract_method() {
        assert_eq!(
            s("interface Shape { double area(); }"),
            "(CompilationUnit (InterfaceDecl (NameClass Shape) (MethodDecl (PrimitiveType \
             double) (NameMethod area))))"
        );
    }

    #[test]
    fn classic_for_and_compound_assign() {
        let text = s(
            "class A { int sum(int[] xs) { int total = 0; for (int i = 0; \
                      i < xs.length; i++) { total += xs[i]; } return total; } }",
        );
        assert!(text.contains(
            "(For (LocalVar (PrimitiveType int) (VariableDeclarator \
                               (NameVar i) (IntLit 0)))"
        ));
        assert!(text.contains(
            "(Binary< (NameRef i) (FieldAccess (NameRef xs) \
                               (NameField length)))"
        ));
        assert!(text.contains(
            "(Assign+= (NameRef total) (ArrayAccess (NameRef xs) \
                               (NameRef i)))"
        ));
    }

    #[test]
    fn switch_statement() {
        let text =
            s("class A { int f(int x) { switch (x) { case 1: return 1; default: return 0; } } }");
        assert!(text.contains(
            "(Switch (NameRef x) (Case (IntLit 1) (Return (IntLit 1))) \
                               (Default (Return (IntLit 0))))"
        ));
    }

    #[test]
    fn extends_implements() {
        let text = s("class A extends B implements C, D { }");
        assert!(text.contains("(Extends (ClassType (TypeName B)))"));
        assert!(text.contains("(Implements (ClassType (TypeName C)) (ClassType (TypeName D)))"));
    }

    #[test]
    fn errors_carry_positions() {
        assert!(parse("class { }").is_err());
        assert!(parse("class A { int; }").is_err());
        assert!(parse("class A { void f() { if } }").is_err());
    }

    #[test]
    fn invariants_hold() {
        let ast =
            parse("package p; class A { private int n; public int get() { return this.n; } }")
                .unwrap();
        ast.check_invariants().unwrap();
    }
}
