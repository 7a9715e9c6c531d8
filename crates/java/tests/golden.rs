//! Golden tests: realistic Java programs parse to stable shapes.

#[test]
fn paper_fig9_count_exact_shape() {
    let src = "class C {\n    int count(List<Integer> values, int value) {\n        int \
               count = 0;\n        for (int v : values) {\n            if (v == value) {\n\
                                count++;\n            }\n        }\n        return count;\n\
                    }\n}\n";
    let ast = pigeon_java::parse(src).unwrap();
    assert_eq!(
        pigeon_ast::sexp(&ast),
        "(CompilationUnit (ClassDecl (NameClass C) (MethodDecl (PrimitiveType int) \
         (NameMethod count) (Parameter (ClassType (TypeName List) (TypeArgs (ClassType \
         (TypeName Integer)))) (NameParam values)) (Parameter (PrimitiveType int) \
         (NameParam value)) (Block (LocalVar (PrimitiveType int) (VariableDeclarator \
         (NameVar count) (IntLit 0))) (ForEach (PrimitiveType int) (NameVar v) (NameRef \
         values) (Block (If (Binary== (NameRef v) (NameRef value)) (Block \
         (ExpressionStmt (UnaryPostfix++ (NameRef count))))))) (Return (NameRef \
         count))))))"
    );
}

#[test]
fn repository_pattern_class() {
    let src = r#"
package com.example.store;

import java.util.HashMap;
import java.util.List;

public class UserRepository {
    private HashMap<String, User> cache = new HashMap<String, User>();
    private Database database;

    public UserRepository(Database database) {
        this.database = database;
    }

    public User findById(String id) {
        User cached = cache.get(id);
        if (cached != null) {
            return cached;
        }
        User loaded = database.query(id);
        if (loaded != null) {
            cache.put(id, loaded);
        }
        return loaded;
    }

    public int countActive(List<User> users) {
        int count = 0;
        for (User user : users) {
            if (user.active) {
                count++;
            }
        }
        return count;
    }
}
"#;
    let ast = pigeon_java::parse(src).unwrap();
    ast.check_invariants().unwrap();
    assert_eq!(ast.leaves_with_value("cache").len(), 3);
    assert_eq!(ast.leaves_with_value("database").len(), 5);
    let methods = ast
        .preorder()
        .filter(|&n| ast.kind(n).as_str() == "MethodDecl")
        .count();
    assert_eq!(methods, 2);
    let ctors = ast
        .preorder()
        .filter(|&n| ast.kind(n).as_str() == "ConstructorDecl")
        .count();
    assert_eq!(ctors, 1);
}

#[test]
fn generic_bounds_and_arrays_mix() {
    let src = "class A { java.util.Map<String, int[]> index(int[][] grid) { return null; } }";
    let ast = pigeon_java::parse(src).unwrap();
    let text = pigeon_ast::sexp(&ast);
    assert!(text.contains(
        "(TypeArgs (ClassType (TypeName String)) (ArrayType \
                           (PrimitiveType int)))"
    ));
    assert!(text.contains(
        "(Parameter (ArrayType (ArrayType (PrimitiveType int))) \
                           (NameParam grid))"
    ));
}

#[test]
fn exceptions_and_resources() {
    let src = "class A { String read(String path) throws IOException { try { \
               BufferedReader reader = open(path); String line = reader.readLine(); \
               return line; } finally { close(); } } }";
    let ast = pigeon_java::parse(src).unwrap();
    let text = pigeon_ast::sexp(&ast);
    assert!(text.contains("(Throws (ClassType (TypeName IOException)))"));
    assert!(text.contains(
        "(Finally (Block (ExpressionStmt (MethodCall (NameCall \
                           close)))))"
    ));
}

#[test]
fn operators_associate_left() {
    let src = "class A { int f(int a, int b, int c) { return a - b - c; } }";
    let text = pigeon_ast::sexp(&pigeon_java::parse(src).unwrap());
    assert!(text.contains("(Binary- (Binary- (NameRef a) (NameRef b)) (NameRef c))"));
}
