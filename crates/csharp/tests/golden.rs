//! Golden tests: realistic C# programs parse to stable shapes.

#[test]
fn service_class_with_properties() {
    let src = r#"
using System;
using System.Collections.Generic;

namespace App.Services {
    public class OrderService {
        private List<Order> pending = new List<Order>();

        public int Count { get; set; }

        public OrderService(Repository repository) {
            this.repository = repository;
        }

        public int Submit(Order order) {
            if (order == null) {
                throw new ArgumentException("order");
            }
            pending.Add(order);
            Count++;
            return Count;
        }

        public Order FindFirst(string id) {
            foreach (var order in pending) {
                if (order.Id == id) {
                    return order;
                }
            }
            return null;
        }
    }
}
"#;
    let ast = pigeon_csharp::parse(src).unwrap();
    ast.check_invariants().unwrap();
    let text = pigeon_ast::sexp(&ast);
    assert!(text.contains("(NamespaceDeclaration (Name App.Services)"));
    assert!(text.contains(
        "(PropertyDeclaration (Modifier public) (PredefinedType int) \
                           (Identifier Count) (AccessorList (GetAccessor) (SetAccessor)))"
    ));
    assert!(text.contains(
        "(ThrowStatement (ObjectCreationExpression (TypeName \
                           ArgumentException)"
    ));
    assert_eq!(ast.leaves_with_value("pending").len(), 3);
    assert_eq!(ast.leaves_with_value("order").len(), 7);
    let methods = ast
        .preorder()
        .filter(|&n| ast.kind(n).as_str() == "MethodDeclaration")
        .count();
    assert_eq!(methods, 2);
}

#[test]
fn linq_free_pipeline_with_lambdas() {
    let src = "class A { public void Wire(Bus bus) { bus.Subscribe(msg => Handle(msg)); \
               var stop = () => bus.Close(); stop(); } }";
    let ast = pigeon_csharp::parse(src).unwrap();
    let text = pigeon_ast::sexp(&ast);
    assert!(text.contains("(SimpleLambdaExpression (Parameter (Identifier msg))"));
    assert!(text.contains("(ParenthesizedLambdaExpression (InvocationExpression"));
}

#[test]
fn nullable_coalesce_cast_combination() {
    let src = "class A { public string Pick(object raw, string fallback) { string s = \
               raw as string ?? fallback; int? n = null; return s; } }";
    let ast = pigeon_csharp::parse(src).unwrap();
    let text = pigeon_ast::sexp(&ast);
    assert!(text.contains(
        "(CoalesceExpression (AsExpression (IdentifierName raw) \
                           (PredefinedType string)) (IdentifierName fallback))"
    ));
    assert!(text.contains("(NullableType (PredefinedType int))"));
}

#[test]
fn do_while_and_switch() {
    let src = "class A { public int Step(int x) { do { x--; } while (x > 10); switch (x) \
               { case 0: return 0; default: return x; } } }";
    let ast = pigeon_csharp::parse(src).unwrap();
    let text = pigeon_ast::sexp(&ast);
    assert!(text.contains("(DoStatement (Block (ExpressionStatement (PostfixUnaryExpression--"));
    assert!(text.contains(
        "(CaseSwitchLabel (NumericLiteral 0) (ReturnStatement \
                           (NumericLiteral 0)))"
    ));
}
