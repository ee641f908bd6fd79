//! Surface-language integration: the figure networks as *text*,
//! pretty-print round-trips across crates, and building runnable
//! networks straight from source.

use snet_lang::{parse_net_expr, parse_program, pretty_net, pretty_program};
use snet_runtime::NetBuilder;
use snet_types::Record;

#[test]
fn figure_sources_parse_and_roundtrip() {
    for src in [
        sudoku::networks::FIG1.to_string(),
        sudoku::networks::FIG2.to_string(),
        sudoku::networks::fig3_text(4, 40),
    ] {
        let ast = parse_net_expr(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        let printed = pretty_net(&ast);
        let reparsed = parse_net_expr(&printed)
            .unwrap_or_else(|e| panic!("pretty output unparseable: {printed}\n{e}"));
        assert_eq!(reparsed, ast, "round trip changed {src}");
    }
}

#[test]
fn full_program_pretty_roundtrip() {
    let src = format!(
        "{}\nnet fig1 = {};\nnet fig2 = {};\nnet fig3 = {};",
        sudoku::networks::BOX_DECLS,
        sudoku::networks::FIG1,
        sudoku::networks::FIG2,
        sudoku::networks::fig3_text(4, 40),
    );
    let p = parse_program(&src).unwrap();
    let printed = pretty_program(&p);
    let reparsed = parse_program(&printed).unwrap();
    assert_eq!(reparsed, p);
}

#[test]
fn comments_and_whitespace_are_insignificant() {
    let a = parse_net_expr("a .. b").unwrap();
    let b = parse_net_expr("a\n  ..   // pipeline\n b").unwrap();
    assert_eq!(a, b);
}

#[test]
fn paper_filter_text_executes() {
    // The Section 4 filter example, straight from text to execution.
    let src = "
        box src (a, b, <c>) -> (a, b, <c>);
        net main = src .. [{a,b,<c>} -> {a, z=a, <t>}; {b, a=b, <c>=<c>+1}];
    ";
    let net = NetBuilder::from_source(src)
        .unwrap()
        .bind("src", |r, e| e.emit(r.clone()))
        .build("main")
        .unwrap();
    net.send(
        Record::build()
            .field("a", 10i64)
            .field("b", 20i64)
            .tag("c", 5)
            .finish(),
    )
    .unwrap();
    let out = net.finish();
    assert_eq!(out.len(), 2);
    assert_eq!(out[0].field("z").unwrap().as_int(), Some(10));
    assert_eq!(out[0].tag("t"), Some(0));
    assert_eq!(out[1].field("a").unwrap().as_int(), Some(20));
    assert_eq!(out[1].tag("c"), Some(6));
}

#[test]
fn net_declarations_compose_into_larger_nets() {
    // Nets referencing nets, then used from build_expr.
    let src = "
        box inc (x) -> (x);
        net twice = inc .. inc;
        net quad = twice .. twice;
    ";
    let net = NetBuilder::from_source(src)
        .unwrap()
        .bind("inc", |r, e| {
            let x = r.field("x").unwrap().as_int().unwrap();
            e.emit(Record::build().field("x", x + 1).finish());
        })
        .build("quad")
        .unwrap();
    net.send(Record::build().field("x", 0i64).finish()).unwrap();
    let out = net.finish();
    assert_eq!(out[0].field("x").unwrap().as_int(), Some(4));
}

#[test]
fn parse_errors_identify_the_problem() {
    let e = parse_program("box foo (a) -> ;").unwrap_err();
    assert!(e.message.contains("expected"), "{e}");
    let e = parse_net_expr("a ** ").unwrap_err();
    assert!(e.to_string().contains("parse error"), "{e}");
    let e = parse_net_expr("a !! b").unwrap_err();
    assert!(e.message.contains("<tag>"), "{e}");
}

#[test]
fn filter_validation_errors_surface_from_source() {
    // A filter copying a field absent from its pattern is rejected
    // with a filter-specific message.
    let err = parse_net_expr("[{a} -> {b}]").unwrap_err();
    assert!(err.message.contains("does not occur in pattern"), "{err}");
}

#[test]
fn deterministic_variants_parse_distinctly() {
    use snet_lang::NetAst;
    let nd = parse_net_expr("a || b").unwrap();
    let d = parse_net_expr("a | b").unwrap();
    assert_ne!(nd, d);
    match (nd, d) {
        (NetAst::Parallel { det: false, .. }, NetAst::Parallel { det: true, .. }) => {}
        other => panic!("unexpected: {other:?}"),
    }
}

/// Runs `f` on a spawned thread with the default stack, as a library
/// user's thread would parse: a stack overflow aborts the test binary.
fn on_a_default_stack<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
    std::thread::spawn(f).join().expect("the thread returns")
}

/// `(open)^n inner (close)^n`.
fn wrapped(open: &str, inner: &str, close: &str, n: usize) -> String {
    format!("{}{inner}{}", open.repeat(n), close.repeat(n))
}

/// Programs nested exactly `depth` deep, each a different way:
/// parentheses, a `..` chain, a postfix chain, negations inside a
/// filter and parentheses inside an exit guard.
fn nested(depth: usize) -> Vec<String> {
    const BOXES: &str = "box f (a, <k>) -> (a, <k>) | (a, <k>, <z>);\n";
    let body = [
        wrapped("(", "f", ")", depth),
        vec!["f"; depth + 1].join(" .. "),
        format!("f{}", " ! <k>".repeat(depth)),
        format!("[{{a, <k>}} -> {{a, <k>={}<k>}}]", "-".repeat(depth)),
        format!("f * {{<z>}} if {} > 0", wrapped("(", "<k>", ")", depth)),
    ];
    body.iter()
        .map(|b| format!("{BOXES}net main = {b};"))
        .collect()
}

#[test]
fn a_program_nested_to_the_limit_is_parsed_typed_compiled_and_printed() {
    let limit = snet_lang::MAX_NESTING as usize;
    on_a_default_stack(move || {
        for src in nested(limit) {
            let head = &src[..src.len().min(120)];
            let program = parse_program(&src).unwrap_or_else(|e| panic!("{head}: {e}"));
            let env = program.env().unwrap_or_else(|e| panic!("{head}: {e}"));
            let body = &program.net("main").unwrap().body;
            let bindings = snet_runtime::Bindings::new().bind("f", |r, e| e.emit(r.clone()));
            snet_runtime::compile(body, &env, &bindings).unwrap_or_else(|e| panic!("{head}: {e}"));
            let printed = pretty_program(&program);
            assert_eq!(parse_program(&printed).unwrap(), program, "{head}");
            // The builder's own path: one inference, in the compiler.
            let net = NetBuilder::from_program(program)
                .bind("f", |r, e| e.emit(r.clone()))
                .build("main")
                .unwrap_or_else(|e| panic!("{head}: {e}"));
            net.finish();
        }
    });
}

#[test]
fn one_level_past_the_limit_is_a_parse_error() {
    let limit = snet_lang::MAX_NESTING as usize;
    on_a_default_stack(move || {
        for src in nested(limit + 1) {
            let head = &src[..src.len().min(120)];
            match NetBuilder::from_source(&src) {
                Err(snet_runtime::BuildError::Parse(e)) => assert!(
                    e.message
                        .contains(&format!("nesting deeper than {limit} levels")),
                    "{head}: {e}"
                ),
                Err(e) => panic!("{head}: not a parse error: {e}"),
                Ok(_) => panic!("{head}: parsed"),
            }
        }
    });
}

#[test]
fn pathological_nesting_fails_fast() {
    on_a_default_stack(|| {
        let t = std::time::Instant::now();
        for src in [
            format!("net main = {};", wrapped("(", "f", ")", 100_000)),
            format!(
                "net main = [{{<k>}} -> {{<k>={}1}}];",
                "-".repeat(1_000_000)
            ),
            format!(
                "net main = f ** {{<k>}} if {} > 0;",
                wrapped("(", "1", ")", 10_000)
            ),
            format!("net main = f{};", " ! <k>".repeat(100_000)),
        ] {
            let e = parse_program(&src).unwrap_err();
            assert!(e.message.starts_with("nesting deeper than"), "{e}");
        }
        // Unbounded, the guard's backtracking is quadratic in its
        // depth, and the parentheses and negations overflow the stack.
        assert!(
            t.elapsed() < std::time::Duration::from_secs(5),
            "{:?}",
            t.elapsed()
        );
    });
}
