//! Every way `NetBuilder::build*` can refuse a program, pinned by
//! variant and message, and the order in which the checks win when a
//! program fails more than one: a type error anywhere in the program,
//! then an unknown net name, then a builder setting, then a missing
//! binding.

use snet_runtime::{BuildError, NetBuilder};

/// `f: {a} -> {b}`, `g: {b} -> {c}`: `g .. g` is ill-typed (the first
/// `g` consumes the `b` the second needs).
const BOXES: &str = "box f (a) -> (b);\nbox g (b) -> (c);\n";

/// A build error's variant name and message.
type Pinned = (&'static str, String);

/// The variant's name and the error's message.
fn pinned(err: BuildError) -> Pinned {
    let variant = match &err {
        BuildError::Parse(_) => "Parse",
        BuildError::Compile(_) => "Compile",
        BuildError::Type(_) => "Type",
        BuildError::UnknownNet(_) => "UnknownNet",
        BuildError::Config(_) => "Config",
    };
    (variant, err.to_string())
}

/// Builds `net` from `BOXES` + `nets`, binding the boxes in `bound`,
/// with a zero bound if `zero_bound`.
fn build(nets: &str, bound: &[&str], zero_bound: bool, net: &str) -> Pinned {
    let mut b = NetBuilder::from_source(&format!("{BOXES}{nets}")).expect("the source parses");
    for name in bound {
        b = b.bind(name, |r, e| e.emit(r.clone()));
    }
    if zero_bound {
        b = b.bound(0);
    }
    match b.build(net) {
        Ok(net) => panic!("{nets}: built a net: {:?}", net.finish()),
        Err(e) => pinned(e),
    }
}

const SERIAL_GG: &str = "type error: output variant {c} cannot enter the downstream network \
                         expecting {b}: the labels it lacks are consumed upstream and cannot \
                         flow-inherit";
const ZERO_BOUND: &str =
    "bound(0): a bounded edge holds at least one record (unbounded() lifts the default bound)";

#[test]
fn every_build_error_keeps_its_variant_and_message() {
    let gg = || ("Type", SERIAL_GG.to_string());
    /// The net declarations after `BOXES`, the boxes bound, whether
    /// the bound is zero, the net built, and the error expected.
    type Case = (
        &'static str,
        &'static [&'static str],
        bool,
        &'static str,
        Pinned,
    );
    let cases: [Case; 12] = [
        // An ill-typed `main`.
        ("net main = g .. g;", &["f", "g"], false, "main", gg()),
        // An ill-typed net that is declared but not built.
        (
            "net bad = g .. g;\nnet main = f;",
            &["f", "g"],
            false,
            "main",
            gg(),
        ),
        // An unknown net name.
        (
            "net main = f;",
            &["f"],
            false,
            "nope",
            ("UnknownNet", "program declares no net 'nope'".into()),
        ),
        // An ill-typed program with `.bound(0)`: the type error wins.
        ("net main = g .. g;", &["f", "g"], true, "main", gg()),
        // An unbound box.
        (
            "net main = f;",
            &[],
            false,
            "main",
            ("Compile", "box 'f' has no bound implementation".into()),
        ),
        // A type error wins over an unknown net name...
        ("net bad = g .. g;", &["f", "g"], false, "nope", gg()),
        // ... and over a missing binding, in the built net or after it.
        ("net main = g .. g;", &[], false, "main", gg()),
        ("net main = f;\nnet bad = g .. g;", &[], false, "main", gg()),
        // An unknown name inside the built net is a type error.
        (
            "net main = f .. nosuch;",
            &[],
            false,
            "main",
            ("Type", "type error: unknown box or net 'nosuch'".into()),
        ),
        // A net's name may not repeat a declaration.
        (
            "net f = g;",
            &["f", "g"],
            false,
            "f",
            ("Type", "type error: duplicate declaration of 'f'".into()),
        ),
        // An unknown net name wins over a setting...
        (
            "net main = f;",
            &[],
            true,
            "nope",
            ("UnknownNet", "program declares no net 'nope'".into()),
        ),
        // ... and a setting over a missing binding.
        (
            "net main = f;",
            &[],
            true,
            "main",
            ("Config", ZERO_BOUND.into()),
        ),
    ];
    for (nets, bound, zero_bound, net, want) in cases {
        assert_eq!(
            build(nets, bound, zero_bound, net),
            want,
            "{nets} (building {net})"
        );
    }
}

#[test]
fn build_expr_checks_the_program_then_the_expression() {
    let expr = |nets: &str, bound: &[&str], expr: &str| {
        let mut b = NetBuilder::from_source(&format!("{BOXES}{nets}")).unwrap();
        for name in bound {
            b = b.bind(name, |r, e| e.emit(r.clone()));
        }
        match b.build_expr(expr) {
            Ok(net) => panic!("{expr}: built a net: {:?}", net.finish()),
            Err(e) => pinned(e),
        }
    };
    assert_eq!(
        expr("net bad = g .. g;", &["f", "g"], "f"),
        ("Type", SERIAL_GG.into())
    );
    assert_eq!(
        expr("", &["f", "g"], "g .. g"),
        ("Compile", SERIAL_GG.into())
    );
    assert_eq!(
        expr("", &["f", "g"], "f .. nosuch"),
        ("Compile", "unknown box or net 'nosuch'".into())
    );
    assert_eq!(
        expr("", &["f"], "f .. .."),
        (
            "Parse",
            "parse error at line 1: expected box name, filter or parenthesised network, \
             found '..'"
                .into()
        )
    );
    assert_eq!(
        expr("", &[], "g"),
        ("Compile", "box 'g' has no bound implementation".into())
    );
}
