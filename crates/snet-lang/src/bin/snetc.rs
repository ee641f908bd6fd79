//! `snetc` — a compiler front end for the S-Net surface language.
//!
//! Parses a program (box and net declarations), runs the full static
//! analysis (filter validation, signature inference with subtyping and
//! flow inheritance), and reports:
//!
//! * the inferred type signature of every net;
//! * the boxes each net transitively uses (what must be bound before
//!   the net can run);
//! * the canonical pretty-printed form of the program.
//!
//! Usage:
//! ```text
//! snetc FILE.snet            # analyse a file
//! snetc -                    # read from stdin
//! snetc --expr 'a .. b'      # analyse a bare network expression
//!                            #  (requires --decls FILE for the boxes)
//! ```
//!
//! Exit code 0 = well-typed; 1 = parse or type error (message on
//! stderr); 2 = usage error.

#![forbid(unsafe_code)]

use snet_lang::{parse_net_expr, parse_program, pretty_net, pretty_program, Env};
use std::io::Read;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: snetc FILE.snet | snetc - | snetc [--decls FILE.snet] --expr 'NETEXPR'");
    ExitCode::from(2)
}

fn read_source(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut s = String::new();
        std::io::stdin()
            .read_to_string(&mut s)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        Ok(s)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut expr: Option<String> = None;
    let mut decls: Option<String> = None;
    let mut file: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--expr" => match it.next() {
                Some(e) => expr = Some(e),
                None => return usage(),
            },
            "--decls" => match it.next() {
                Some(d) => decls = Some(d),
                None => return usage(),
            },
            "--help" | "-h" => {
                let _ = usage();
                return ExitCode::SUCCESS;
            }
            other => {
                if file.is_some() {
                    return usage();
                }
                file = Some(other.to_string());
            }
        }
    }

    match (file, expr) {
        (Some(path), None) => analyse_program(&path),
        (None, Some(e)) => analyse_expr(decls.as_deref(), &e),
        _ => usage(),
    }
}

fn analyse_program(path: &str) -> ExitCode {
    let src = match read_source(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("snetc: {e}");
            return ExitCode::from(2);
        }
    };
    let program = match parse_program(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("snetc: {e}");
            return ExitCode::FAILURE;
        }
    };
    let env = match program.env() {
        Ok(env) => env,
        Err(e) => {
            eprintln!("snetc: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("== declarations ==");
    for b in &program.boxes {
        println!(
            "box {:<20} : {} -> {}",
            b.name,
            b.sig.input_type(),
            b.sig.output_type()
        );
    }
    println!();
    println!("== inferred net signatures ==");
    for n in &program.nets {
        let sig = env
            .lookup_sig(&n.name)
            .expect("declared net has a signature");
        println!(
            "net {:<20} : {} -> {}",
            n.name,
            sig.input_type(),
            sig.output_type()
        );
        let boxes = env.box_closure(&n.body);
        println!(
            "    uses boxes: {}",
            if boxes.is_empty() {
                "(none)".to_string()
            } else {
                boxes.join(", ")
            }
        );
    }
    println!();
    println!("== canonical form ==");
    print!("{}", pretty_program(&program));
    ExitCode::SUCCESS
}

fn analyse_expr(decls: Option<&str>, expr: &str) -> ExitCode {
    let env = match decls {
        Some(path) => {
            let src = match read_source(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("snetc: {e}");
                    return ExitCode::from(2);
                }
            };
            match parse_program(&src).and_then(|p| {
                p.env().map_err(|e| snet_lang::ParseError {
                    message: e.to_string(),
                    line: 0,
                })
            }) {
                Ok(env) => env,
                Err(e) => {
                    eprintln!("snetc: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => Env::new(),
    };
    let ast = match parse_net_expr(expr) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("snetc: {e}");
            return ExitCode::FAILURE;
        }
    };
    match ast.infer(&env) {
        Ok(sig) => {
            println!("expr      : {}", pretty_net(&ast));
            println!("signature : {} -> {}", sig.input_type(), sig.output_type());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("snetc: {e}");
            ExitCode::FAILURE
        }
    }
}
