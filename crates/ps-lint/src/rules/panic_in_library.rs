//! `panic-in-library`: library code must not contain reachable panics.
//!
//! Production-facing crates return `Result`/`Option`; panics are for tests
//! and examples.  Flagged in non-test library functions:
//!
//! * `.unwrap()` — always (convert to `?`, a match, or `.expect("why")`);
//! * `.expect(…)` — unless the argument is a non-empty string literal
//!   documenting the invariant that makes the panic unreachable;
//! * `panic!`, `todo!`, `unimplemented!` — always;
//! * `unreachable!()` — unless given a message documenting why.
//!
//! `#[cfg(test)]` modules, `#[test]` functions and doc comments are
//! exempt (the lexer already strips doc comments; the model marks
//! test-only functions).

use super::{scan_nodes, FileContext, Rule};
use crate::diag::Diagnostic;
use crate::tree::Node;
use crate::walk::FileClass;

/// See the module docs.
pub struct PanicInLibrary;

const NAME: &str = "panic-in-library";

impl Rule for PanicInLibrary {
    fn name(&self) -> &'static str {
        NAME
    }

    fn description(&self) -> &'static str {
        "no unwrap/panic!/todo! in library code; expect/unreachable! need an invariant message"
    }

    fn applies_to(&self, class: FileClass) -> bool {
        matches!(class, FileClass::Lib | FileClass::Bin)
    }

    fn check_file(&self, ctx: &FileContext<'_>) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        // Binaries may panic in `main` (top-level error reporting) but not
        // in their helper functions; library code may never.
        let is_bin = ctx.file.class == FileClass::Bin;
        for func in ctx.functions {
            if func.is_test_only || (is_bin && func.name == "main") {
                continue;
            }
            scan_nodes(&func.body.children, &mut |nodes, i| {
                check_site(ctx, nodes, i, &mut diags);
            });
        }
        diags
    }
}

fn check_site(ctx: &FileContext<'_>, nodes: &[Node], i: usize, diags: &mut Vec<Diagnostic>) {
    let Some(tok) = nodes[i].leaf() else { return };

    // `.unwrap()` and `.expect(…)` — require the leading dot so local
    // functions named `unwrap` are not confused with the method.
    if tok.is_punct('.') {
        let Some(method) = nodes.get(i + 1).and_then(|n| n.leaf()) else {
            return;
        };
        let args = match nodes.get(i + 2) {
            Some(Node::Group(g)) if g.delim == '(' => g,
            _ => return,
        };
        if method.is_ident("unwrap") {
            diags.push(
                ctx.diag(
                    NAME,
                    PanicInLibrary.severity(),
                    method.line,
                    method.col,
                    "`.unwrap()` in library code; use `?`, a match, or `.expect(\"<invariant>\")`"
                        .into(),
                ),
            );
        } else if method.is_ident("expect") && !has_message(args) {
            diags.push(ctx.diag(
                NAME,
                PanicInLibrary.severity(),
                method.line,
                method.col,
                "`.expect(…)` without a string literal documenting the invariant".into(),
            ));
        }
        return;
    }

    // Macro panics: `panic!`, `todo!`, `unimplemented!`, bare `unreachable!()`.
    let Some(name) = tok.ident() else { return };
    let bang = nodes.get(i + 1).and_then(|n| n.leaf());
    if !matches!(bang, Some(t) if t.is_punct('!')) {
        return;
    }
    match name {
        "panic" | "todo" | "unimplemented" => diags.push(ctx.diag(
            NAME,
            PanicInLibrary.severity(),
            tok.line,
            tok.col,
            format!("`{name}!` in library code; return an error instead"),
        )),
        "unreachable" => {
            let empty = match nodes.get(i + 2) {
                Some(Node::Group(g)) => !has_message(g),
                _ => true,
            };
            if empty {
                diags.push(ctx.diag(
                    NAME,
                    PanicInLibrary.severity(),
                    tok.line,
                    tok.col,
                    "bare `unreachable!()`; state the invariant that makes this branch dead".into(),
                ));
            }
        }
        _ => {}
    }
}

/// Does the argument group start with a non-empty string literal?
fn has_message(group: &crate::tree::Group) -> bool {
    matches!(
        group.children.first().and_then(|n| n.leaf()),
        Some(t) if matches!(&t.kind, crate::lexer::TokenKind::Str(s) if !s.trim().is_empty())
    )
}
