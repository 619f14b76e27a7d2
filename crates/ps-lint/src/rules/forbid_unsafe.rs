//! `forbid-unsafe`: no `unsafe` anywhere, and every crate root must say so.
//!
//! The workspace is pure safe Rust (`unsafe_code = "deny"` in the workspace
//! lints, `#![forbid(unsafe_code)]` in every crate root).  This rule closes
//! the two gaps the compiler attributes leave:
//!
//! * tests and examples are targets of their own — a stray
//!   `unsafe` there would compile if a future edit relaxed a crate
//!   attribute, so the token itself is policed in **every** file class;
//! * the crate-root attributes could be deleted in the same commit that
//!   introduces `unsafe`; the workspace check pins each root listed in
//!   [`crate::config::FORBID_UNSAFE_CRATE_ROOTS`] as carrying the
//!   attribute.
//!
//! Exceptions would have to be registered in
//! [`crate::config::UNSAFE_ALLOWLIST`] — which is empty and intended to
//! stay that way.

use super::{FileContext, Rule, WorkspaceContext};
use crate::config::{FORBID_UNSAFE_CRATE_ROOTS, UNSAFE_ALLOWLIST};
use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokenKind;
use crate::walk::FileClass;
use std::path::PathBuf;

/// See the module docs.
pub struct ForbidUnsafe;

const NAME: &str = "forbid-unsafe";

impl Rule for ForbidUnsafe {
    fn name(&self) -> &'static str {
        NAME
    }

    fn description(&self) -> &'static str {
        "no `unsafe` tokens in any target; crate roots must carry #![forbid(unsafe_code)]"
    }

    fn applies_to(&self, _class: FileClass) -> bool {
        true
    }

    fn check_file(&self, ctx: &FileContext<'_>) -> Vec<Diagnostic> {
        let path = ctx.file.path.to_string_lossy().replace('\\', "/");
        if UNSAFE_ALLOWLIST.iter().any(|allowed| path == *allowed) {
            return Vec::new();
        }
        ctx.tokens
            .iter()
            .filter(|t| t.is_ident("unsafe"))
            .map(|t| {
                ctx.diag(
                    NAME,
                    Severity::Error,
                    t.line,
                    t.col,
                    "`unsafe` is forbidden workspace-wide; register an allowlist entry in \
                     ps-lint's config.rs if an exception is ever truly needed"
                        .into(),
                )
            })
            .collect()
    }

    fn check_workspace(&self, ws: &WorkspaceContext<'_>) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        for root in FORBID_UNSAFE_CRATE_ROOTS {
            let Some(data) = ws
                .files
                .iter()
                .find(|f| f.file.path.to_string_lossy().replace('\\', "/") == *root)
            else {
                diags.push(Diagnostic {
                    rule: NAME,
                    severity: Severity::Error,
                    file: PathBuf::from(root),
                    line: 0,
                    col: 0,
                    message: format!(
                        "crate root `{root}` listed in FORBID_UNSAFE_CRATE_ROOTS was not \
                         found; update ps-lint's config.rs for the new crate layout"
                    ),
                });
                continue;
            };
            if !has_forbid_unsafe_attr(&data.tokens) {
                diags.push(Diagnostic {
                    rule: NAME,
                    severity: Severity::Error,
                    file: data.file.path.clone(),
                    line: 1,
                    col: 1,
                    message: "crate root is missing `#![forbid(unsafe_code)]`".into(),
                });
            }
        }
        diags
    }
}

/// Matches the token sequence `# ! [ forbid ( unsafe_code ) ]`.
fn has_forbid_unsafe_attr(tokens: &[crate::lexer::Token]) -> bool {
    tokens.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && matches!(&w[5].kind, TokenKind::Ident(s) if s == "unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    })
}
