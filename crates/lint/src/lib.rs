//! archline-lint: workspace-native static analysis.
//!
//! Six token-level passes enforce the invariants the compiler cannot see:
//! no raw prints in library code, determinism of seeded result paths,
//! panic discipline in catch_unwind-clean hot paths, float-comparison and
//! mul_add discipline, and audited `unsafe` / atomic-ordering sites.
//! Policy is path-derived ([`policy`]), waivers are written pragmas with
//! mandatory justifications ([`pragma`]), and every diagnostic prints the
//! policy provenance that put the file in scope.
//!
//! The crate is dependency-free by design: it must build instantly,
//! offline, before anything else in the workspace compiles.

pub mod lexer;
pub mod passes;
pub mod policy;
pub mod pragma;

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

use lexer::{Tok, TokKind};
use policy::{FileClass, Pass};

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// The pass that produced it.
    pub pass: Pass,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (UTF-8 scalar values).
    pub col: u32,
    /// What is wrong and what to do instead.
    pub message: String,
    /// Why this file is in scope for this pass (policy provenance).
    pub policy: String,
}

/// A lexed file plus the derived facts the passes consume.
pub struct SourceFile {
    pub class: FileClass,
    pub toks: Vec<Tok>,
    /// Parallel to `toks`: inside a `#[test]` fn or `#[cfg(test)]` region.
    pub in_test: Vec<bool>,
    /// Comment text per line (block comments contribute one entry per line
    /// they span).
    pub comment_lines: BTreeMap<u32, Vec<String>>,
    /// Like `comment_lines` but from non-doc comments only: pragmas live in
    /// regular `//` / `/* */` comments; doc comments are rendered prose, so
    /// a grammar example in documentation is never parsed as a pragma.
    pragma_lines: BTreeMap<u32, Vec<String>>,
    /// Lines holding at least one code token.
    code_lines: BTreeSet<u32>,
}

/// `///`, `//!`, `/**`, `/*!` start doc comments.
fn is_doc_comment(text: &str) -> bool {
    text.starts_with("///")
        || text.starts_with("//!")
        || text.starts_with("/**")
        || text.starts_with("/*!")
}

impl SourceFile {
    pub fn new(rel: &str, src: &str) -> SourceFile {
        let lexed = lexer::lex(src);
        let in_test = mark_test_regions(&lexed.toks);
        let mut comment_lines: BTreeMap<u32, Vec<String>> = BTreeMap::new();
        let mut pragma_lines: BTreeMap<u32, Vec<String>> = BTreeMap::new();
        for c in &lexed.comments {
            let doc = is_doc_comment(&c.text);
            for (off, line_text) in c.text.split('\n').enumerate() {
                let line = c.line + off as u32;
                comment_lines.entry(line).or_default().push(line_text.to_string());
                if !doc {
                    pragma_lines.entry(line).or_default().push(line_text.to_string());
                }
            }
        }
        let code_lines = lexed.toks.iter().map(|t| t.line).collect();
        SourceFile {
            class: FileClass::classify(rel),
            toks: lexed.toks,
            in_test,
            comment_lines,
            pragma_lines,
            code_lines,
        }
    }

    fn code_on_line(&self, line: u32) -> bool {
        self.code_lines.contains(&line)
    }

    fn next_code_line(&self, line: u32) -> Option<u32> {
        self.code_lines.range(line + 1..).next().copied()
    }
}

/// Marks token spans governed by a test attribute: any `#[...]` whose
/// ident list contains `test` or `bench` (`#[test]`, `#[cfg(test)]`,
/// `#[cfg(all(test, ...))]`) puts the next brace-balanced `{...}` region —
/// the test fn or `mod tests` body — out of scope for behavioral passes.
/// A `;` before the opening brace cancels the region (attribute on a
/// declaration with no body).
fn mark_test_regions(toks: &[Tok]) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        let is_attr_start = toks[i].kind == TokKind::Punct
            && toks[i].text == "#"
            && toks
                .get(i + 1)
                .is_some_and(|t| t.kind == TokKind::Punct && t.text == "[");
        if !is_attr_start {
            i += 1;
            continue;
        }
        // Find the attribute's closing `]`, noting any `test`/`bench` ident.
        let mut j = i + 2;
        let mut depth = 1u32;
        let mut is_test_attr = false;
        while j < toks.len() && depth > 0 {
            let t = &toks[j];
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {}
                }
            } else if t.kind == TokKind::Ident && (t.text == "test" || t.text == "bench") {
                is_test_attr = true;
            }
            j += 1;
        }
        if !is_test_attr {
            i = j;
            continue;
        }
        // The governed region: from the next `{` (unless a `;` intervenes)
        // to its matching `}`.
        let mut k = j;
        let mut start = None;
        while k < toks.len() {
            let t = &toks[k];
            if t.kind == TokKind::Punct {
                if t.text == "{" {
                    start = Some(k);
                    break;
                }
                if t.text == ";" {
                    break;
                }
            }
            k += 1;
        }
        let Some(start) = start else {
            i = j;
            continue;
        };
        let mut braces = 0u32;
        let mut end = start;
        while end < toks.len() {
            let t = &toks[end];
            if t.kind == TokKind::Punct {
                if t.text == "{" {
                    braces += 1;
                } else if t.text == "}" {
                    braces -= 1;
                    if braces == 0 {
                        break;
                    }
                }
            }
            end += 1;
        }
        let end = end.min(toks.len() - 1);
        for flag in &mut in_test[i..=end] {
            *flag = true;
        }
        // Resume after the attribute itself: nested test attributes inside
        // the region re-mark harmlessly.
        i = j;
    }
    in_test
}

/// Lints one file's source under its path-derived policy. `rel` must be
/// workspace-relative with `/` separators — fixtures pass virtual paths
/// here to pin files into a chosen policy scope.
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    let file = SourceFile::new(rel, src);

    // Pragmas first: they waive pass findings and are themselves linted.
    let mut pragmas = Vec::new();
    let mut problems = Vec::new();
    for (line, texts) in &file.pragma_lines {
        // comment_lines is already split per line; parse each line's text
        // independently (a block comment contributes its pieces line by
        // line, so positions stay exact).
        for text in texts {
            pragma::parse_comment(
                text,
                *line,
                &|l| file.code_on_line(l),
                &|l| file.next_code_line(l),
                &mut pragmas,
                &mut problems,
            );
        }
    }

    let mut raw = Vec::new();
    for pass in Pass::ALL {
        if let Some(provenance) = policy::scope(pass, &file.class) {
            passes::run_pass(pass, &file, &provenance, &mut raw);
        }
    }

    // Waive: a pragma covers all findings of its pass on its target line.
    let mut used = vec![false; pragmas.len()];
    let mut findings: Vec<Finding> = raw
        .into_iter()
        .filter(|f| {
            let waived = pragmas.iter().enumerate().any(|(pi, p)| {
                let hit = p.pass == f.pass && p.target_line == f.line;
                if hit {
                    used[pi] = true;
                }
                hit
            });
            !waived
        })
        .collect();

    let pragma_policy = policy::scope(Pass::Pragma, &file.class).unwrap_or_default();
    for p in &problems {
        findings.push(Finding {
            file: String::new(),
            pass: Pass::Pragma,
            line: p.line,
            col: 1,
            message: p.message.clone(),
            policy: pragma_policy.clone(),
        });
    }
    for (pi, p) in pragmas.iter().enumerate() {
        if !used[pi] {
            findings.push(Finding {
                file: String::new(),
                pass: Pass::Pragma,
                line: p.at_line,
                col: 1,
                message: format!(
                    "pragma for `{}` waives nothing on line {} — the finding it covered \
                     is gone; remove the pragma",
                    p.pass.name(),
                    p.target_line
                ),
                policy: pragma_policy.clone(),
            });
        }
    }

    for f in &mut findings {
        f.file = rel.to_string();
    }
    findings.sort_by(|a, b| (a.line, a.col, a.pass.name()).cmp(&(b.line, b.col, b.pass.name())));
    findings
}

/// Directory names never descended into. `fixtures` holds deliberately
/// dirty lint-test inputs; the rest are build/VCS/vendored trees.
const SKIP_DIRS: &[&str] = &["target", ".git", ".devstubs", "fixtures", "node_modules"];

/// All workspace `.rs` files under `root`, sorted, workspace-relative.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints every workspace file. Returns `(files_checked, findings)`;
/// findings are sorted by path, then position.
pub fn lint_workspace(root: &Path) -> io::Result<(usize, Vec<Finding>)> {
    let files = workspace_files(root)?;
    let mut findings = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(path)?;
        findings.extend(lint_source(&rel, &src));
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.pass.name())
            .cmp(&(b.file.as_str(), b.line, b.col, b.pass.name()))
    });
    Ok((files.len(), findings))
}

/// Serializes findings as a JSON report (hand-rolled: the crate is
/// dependency-free).
pub fn to_json(files_checked: usize, findings: &[Finding]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"files_checked\": {files_checked},\n"));
    out.push_str(&format!("  \"finding_count\": {},\n", findings.len()));
    out.push_str("  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"file\": \"{}\", ", json_escape(&f.file)));
        out.push_str(&format!("\"line\": {}, ", f.line));
        out.push_str(&format!("\"col\": {}, ", f.col));
        out.push_str(&format!("\"pass\": \"{}\", ", f.pass.name()));
        out.push_str(&format!("\"message\": \"{}\", ", json_escape(&f.message)));
        out.push_str(&format!("\"policy\": \"{}\"", json_escape(&f.policy)));
        out.push('}');
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_regions_are_marked() {
        let src = r#"
fn hot() { let x = 1; }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { v.unwrap(); }
}
"#;
        let f = SourceFile::new("crates/serve/src/server.rs", src);
        let unwrap_idx = f
            .toks
            .iter()
            .position(|t| t.text == "unwrap")
            .expect("unwrap token present");
        assert!(f.in_test[unwrap_idx]);
        let hot_idx = f.toks.iter().position(|t| t.text == "hot").expect("hot fn");
        assert!(!f.in_test[hot_idx]);
    }

    #[test]
    fn attribute_with_semicolon_governs_nothing() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() { x.unwrap(); }\n";
        let f = SourceFile::new("crates/par/src/scope.rs", src);
        let idx = f.toks.iter().position(|t| t.text == "unwrap").expect("unwrap");
        assert!(!f.in_test[idx], "region after `;`-terminated item must stay live");
    }

    #[test]
    fn pragma_waives_exactly_its_line_and_pass() {
        let src = r#"
fn f(v: Option<u32>) -> u32 {
    v.unwrap() // lint:allow(panic-discipline, reason = "upheld by admission-time validation")
}
"#;
        let findings = lint_source("crates/serve/src/server.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unused_pragma_is_reported() {
        let src = r#"
fn f() -> u32 {
    // lint:allow(panic-discipline, reason = "left behind after a refactor")
    42
}
"#;
        let findings = lint_source("crates/serve/src/server.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].pass, Pass::Pragma);
        assert!(findings[0].message.contains("waives nothing"));
    }

    #[test]
    fn json_report_is_well_formed() {
        let findings = vec![Finding {
            file: "crates/x/src/lib.rs".into(),
            pass: Pass::Determinism,
            line: 3,
            col: 9,
            message: "a \"quoted\" message".into(),
            policy: "p".into(),
        }];
        let json = to_json(10, &findings);
        assert!(json.contains("\"finding_count\": 1"));
        assert!(json.contains("a \\\"quoted\\\" message"));
    }
}
