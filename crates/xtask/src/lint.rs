//! The project lint rules and the directory walker.
//!
//! Four rules, all specific to this workspace's soundness posture:
//!
//! * [`RULE_SAFETY_COMMENT`] — every `unsafe` block / fn / impl must be
//!   preceded by a contiguous comment or doc block containing `SAFETY:`
//!   (or a `# Safety` doc section), or carry one on the same line.
//! * [`RULE_UNSAFE_WHITELIST`] — `unsafe` may appear only in the audited
//!   modules: `shared.rs`, `pool.rs`, `exec.rs`, `kernels.rs`,
//!   `expand.rs`, `isa.rs`, and `formats/*`. Everything else must go through the
//!   safe wrappers those modules export.
//! * [`RULE_HOT_PATH_PANIC`] — kernel hot paths (`kernels.rs`,
//!   `lanes.rs`, `expand.rs`) must not contain `.unwrap()`, `.expect(…)`,
//!   `panic!`, `todo!`, or `unimplemented!` outside `#[cfg(test)]`
//!   modules: kernels report errors through types or debug-asserts, they
//!   do not abort mid-SpMV.
//! * [`RULE_TRACE_FALLBACK`] — every `#[cfg(feature = "trace")]`-gated
//!   item (other than module declarations and imports, whose availability
//!   is feature-contingent by design) must live in a file that also
//!   provides a `#[cfg(not(feature = "trace"))]` fallback, so untraced
//!   builds keep compiling.

use crate::lexer::{analyze, word_positions, LineView};
use std::fmt;
use std::path::{Path, PathBuf};

pub const RULE_SAFETY_COMMENT: &str = "unsafe-needs-safety-comment";
pub const RULE_UNSAFE_WHITELIST: &str = "unsafe-outside-whitelist";
pub const RULE_HOT_PATH_PANIC: &str = "hot-path-panic";
pub const RULE_TRACE_FALLBACK: &str = "trace-cfg-missing-fallback";

/// Files allowed to contain `unsafe` (by basename), plus anything under
/// a `formats/` directory. Keep this list short: each entry is a module
/// someone has audited end to end.
const UNSAFE_WHITELIST: &[&str] = [
    "shared.rs",
    "pool.rs",
    "exec.rs",
    "kernels.rs",
    "expand.rs",
    "isa.rs",
]
.as_slice();

/// Kernel hot-path modules where panicking constructs are banned.
const HOT_PATH_FILES: &[&str] = ["kernels.rs", "lanes.rs", "expand.rs"].as_slice();

/// One lint finding, pointing at an exact file:line.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Path relative to the linted root.
    pub file: PathBuf,
    /// 1-indexed line number.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Result of linting a tree: every finding plus scan statistics.
#[derive(Debug, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    pub files_scanned: usize,
    pub lines_scanned: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Lint one file's source text. `rel` is the path reported in
/// diagnostics and drives the per-module rules.
pub fn lint_source(rel: &Path, source: &str) -> Vec<Diagnostic> {
    let lines = analyze(source);
    let in_test = test_regions(&lines);
    let mut out = Vec::new();
    check_unsafe(rel, &lines, &mut out);
    check_hot_path(rel, &lines, &in_test, &mut out);
    check_trace_fallback(rel, &lines, &mut out);
    out
}

fn basename(rel: &Path) -> &str {
    rel.file_name().and_then(|n| n.to_str()).unwrap_or("")
}

fn in_formats_dir(rel: &Path) -> bool {
    rel.parent()
        .and_then(|p| p.file_name())
        .and_then(|n| n.to_str())
        == Some("formats")
}

fn unsafe_allowed(rel: &Path) -> bool {
    UNSAFE_WHITELIST.contains(&basename(rel)) || in_formats_dir(rel)
}

/// Mark lines inside `#[cfg(test)] mod … { … }` regions (brace-counted
/// on the blanked code view, so strings and comments cannot derail it).
pub(crate) fn test_regions(lines: &[LineView]) -> Vec<bool> {
    let mut in_test = vec![false; lines.len()];
    let mut i = 0usize;
    while i < lines.len() {
        if !lines[i].code.contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        // Skip attributes/comments until the `mod` item opens.
        let mut j = i + 1;
        while j < lines.len()
            && !word_positions(&lines[j].code, "mod").iter().any(|_| true)
            && (lines[j].is_code_blank() || lines[j].is_attribute())
        {
            j += 1;
        }
        if j >= lines.len() || word_positions(&lines[j].code, "mod").is_empty() {
            i += 1;
            continue;
        }
        // Brace-count from the mod header to its closing brace.
        let mut depth = 0i64;
        let mut opened = false;
        let mut k = j;
        while k < lines.len() {
            for c in lines[k].code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            in_test[k] = true;
            if opened && depth <= 0 {
                break;
            }
            k += 1;
        }
        i = k + 1;
    }
    in_test
}

/// Whether a comment line satisfies the SAFETY requirement.
fn has_safety_marker(comment: &str) -> bool {
    comment.contains("SAFETY") || comment.contains("# Safety") || comment.contains("Soundness")
}

fn check_unsafe(rel: &Path, lines: &[LineView], out: &mut Vec<Diagnostic>) {
    let allowed = unsafe_allowed(rel);
    for (idx, line) in lines.iter().enumerate() {
        if word_positions(&line.code, "unsafe").is_empty() {
            continue;
        }
        if !allowed {
            out.push(Diagnostic {
                file: rel.to_path_buf(),
                line: idx + 1,
                rule: RULE_UNSAFE_WHITELIST,
                message: format!(
                    "`unsafe` is not allowed in `{}`; move the operation behind a safe \
                     wrapper in one of the audited modules ({}, formats/*)",
                    basename(rel),
                    UNSAFE_WHITELIST.join(", "),
                ),
            });
        }
        if !safety_comment_covers(lines, idx) {
            out.push(Diagnostic {
                file: rel.to_path_buf(),
                line: idx + 1,
                rule: RULE_SAFETY_COMMENT,
                message: "`unsafe` without a preceding `// SAFETY:` comment (or `# Safety` \
                          doc section) stating the invariant that makes it sound"
                    .to_string(),
            });
        }
    }
}

/// Walk upward from the `unsafe` line through its contiguous annotation
/// block (comments, doc comments, attributes); accept if any of it —
/// or a trailing comment on the line itself — carries a SAFETY marker.
fn safety_comment_covers(lines: &[LineView], idx: usize) -> bool {
    if has_safety_marker(&lines[idx].comment) {
        return true;
    }
    let mut k = idx;
    while k > 0 {
        k -= 1;
        let l = &lines[k];
        if l.is_comment_only() {
            if has_safety_marker(&l.comment) {
                return true;
            }
            continue;
        }
        if l.is_attribute() {
            // Attributes may carry a trailing comment.
            if has_safety_marker(&l.comment) {
                return true;
            }
            continue;
        }
        break; // blank line or real code: the annotation block ended
    }
    false
}

fn check_hot_path(rel: &Path, lines: &[LineView], in_test: &[bool], out: &mut Vec<Diagnostic>) {
    if !HOT_PATH_FILES.contains(&basename(rel)) {
        return;
    }
    const BANNED: &[(&str, &str)] = &[
        (".unwrap()", "unwrap"),
        (".expect(", "expect"),
        ("panic!", "panic!"),
        ("todo!", "todo!"),
        ("unimplemented!", "unimplemented!"),
    ];
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        for (needle, name) in BANNED {
            if line.code.contains(needle) {
                out.push(Diagnostic {
                    file: rel.to_path_buf(),
                    line: idx + 1,
                    rule: RULE_HOT_PATH_PANIC,
                    message: format!(
                        "`{name}` in kernel hot path `{}`: hot loops must not abort — \
                         validate at the boundary or use debug_assert!",
                        basename(rel),
                    ),
                });
            }
        }
    }
}

fn check_trace_fallback(rel: &Path, lines: &[LineView], out: &mut Vec<Diagnostic>) {
    // Patterns assembled at runtime so this linter's own source (and the
    // blanked-strings code view) never matches them.
    let pos = format!("cfg(feature = {q}trace{q})", q = '"');
    let neg = format!("cfg(not(feature = {q}trace{q}))", q = '"');
    let has_fallback = lines.iter().any(|l| l.code_with_strings.contains(&neg));
    for (idx, line) in lines.iter().enumerate() {
        if !line.code_with_strings.contains(&pos) || line.code_with_strings.contains(&neg) {
            continue;
        }
        // Find the gated item: first following line with real code that
        // is not an attribute. Module declarations and imports are
        // exempt — their whole point is feature-contingent availability.
        let mut j = idx + 1;
        while j < lines.len() && (lines[j].is_code_blank() || lines[j].is_attribute()) {
            j += 1;
        }
        let gated = lines.get(j).map(|l| l.code.trim()).unwrap_or("");
        let exempt = ["mod ", "pub mod ", "pub(crate) mod ", "use ", "pub use "]
            .iter()
            .any(|p| gated.starts_with(p));
        if !exempt && !has_fallback {
            out.push(Diagnostic {
                file: rel.to_path_buf(),
                line: idx + 1,
                rule: RULE_TRACE_FALLBACK,
                message: "item gated on `feature = \"trace\"` but the file provides no \
                          `#[cfg(not(feature = \"trace\"))]` fallback — untraced builds \
                          would lose this API"
                    .to_string(),
            });
        }
    }
}

/// Lint every `crates/*/src/**.rs` file (plus the umbrella `src/`) under
/// `root`. Returns an error string on IO failure.
pub fn lint_root(root: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let mut src_dirs: Vec<PathBuf> = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let entries =
            std::fs::read_dir(&crates).map_err(|e| format!("read {}: {e}", crates.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read {}: {e}", crates.display()))?;
            let src = entry.path().join("src");
            if src.is_dir() {
                src_dirs.push(src);
            }
        }
    }
    let umbrella = root.join("src");
    if umbrella.is_dir() {
        src_dirs.push(umbrella);
    }
    if src_dirs.is_empty() {
        return Err(format!(
            "no crates/*/src directories under {}",
            root.display()
        ));
    }
    src_dirs.sort();
    let mut files = Vec::new();
    for dir in &src_dirs {
        collect_rs_files(dir, &mut files)?;
    }
    files.sort();
    for file in files {
        let source =
            std::fs::read_to_string(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        report.files_scanned += 1;
        report.lines_scanned += source.lines().count();
        report.diagnostics.extend(lint_source(&rel, &source));
    }
    Ok(report)
}

pub(crate) fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag_rules(rel: &str, src: &str) -> Vec<&'static str> {
        lint_source(Path::new(rel), src)
            .into_iter()
            .map(|d| d.rule)
            .collect()
    }

    #[test]
    fn commented_unsafe_in_whitelisted_file_is_clean() {
        let src = "fn f(p: *mut u8) {\n    // SAFETY: p is valid for writes.\n    unsafe { *p = 0 };\n}\n";
        assert!(diag_rules("crates/sparse/src/shared.rs", src).is_empty());
    }

    #[test]
    fn uncommented_unsafe_flagged_with_line() {
        let src = "fn f(p: *mut u8) {\n    unsafe { *p = 0 };\n}\n";
        let diags = lint_source(Path::new("crates/sparse/src/shared.rs"), src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RULE_SAFETY_COMMENT);
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn safety_comment_seen_through_attributes() {
        let src = "// SAFETY: the referent outlives all uses.\n#[allow(clippy::mut_from_ref)]\nunsafe impl Send for X {}\n";
        assert!(diag_rules("crates/sparse/src/pool.rs", src).is_empty());
    }

    #[test]
    fn doc_safety_section_accepted() {
        let src = "/// Does things.\n///\n/// # Safety\n/// Caller must uphold X.\npub unsafe fn f() {}\n";
        assert!(diag_rules("crates/simd/src/expand.rs", src).is_empty());
    }

    #[test]
    fn isa_dispatch_shims_are_whitelisted() {
        let src = "/// # Safety\n/// The CPU must support fma.\n#[target_feature(enable = \"fma\")]\nunsafe fn f() {}\n";
        assert!(diag_rules("crates/simd/src/isa.rs", src).is_empty());
        let bare = "#[target_feature(enable = \"fma\")]\nunsafe fn f() {}\n";
        assert_eq!(
            diag_rules("crates/simd/src/isa.rs", bare),
            vec![RULE_SAFETY_COMMENT]
        );
    }

    #[test]
    fn blank_line_breaks_the_annotation_block() {
        let src = "// SAFETY: stale comment.\n\nunsafe fn f() {}\n";
        assert_eq!(
            diag_rules("crates/sparse/src/pool.rs", src),
            vec![RULE_SAFETY_COMMENT]
        );
    }

    #[test]
    fn unsafe_outside_whitelist_flagged() {
        let src = "fn f(p: *mut u8) {\n    // SAFETY: fine.\n    unsafe { *p = 0 };\n}\n";
        assert_eq!(
            diag_rules("crates/recon/src/sirt.rs", src),
            vec![RULE_UNSAFE_WHITELIST]
        );
    }

    #[test]
    fn formats_dir_is_whitelisted() {
        let src = "// SAFETY: fine.\nunsafe fn f() {}\n";
        assert!(diag_rules("crates/sparse/src/formats/anything.rs", src).is_empty());
    }

    #[test]
    fn unsafe_in_string_or_comment_ignored() {
        let src = "// this mentions unsafe code\nlet s = \"unsafe\";\n";
        assert!(diag_rules("crates/recon/src/sirt.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_kernel_hot_path_flagged() {
        let src = "pub fn kernel(v: &[f64]) -> f64 {\n    *v.first().unwrap()\n}\n";
        let diags = lint_source(Path::new("crates/core/src/kernels.rs"), src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RULE_HOT_PATH_PANIC);
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn unwrap_in_test_module_allowed() {
        let src = "pub fn kernel() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n    }\n}\n";
        assert!(diag_rules("crates/core/src/kernels.rs", src).is_empty());
    }

    #[test]
    fn unwrap_outside_hot_path_allowed() {
        let src = "pub fn setup() { Some(1).unwrap(); }\n";
        assert!(diag_rules("crates/harness/src/suite.rs", src).is_empty());
    }

    #[test]
    fn trace_cfg_without_fallback_flagged() {
        let src = format!(
            "#[cfg(feature = {q}trace{q})]\npub fn traced() {{}}\n",
            q = '"'
        );
        assert_eq!(
            diag_rules("crates/trace/src/span.rs", &src),
            vec![RULE_TRACE_FALLBACK]
        );
    }

    #[test]
    fn trace_cfg_with_fallback_clean() {
        let src = format!(
            "#[cfg(feature = {q}trace{q})]\npub fn traced() {{}}\n#[cfg(not(feature = {q}trace{q}))]\npub fn traced() {{}}\n",
            q = '"'
        );
        assert!(diag_rules("crates/trace/src/span.rs", &src).is_empty());
    }

    #[test]
    fn trace_gated_module_declaration_exempt() {
        let src = format!(
            "#[cfg(feature = {q}trace{q})]\npub(crate) mod registry;\n",
            q = '"'
        );
        assert!(diag_rules("crates/trace/src/lib.rs", &src).is_empty());
    }
}
