//! `wsm-lint`: token-level structural analyzer enforcing repo law.
//!
//! Rules (each with a fixture in `tests/lint_fixtures/` that must trip it):
//!
//! * **R1 `unsafe-outside-pool`** — the `unsafe` keyword may appear only
//!   under `crates/pool/` (the one crate allowed to hold it).
//! * **R2 `missing-forbid-header`** — every other `crates/*/src/lib.rs`
//!   must open with `#![forbid(unsafe_code)]`.
//! * **R3 `unjustified-ordering`** — every `Ordering::Relaxed` / `Acquire` /
//!   `Release` / `AcqRel` site in the concurrent crates (`sync`, `pool`,
//!   `core`) outside test code must carry a `// ord:` justification comment
//!   on the site's statement or in the comment block immediately above it.
//!   `SeqCst` needs no comment: it is the safe default the audit downgrades
//!   *from*.
//! * **R4 `sleep-as-sync`** — `thread::sleep` in `crates/` is forbidden
//!   unless annotated `// lint: allow(thread_sleep)` (e.g. measured backoff,
//!   test traffic shaping).
//! * **R5 `unmetered-op`** — public methods of `BTree` (alias `Tree23`) /
//!   `RecencyMap` in
//!   `crates/twothree` must route through the `cost` metering layer: a body
//!   mentioning `touch` or `pass` (the two `cost::` entry points), or a call
//!   chain reaching one — computed to fixpoint across the whole crate, with
//!   `Node`/`Arena` (where the per-node charging lives) contributing metered names —
//!   or carry `// lint: allow(unmetered)` with a reason.
//! * **R6 `unused-dependency`** — every entry of a `crates/*/Cargo.toml`
//!   `[dependencies]` table must be named, with `-` written as `_`, in the
//!   code (not the comments) of that crate's `src/`.
//!
//! Analysis is token-level, not a full parse: comments and string/char
//! literals are masked out (preserving line numbers) before keyword scans,
//! so `unsafe` in a doc comment does not trip R1, while the original text is
//! kept for the justification-comment rules.

use std::fmt;
use std::path::{Path, PathBuf};

/// A single rule violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Rule identifier (e.g. `unsafe-outside-pool`).
    pub rule: &'static str,
    /// File the violation is in (repo-relative where possible).
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
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

/// Masks comments and string/char literal *contents* with spaces, keeping
/// line structure (and the delimiters) intact, so token scans see code only.
pub fn mask_noncode(src: &str) -> String {
    #[derive(PartialEq)]
    enum St {
        Code,
        Line,          // // ... \n
        Block(usize),  // /* ... */ with nesting depth
        Str,           // "..."
        RawStr(usize), // r#"..."# with `usize` hashes
        Char,          // '...'
    }
    let b: Vec<char> = src.chars().collect();
    let mut out: Vec<char> = Vec::with_capacity(b.len());
    let mut st = St::Code;
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        let next = b.get(i + 1).copied();
        match st {
            St::Code => {
                if c == '/' && next == Some('/') {
                    st = St::Line;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    st = St::Block(1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                if c == '"' {
                    st = St::Str;
                    out.push('"');
                    i += 1;
                    continue;
                }
                if c == 'r' && (next == Some('"') || next == Some('#')) {
                    // Possible raw string: r"..." or r#"..."#
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while b.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if b.get(j) == Some(&'"') {
                        st = St::RawStr(hashes);
                        out.extend(std::iter::repeat_n(' ', j + 1 - i));
                        i = j + 1;
                        continue;
                    }
                    out.push(c);
                    i += 1;
                    continue;
                }
                if c == '\'' {
                    // Distinguish char literal from lifetime: a lifetime is
                    // '<ident> not followed by a closing quote.
                    let is_lifetime = matches!(next, Some(n) if n.is_alphabetic() || n == '_')
                        && b.get(i + 2) != Some(&'\'');
                    if !is_lifetime {
                        st = St::Char;
                        out.push('\'');
                        i += 1;
                        continue;
                    }
                }
                out.push(c);
                i += 1;
            }
            St::Line => {
                if c == '\n' {
                    st = St::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                i += 1;
            }
            St::Block(depth) => {
                if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::Block(depth - 1)
                    };
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                if c == '/' && next == Some('*') {
                    st = St::Block(depth + 1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
                i += 1;
            }
            St::Str => {
                if c == '\\' {
                    out.push(' ');
                    if next.is_some() {
                        out.push(' ');
                        i += 2;
                        continue;
                    }
                } else if c == '"' {
                    st = St::Code;
                    out.push('"');
                } else {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                }
                i += 1;
            }
            St::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0;
                    while seen < hashes && b.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        st = St::Code;
                        out.extend(std::iter::repeat_n(' ', j - i));
                        i = j;
                        continue;
                    }
                }
                out.push(if c == '\n' { '\n' } else { ' ' });
                i += 1;
            }
            St::Char => {
                if c == '\\' && next.is_some() {
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                if c == '\'' {
                    st = St::Code;
                    out.push('\'');
                } else {
                    out.push(' ');
                }
                i += 1;
            }
        }
    }
    out.into_iter().collect()
}

/// True if `masked[pos..]` starts the identifier `word` at a token boundary.
fn is_word_at(masked: &str, pos: usize, word: &str) -> bool {
    let bytes = masked.as_bytes();
    if pos + word.len() > bytes.len() || &masked[pos..pos + word.len()] != word {
        return false;
    }
    let before_ok = pos == 0 || !(bytes[pos - 1].is_ascii_alphanumeric() || bytes[pos - 1] == b'_');
    let after = pos + word.len();
    let after_ok =
        after >= bytes.len() || !(bytes[after].is_ascii_alphanumeric() || bytes[after] == b'_');
    before_ok && after_ok
}

/// All (line, column) occurrences of identifier `word` in masked source.
fn word_sites(masked: &str, word: &str) -> Vec<(usize, usize)> {
    let mut sites = Vec::new();
    for (ln, line) in masked.lines().enumerate() {
        let mut from = 0;
        while let Some(off) = line[from..].find(word) {
            let pos = from + off;
            // Check boundaries within the line (words never span lines).
            let bytes = line.as_bytes();
            let before_ok =
                pos == 0 || !(bytes[pos - 1].is_ascii_alphanumeric() || bytes[pos - 1] == b'_');
            let after = pos + word.len();
            let after_ok = after >= bytes.len()
                || !(bytes[after].is_ascii_alphanumeric() || bytes[after] == b'_');
            if before_ok && after_ok {
                sites.push((ln + 1, pos));
            }
            from = pos + word.len();
        }
    }
    sites
}

/// One source file presented to the rules.
pub struct SourceFile {
    /// Path, repo-relative (used for crate classification + reporting).
    pub path: PathBuf,
    /// Raw text.
    pub text: String,
}

impl SourceFile {
    fn rel(&self) -> String {
        self.path.to_string_lossy().replace('\\', "/")
    }

    fn in_dir(&self, dir: &str) -> bool {
        self.rel().starts_with(dir)
    }

    /// 1-based line of the first `#[cfg(test)]` attribute (masked scan);
    /// lines at or after it are exempt from the ordering-justification rule.
    fn test_tail_start(&self, masked: &str) -> Option<usize> {
        for (ln, line) in masked.lines().enumerate() {
            let t: String = line.split_whitespace().collect();
            if t.contains("#[cfg(test)]") {
                return Some(ln + 1);
            }
        }
        None
    }
}

/// True if `marker` appears on the site's line, inside the statement the
/// site belongs to (multi-line calls keep their justification above the
/// call), or in the contiguous comment block immediately above it.  The
/// upward scan crosses comment lines and statement-continuation lines and
/// stops at the end of the previous statement (`;`, `{` or `}`), bounded to
/// `MAX_LOOKBACK` lines so a pathological file cannot stall the scan.
fn line_has_allow(lines: &[&str], ln_1based: usize, marker: &str) -> bool {
    const MAX_LOOKBACK: usize = 16;
    let idx = ln_1based - 1;
    if lines[idx].contains(marker) {
        return true;
    }
    let mut seen_comment_block = false;
    for back in 1..=MAX_LOOKBACK.min(idx) {
        let line = lines[idx - back].trim();
        if line.contains(marker) {
            return true;
        }
        if line.is_empty() {
            // A blank line separates statements (and detaches any comment
            // block above it from the site).
            return false;
        }
        let is_comment = line.starts_with("//");
        if is_comment {
            seen_comment_block = true;
            continue;
        }
        if seen_comment_block {
            // We walked up through the justification block and ran out of it.
            return false;
        }
        if line.ends_with(';') || line.ends_with('{') || line.ends_with('}') {
            // End of the previous statement: the site's own statement (plus
            // its comment block, had there been one) is exhausted.
            return false;
        }
        // Continuation line of the site's own multi-line statement.
    }
    false
}

/// R1: `unsafe` outside `crates/pool`.
fn rule_unsafe(file: &SourceFile, masked: &str, out: &mut Vec<Violation>) {
    if file.in_dir("crates/pool/") {
        return;
    }
    for (line, _) in word_sites(masked, "unsafe") {
        out.push(Violation {
            rule: "unsafe-outside-pool",
            file: file.path.clone(),
            line,
            message: "`unsafe` is confined to crates/pool; move the code or \
                      express it safely"
                .to_string(),
        });
    }
}

/// R2: `#![forbid(unsafe_code)]` header in every non-pool crate's lib.rs.
fn rule_forbid_header(file: &SourceFile, masked: &str, out: &mut Vec<Violation>) {
    let rel = file.rel();
    let is_lib = rel.starts_with("crates/") && rel.ends_with("/src/lib.rs");
    if !is_lib || file.in_dir("crates/pool/") {
        return;
    }
    let has = masked.lines().any(|l| {
        l.split_whitespace()
            .collect::<String>()
            .contains("#![forbid(unsafe_code)]")
    });
    if !has {
        out.push(Violation {
            rule: "missing-forbid-header",
            file: file.path.clone(),
            line: 1,
            message: "crate root must declare #![forbid(unsafe_code)]".to_string(),
        });
    }
}

/// R3: `// ord:` justification on every non-SeqCst ordering site in the
/// concurrent crates' non-test code.
fn rule_ord_justified(file: &SourceFile, masked: &str, out: &mut Vec<Violation>) {
    let concurrent = [
        "crates/sync/",
        "crates/pool/",
        "crates/core/",
        "crates/shard/",
        "crates/svc/",
        "crates/wal/",
    ];
    if !concurrent.iter().any(|d| file.in_dir(d)) {
        return;
    }
    let test_tail = file.test_tail_start(masked).unwrap_or(usize::MAX);
    let lines: Vec<&str> = file.text.lines().collect();
    for token in ["Relaxed", "Acquire", "Release", "AcqRel"] {
        for (line, col) in word_sites(masked, token) {
            if line >= test_tail {
                continue;
            }
            // Only `Ordering::<token>` sites (or use-imported bare tokens
            // preceded by `::`); a struct field named Release would be odd,
            // but be precise anyway.
            let masked_line = masked.lines().nth(line - 1).unwrap_or("");
            let prefix = &masked_line[..col];
            if !prefix.trim_end().ends_with("::") {
                continue;
            }
            if !line_has_allow(&lines, line, "// ord:") {
                out.push(Violation {
                    rule: "unjustified-ordering",
                    file: file.path.clone(),
                    line,
                    message: format!(
                        "Ordering::{token} needs a `// ord:` justification \
                         comment (on the site's statement or the comment \
                         block above it), backed by a model harness or a \
                         happens-before argument"
                    ),
                });
            }
        }
    }
}

/// R4: no sleep-based synchronization in crates/.
fn rule_no_sleep(file: &SourceFile, masked: &str, out: &mut Vec<Violation>) {
    if !file.in_dir("crates/") {
        return;
    }
    let lines: Vec<&str> = file.text.lines().collect();
    for (line, col) in word_sites(masked, "sleep") {
        let masked_line = masked.lines().nth(line - 1).unwrap_or("");
        let prefix = &masked_line[..col];
        // `thread::sleep(` / `std::thread::sleep(`; ignore e.g. the pool's
        // `Sleep` struct (capital S) and method names like `sleepers`.
        if !prefix.trim_end().ends_with("thread::") {
            continue;
        }
        if !line_has_allow(&lines, line, "// lint: allow(thread_sleep)") {
            out.push(Violation {
                rule: "sleep-as-sync",
                file: file.path.clone(),
                line,
                message: "thread::sleep in crates/ looks like sleep-based \
                          synchronization; use condvars/doorbells, or annotate \
                          `// lint: allow(thread_sleep)` with a reason"
                    .to_string(),
            });
        }
    }
}

/// R5: public `BTree` (alias `Tree23`) / `RecencyMap` methods route through
/// the `cost`
/// metering layer.  The fixpoint is **crate-global**: `Node` (where the
/// actual per-node `touch` charging lives, now `Arena`) and the public types are
/// gathered across every `crates/twothree` file, seeded with bodies that
/// mention `touch` or `pass` (the two `cost::` entry points), and closed
/// over `.name(` / `Self::name(` / `Node::name(` calls by method name.
/// Name-level resolution is an approximation, like the rest of this
/// token-level analyzer — good enough for the repo's idiom.
fn rule_metered_global(files: &[(&SourceFile, String)], out: &mut Vec<Violation>) {
    struct Site<'a> {
        file: &'a SourceFile,
        method: Method,
        report: bool,
    }
    let mut sites: Vec<Site> = Vec::new();
    for (file, masked) in files {
        if !file.in_dir("crates/twothree/") {
            continue;
        }
        for m in collect_impl_methods(masked, &["Tree23", "BTree", "RecencyMap"]) {
            sites.push(Site {
                file,
                method: m,
                report: true,
            });
        }
        for m in collect_impl_methods(masked, &["Node", "Arena"]) {
            sites.push(Site {
                file,
                method: m,
                report: false,
            });
        }
    }
    if sites.is_empty() {
        return;
    }
    let mut metered: Vec<bool> = sites
        .iter()
        .map(|s| {
            !word_sites(&s.method.body, "touch").is_empty()
                || !word_sites(&s.method.body, "pass").is_empty()
        })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..sites.len() {
            if metered[i] {
                continue;
            }
            for (j, callee) in sites.iter().enumerate() {
                if !metered[j] || i == j {
                    continue;
                }
                let name = &callee.method.name;
                if sites[i].method.body.contains(&format!(".{name}("))
                    || sites[i].method.body.contains(&format!("Self::{name}("))
                    || sites[i].method.body.contains(&format!("Node::{name}("))
                {
                    metered[i] = true;
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }
    for (i, s) in sites.iter().enumerate() {
        if !s.report || !s.method.is_pub || metered[i] {
            continue;
        }
        let lines: Vec<&str> = s.file.text.lines().collect();
        if line_has_allow(&lines, s.method.line, "// lint: allow(unmetered)") {
            continue;
        }
        out.push(Violation {
            rule: "unmetered-op",
            file: s.file.path.clone(),
            line: s.method.line,
            message: format!(
                "public method `{}` does not route through cost::touch \
                 metering (directly or via a metered sibling); meter it or \
                 annotate `// lint: allow(unmetered)` with a reason",
                s.method.name
            ),
        });
    }
}

struct Method {
    name: String,
    line: usize,
    is_pub: bool,
    body: String,
}

/// Extracts methods of `impl`-blocks whose header mentions one of `types`.
/// Brace matching over masked text; robust enough for this repo's idiom.
fn collect_impl_methods(masked: &str, types: &[&str]) -> Vec<Method> {
    let mut methods = Vec::new();
    let chars: Vec<char> = masked.chars().collect();
    let mut line_of = vec![1usize; chars.len() + 1];
    {
        let mut ln = 1;
        for (i, &c) in chars.iter().enumerate() {
            line_of[i] = ln;
            if c == '\n' {
                ln += 1;
            }
        }
        line_of[chars.len()] = ln;
    }
    let mut i = 0;
    while i < chars.len() {
        if is_word_at(masked, i, "impl") {
            // Header: up to the opening brace.
            let open = match masked[i..].find('{') {
                Some(o) => i + o,
                None => break,
            };
            let header = &masked[i..open];
            if header.contains("for ")
                && !types.iter().any(|t| {
                    header
                        .split("for ")
                        .nth(1)
                        .map(|tail| tail.contains(t))
                        .unwrap_or(false)
                })
            {
                // Trait impl for some other type.
                i = open + 1;
                continue;
            }
            if !types.iter().any(|t| header.contains(t)) {
                i = open + 1;
                continue;
            }
            // Scan the impl body for `fn` items.
            let close = matching_brace(&chars, open);
            let mut j = open + 1;
            while j < close {
                if is_word_at(masked, j, "fn") {
                    // Name follows.
                    let after = j + 2;
                    let name: String = masked[after..]
                        .chars()
                        .skip_while(|c| c.is_whitespace())
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    // Visibility: look back on the same construct for `pub`.
                    let lookback_start = masked[..j].rfind(['}', ';', '{']).map_or(0, |p| p + 1);
                    let is_pub = masked[lookback_start..j].contains("pub");
                    // Body: next '{' at this nesting (skip `;` fn decls).
                    let semi = masked[j..close].find(';').map(|p| j + p);
                    let body_open = masked[j..close].find('{').map(|p| j + p);
                    match (body_open, semi) {
                        (Some(bo), s) if s.is_none_or(|sp| bo < sp) => {
                            let bc = matching_brace(&chars, bo);
                            methods.push(Method {
                                name,
                                line: line_of[j],
                                is_pub,
                                body: masked[bo..=bc.min(masked.len() - 1)].to_string(),
                            });
                            j = bc + 1;
                            continue;
                        }
                        _ => {
                            j += 2;
                            continue;
                        }
                    }
                }
                j += 1;
            }
            i = close + 1;
            continue;
        }
        i += 1;
    }
    methods
}

/// Index of the `}` matching the `{` at `open` (or the last index).
fn matching_brace(chars: &[char], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, &c) in chars.iter().enumerate().skip(open) {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    chars.len().saturating_sub(1)
}

/// R6: every `[dependencies]` entry of a `crates/<name>/Cargo.toml` is
/// named, with `-` written as `_`, in the masked code of `crates/<name>/src/`.
fn rule_unused_dependency(
    manifest: &SourceFile,
    sources: &[(&SourceFile, String)],
    out: &mut Vec<Violation>,
) {
    let rel = manifest.rel();
    let Some(name) = rel
        .strip_prefix("crates/")
        .and_then(|r| r.strip_suffix("/Cargo.toml"))
        .filter(|n| !n.contains('/'))
    else {
        return;
    };
    let src = format!("crates/{name}/src/");
    for (line, dep) in dependency_entries(&manifest.text) {
        let ident = dep.replace('-', "_");
        let named = sources
            .iter()
            .any(|(f, masked)| f.in_dir(&src) && !word_sites(masked, &ident).is_empty());
        if !named {
            out.push(Violation {
                rule: "unused-dependency",
                file: manifest.path.clone(),
                line,
                message: format!(
                    "dependency `{dep}` is not named (as `{ident}`) anywhere in \
                     {src}; drop it or move it to [dev-dependencies]"
                ),
            });
        }
    }
}

/// 1-based line and name of each entry of a manifest's `[dependencies]`
/// table (`name = ...` or `name.workspace = true`).
fn dependency_entries(manifest: &str) -> Vec<(usize, String)> {
    let mut entries = Vec::new();
    let mut in_table = false;
    for (ln, line) in manifest.lines().enumerate() {
        let t = line.trim();
        if t.starts_with('[') {
            in_table = t == "[dependencies]";
        } else if in_table && !t.is_empty() && !t.starts_with('#') {
            let name = t
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '-' || *c == '_')
                .collect();
            entries.push((ln + 1, name));
        }
    }
    entries
}

/// Runs every rule over `files` (`.rs` sources and `Cargo.toml` manifests);
/// returns all violations, sorted by path/line.
pub fn run(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    let (manifests, sources): (Vec<&SourceFile>, Vec<&SourceFile>) =
        files.iter().partition(|f| f.rel().ends_with("Cargo.toml"));
    let masked: Vec<(&SourceFile, String)> = sources
        .into_iter()
        .map(|f| (f, mask_noncode(&f.text)))
        .collect();
    for (f, m) in &masked {
        rule_unsafe(f, m, &mut out);
        rule_forbid_header(f, m, &mut out);
        rule_ord_justified(f, m, &mut out);
        rule_no_sleep(f, m, &mut out);
    }
    rule_metered_global(&masked, &mut out);
    for manifest in manifests {
        rule_unused_dependency(manifest, &masked, &mut out);
    }
    out.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    out
}

/// Walks `root` for `crates/**/*.rs` files and `crates/**/Cargo.toml`
/// manifests (skipping `target/`) and returns them with repo-relative paths.
pub fn collect_repo_files(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    walk(&crates, root, &mut files)?;
    files.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(files)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "lint_fixtures" {
                continue;
            }
            walk(&path, root, out)?;
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            let text = std::fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .map(|p| p.to_path_buf())
                .unwrap_or_else(|_| path.clone());
            out.push(SourceFile { path: rel, text });
        }
    }
    Ok(())
}
