//! The determinism-contract rules that rustc and clippy cannot express,
//! checked over every workspace source (DESIGN.md, "Static analysis: the
//! determinism contract"). The rest of the contract is compiler
//! configuration: `clippy.toml` and the lint attributes of each crate.
//!
//! | code | rule |
//! |------|------|
//! | D000 | malformed, unknown-code or unused `anp-lint:` directive |
//! | D003 | bare `assert!` in non-test library code |
//! | D004 | unchecked arithmetic on extracted `SimTime`/`SimDuration` ticks |
//! | D005 | float reduction in a file that collects results from threads |
//!
//! Only `// anp-lint: allow(D003) — reason` on a hit's line or the line
//! above suppresses it. Failures are listed as `CODE path:line:col message`.

use std::path::Path;

/// A word, a punctuation char, a lifetime, or a literal (text `"`).
struct Tok {
    text: String,
    /// 1-based `(line, column)`.
    at: (u32, u32),
}

/// A rule hit: `(line, column, code)`.
type Hit = (u32, u32, &'static str);

/// A parsed directive: `(line, codes, reason, used)`.
type Directive = (u32, Vec<String>, String, bool);

fn message(code: &str) -> &'static str {
    match code {
        "D000" => "malformed, unknown-code or unused `anp-lint: allow(…) — reason` directive",
        "D003" => "bare `assert!` in library code: use `debug_assert!` or a typed error",
        "D004" => "unchecked arithmetic on raw ticks: use the SimTime/SimDuration operators",
        _ => "order-sensitive float reduction in a file that collects from threads",
    }
}

fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Splits `src` into tokens and its `// anp-lint:` comments `(line, text)`;
/// all other comments are dropped.
fn lex(src: &str) -> (Vec<Tok>, Vec<(u32, String)>) {
    let c: Vec<char> = src.chars().collect();
    let at = |k: usize| c.get(k).copied().unwrap_or('\0');
    let skip = |mut k: usize, f: &dyn Fn(char) -> bool| {
        while k < c.len() && f(c[k]) {
            k += 1;
        }
        k
    };
    // Index just past the closing `q` of a literal whose body starts at `k`.
    let quoted = |mut k: usize, q: char| {
        while k < c.len() && c[k] != q {
            k += 1 + usize::from(c[k] == '\\');
        }
        k + 1
    };
    let line_start = |k: usize| k == 0 || c[k - 1] == '\n';
    let starts: Vec<usize> = (0..c.len()).filter(|&k| line_start(k)).collect();
    let pos = |k: usize| {
        let line = starts.partition_point(|&s| s <= k);
        (line as u32, (k - starts[line - 1] + 1) as u32)
    };
    let (mut toks, mut comments, mut i) = (Vec::new(), Vec::new(), 0);
    while i < c.len() {
        // `(end, literal)`: where the lexeme ends and whether it is a literal.
        let (end, literal) = match c[i] {
            ch if ch.is_whitespace() => (i + 1, None),
            '/' if at(i + 1) == '/' => {
                let end = skip(i, &|ch| ch != '\n');
                let body: String = c[i + 2..end].iter().collect();
                if body.trim_start().starts_with("anp-lint:") {
                    comments.push((pos(i).0, body));
                }
                (end, None)
            }
            '/' if at(i + 1) == '*' => {
                let (mut depth, mut k) = (1, i + 2);
                while depth > 0 && k < c.len() {
                    let pair = |a, b| at(k) == a && at(k + 1) == b;
                    let step = i32::from(pair('/', '*')) - i32::from(pair('*', '/'));
                    (depth, k) = (depth + step, k + 1 + usize::from(step != 0));
                }
                (k, None)
            }
            '"' => (quoted(i + 1, '"'), Some(true)),
            '\'' if is_word(at(i + 1)) && at(i + 2) != '\'' => (skip(i + 1, &is_word), Some(false)),
            '\'' => (quoted(i + 1, '\''), Some(true)),
            ch if is_word(ch) => {
                let k = skip(i, &is_word);
                let word: String = c[i..k].iter().collect();
                let hashes = skip(k, &|ch| ch == '#') - k;
                let closes = |e: usize| c[e] == '"' && skip(e + 1, &|ch| ch == '#') > e + hashes;
                if matches!(word.as_str(), "r" | "br") && at(k + hashes) == '"' {
                    let e = (k + hashes + 1..c.len()).find(|&e| closes(e));
                    (e.unwrap_or(c.len()) + 1 + hashes, Some(true))
                } else {
                    (k, Some(false))
                }
            }
            _ => (i + 1, Some(false)),
        };
        let end = end.min(c.len());
        if let Some(literal) = literal {
            let span: &[char] = if literal { &['"'] } else { &c[i..end] };
            let (text, at) = (span.iter().collect(), pos(i));
            toks.push(Tok { text, at });
        }
        i = end;
    }
    (toks, comments)
}

/// Index of the token closing the bracket opened at `at`.
fn matching(toks: &[Tok], at: usize, open: &str, close: &str) -> usize {
    let mut depth = 0;
    let end = toks[at..].iter().position(|t| {
        depth += i32::from(t.text == open) - i32::from(t.text == close);
        depth == 0
    });
    end.map_or(toks.len() - 1, |n| at + n)
}

/// Which tokens are live code: not in an attribute, not in an item after
/// `#[test]`/`#[cfg(test)]`, and not in a `#![cfg(test)]` or test file.
fn live(toks: &[Tok], test_file: bool) -> Vec<bool> {
    let mut live = vec![!test_file; toks.len()];
    let (mut pending, mut i) = (false, 0);
    while i < toks.len() {
        let bang = toks.get(i + 1).is_some_and(|t| t.text == "!");
        let open = i + 1 + usize::from(bang);
        let end = if toks[i].text == "#" && toks.get(open).is_some_and(|t| t.text == "[") {
            let close = matching(toks, open, "[", "]");
            let words: Vec<&str> = toks[open + 1..close].iter().map(|t| &*t.text).collect();
            let cfg_test = words.first() == Some(&"cfg") && words.contains(&"test");
            let test_attr = words == ["test"] || (cfg_test && !words.contains(&"not"));
            pending |= test_attr;
            if test_attr && bang {
                toks.len() - 1
            } else {
                close
            }
        } else if std::mem::take(&mut pending) {
            let stop = |t: &Tok| t.text == "{" || t.text == ";";
            let body = toks[i..].iter().position(stop);
            match body.map(|n| i + n) {
                Some(b) if toks[b].text == "{" => matching(toks, b, "{", "}"),
                b => b.unwrap_or(toks.len() - 1),
            }
        } else {
            i += 1;
            continue;
        };
        live[i..=end].iter_mut().for_each(|l| *l = false);
        i = end + 1;
    }
    live
}

fn is_test_path(rel: &str) -> bool {
    let tree = |d: &str| rel.starts_with(&format!("{d}/")) || rel.contains(&format!("/{d}/"));
    ["tests", "benches", "examples"].into_iter().any(tree)
}

/// D003 covers library code: `crates/*/src` outside `src/bin/`, and `src/lib.rs`.
fn is_library(rel: &str) -> bool {
    let crate_src = rel.starts_with("crates/") && rel.contains("/src/");
    rel == "src/lib.rs" || (crate_src && !rel.contains("/src/bin/") && !is_test_path(rel))
}

fn rules(rel: &str, toks: &[Tok], live: &[bool], out: &mut Vec<Hit>) {
    // Out-of-range positions, `i - 1` at 0 included, read as "".
    let text = |k: usize| toks.get(k).map_or("", |t| t.text.as_str());
    // Binary `+`/`-`/`*` follows a value: a word, a literal, `)` or `]`.
    let arith = |k: usize| {
        let prev = text(k.wrapping_sub(1));
        let after_value =
            prev.starts_with(|c: char| is_word(c) || c == '"') || matches!(prev, ")" | "]");
        matches!(text(k), "+" | "-" | "*") && after_value
    };
    let parallel = toks.iter().enumerate().any(|(i, t)| {
        let thread_fn = matches!(t.text.as_str(), "scope" | "spawn");
        live[i] && (t.text == "mpsc" || (thread_fn && text(i.wrapping_sub(3)) == "thread"))
    });
    for (i, t) in toks.iter().enumerate().filter(|p| live[p.0]) {
        let (s, (line, col)) = (t.text.as_str(), t.at);
        if s == "assert" && text(i + 1) == "!" && is_library(rel) {
            out.push((line, col, "D003"));
        }
        let accessor = matches!(s, "as_nanos" | "as_micros" | "as_millis");
        if accessor && text(i.wrapping_sub(1)) == "." && text(i + 2) == ")" && arith(i + 3) {
            out.push((line, col, "D004"));
        }
        let ctor = ["from_nanos", "from_micros", "from_millis", "from_secs"].contains(&text(i + 3));
        if matches!(s, "SimTime" | "SimDuration") && ctor && text(i + 4) == "(" {
            let close = matching(toks, i + 4, "(", ")");
            if let Some(op) = (i + 5..close).find(|&k| arith(k)) {
                out.push((toks[op].at.0, toks[op].at.1, "D004"));
            }
        }
        let sum = s == "sum" && text(i + 3) == "<" && matches!(text(i + 4), "f64" | "f32");
        let digits = |k: usize| text(k).starts_with(|c: char| c.is_ascii_digit());
        let fold = s == "fold" && text(i + 1) == "(" && digits(i + 2) && text(i + 3) == ".";
        if parallel && (sum || (fold && digits(i + 4))) {
            out.push((line, col, "D005"));
        }
    }
}

/// Parses `anp-lint: allow(D003, D005) — reason`; the separator may be
/// `—`, `--` or `-`, and the reason must be non-empty.
fn parse_directive(text: &str) -> Option<(Vec<String>, String)> {
    let rest = text.trim_start().strip_prefix("anp-lint:")?.trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start().strip_prefix('(')?;
    let (list, tail) = rest.split_once(')')?;
    let codes: Vec<String> = list.split(',').map(|c| c.trim().to_string()).collect();
    let retained = |c: &String| ["D003", "D004", "D005"].contains(&c.as_str());
    let tail = tail.trim_start();
    let sep = ["—", "--", "-"].into_iter().find(|s| tail.starts_with(s))?;
    let reason = tail[sep.len()..].trim().to_string();
    (codes.iter().all(retained) && !reason.is_empty()).then_some((codes, reason))
}

/// Lints one source text as if it lived at `rel` (workspace-relative):
/// its sorted unsuppressed hits and its suppressions `(code, line, reason)`.
fn lint_source(rel: &str, src: &str) -> (Vec<Hit>, Vec<(&'static str, u32, String)>) {
    let (toks, comments) = lex(src);
    let (mut raw, mut hits, mut allowed) = (Vec::new(), Vec::new(), Vec::new());
    rules(rel, &toks, &live(&toks, is_test_path(rel)), &mut raw);
    let mut directives: Vec<Directive> = Vec::new();
    for (line, text) in comments {
        match parse_directive(&text) {
            Some((codes, reason)) => directives.push((line, codes, reason, false)),
            None => hits.push((line, 1, "D000")),
        }
    }
    for (line, col, code) in raw {
        let covers =
            |d: &&mut Directive| (d.0 == line || d.0 + 1 == line) && d.1.iter().any(|c| c == code);
        match directives.iter_mut().find(covers) {
            Some(d) => {
                d.3 = true;
                allowed.push((code, line, d.2.clone()));
            }
            None => hits.push((line, col, code)),
        }
    }
    hits.extend(directives.iter().filter(|d| !d.3).map(|d| (d.0, 1, "D000")));
    hits.sort();
    (hits, allowed)
}

/// Lints every `.rs` file under `root` outside `target/`, `vendor/` and
/// `.git/`: the file count, the `CODE path:line:col message` lines in
/// path order, and the number of recorded suppressions.
fn lint_tree(root: &Path) -> (usize, Vec<String>, usize) {
    let (mut dirs, mut files) = (vec![root.to_path_buf()], Vec::new());
    while let Some(dir) = dirs.pop() {
        let entries = std::fs::read_dir(&dir).and_then(|d| d.collect::<Result<Vec<_>, _>>());
        for entry in entries.unwrap_or_else(|e| panic!("reading {}: {e}", dir.display())) {
            let path = entry.path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if path.is_dir() && !["target", "vendor", ".git"].contains(&name.as_ref()) {
                dirs.push(path);
            } else if name.ends_with(".rs") {
                let rel = path.strip_prefix(root).unwrap_or(&path);
                files.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    files.sort();
    let (mut report, mut allowed) = (Vec::new(), 0);
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel));
        let (hits, ok) = lint_source(rel, &src.unwrap_or_else(|e| panic!("{rel}: {e}")));
        allowed += ok.len();
        let line = |(l, c, code): &Hit| format!("{code} {rel}:{l}:{c} {}", message(code));
        report.extend(hits.iter().map(line));
    }
    (files.len(), report, allowed)
}

#[test]
fn shipped_tree_lints_clean() {
    let (files, report, allowed) = lint_tree(Path::new(env!("CARGO_MANIFEST_DIR")));
    let report = report.join("\n");
    assert!(report.is_empty(), "the tree must lint clean:\n{report}");
    assert!(files > 50 && allowed > 0, "only {files} files scanned");
}

const D000_BAD: &str = "// anp-lint: allow(D003)\n// anp-lint: alow(D003) — typo\n// anp-lint: allow(D001) — a clippy.toml ban";
const D000_OK: &str = "fn f(q: &[u8]) {\n    // anp-lint: allow(D003) — callers never pass an empty queue\n    assert!(!q.is_empty());\n}";
const D003_BAD: &str =
    "#[cfg(not(test))]\npub fn first(v: &[f64]) -> f64 {\n    assert!(!v.is_empty());\n    v[0]\n}";
const D003_OK: &str = r##"pub fn first(v: &[f64]) -> Option<f64> {
    let s = "assert!(x) \" assert!(y)"; let r = r#"a " assert!(z)"#; let c = '\''; let b = b'"';
    let l: &'static str = ""; /* assert!(w) /* nested */ assert!(v) */ debug_assert!(s < l);
    v.first().copied() }
#[cfg(test)]
#[expect(dead_code, reason = "r")]
mod tests { fn first() { assert!(super::first(&[]).is_none()); } }"##;
const D004_BAD: &str =
    "fn mid(t: SimTime, w: SimDuration) -> u64 {\n    t.as_nanos() + w.as_nanos() / 2\n}\n\
    fn scaled(base: u64, k: u64) -> SimDuration {\n    SimDuration::from_nanos(base * k)\n}";
const D004_OK: &str = "fn mid(t: SimTime, w: SimDuration) -> SimTime {\n    t + SimDuration::from_nanos(w.as_nanos() / 2)\n}\n\
    fn scaled(base: u64, k: u64) -> SimDuration {\n    SimDuration::from_nanos(base).checked_mul(k)\n}";
const D005_BAD: &str = "fn mean(chunks: Vec<Vec<f64>>) -> f64 {\n    let mut parts = Vec::new();\n    std::thread::scope(|s| {\n\
    let hs: Vec<_> = chunks.iter().map(|c| s.spawn(|| c.iter().sum::<f64>())).collect();\n\
    parts.extend(hs.into_iter().map(|h| h.join().unwrap_or(0.0)));\n    });\n    parts.into_iter().fold(0.0f64, |a, b| a + b)\n}";
const D005_OK: &str = "fn mean(chunks: Vec<Vec<f64>>) -> f64 {\n    let mut parts = vec![0.0f64; chunks.len()];\n    std::thread::scope(|s| {\n\
    for (slot, c) in parts.iter_mut().zip(&chunks) {\n            s.spawn(move || c.iter().for_each(|x| *slot += x));\n        }\n    });\n\
    let mut total = 0.0;\n    for p in &parts {\n        total += p;\n    }\n    total\n}";

/// Per code: how often its bad case trips it, the bad case, a clean twin.
const CASES: [(&str, usize, &str, &str); 4] = [
    ("D000", 3, D000_BAD, D000_OK),
    ("D003", 1, D003_BAD, D003_OK),
    ("D004", 2, D004_BAD, D004_OK),
    ("D005", 2, D005_BAD, D005_OK),
];

/// Writes each case's bad and ok source into a library tree: every bad
/// file trips only its own code, the ok twins stay clean, and the report
/// runs in path order.
#[test]
fn seeded_fixture_tree_trips_every_code() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint-seeded-tree");
    let (src, _) = (root.join("crates/core/src"), std::fs::remove_dir_all(&root));
    std::fs::create_dir_all(&src).unwrap_or_else(|e| panic!("{}: {e}", src.display()));
    let mut expected = Vec::new();
    for (code, n, bad, ok) in CASES {
        let write = |name: String, text| std::fs::write(src.join(name), text);
        let wrote = write(format!("{code}_bad.rs"), bad).and(write(format!("{code}_ok.rs"), ok));
        wrote.unwrap_or_else(|e| panic!("{code}: {e}"));
        expected.extend(vec![format!("{code} crates/core/src/{code}_bad.rs"); n]);
    }
    let (files, report, allowed) = lint_tree(&root);
    assert_eq!((files, allowed), (8, 1));
    let heads: Vec<&str> = report.iter().filter_map(|l| l.split(':').next()).collect();
    assert_eq!(heads, expected);
}

#[test]
fn directive_parses_all_separators() {
    let codes = vec!["D003".to_string(), "D005".to_string()];
    for sep in ["—", "--", "-"] {
        let parsed = parse_directive(&format!("anp-lint: allow(D003, D005) {sep} fine"));
        assert_eq!(parsed, Some((codes.clone(), "fine".to_string())));
    }
}

#[test]
fn directive_requires_reason_and_retained_codes() {
    let bad = "anp-lint: allow(D003) —\nanp-lint: allow(D003)\nanp-lint: allow(D3) — short\n\
        anp-lint: allow() — empty\nanp-lint: permit(D003) — verb\nanp-lint: allow(D002) — clippy's";
    for bad in bad.lines() {
        assert_eq!(parse_directive(bad), None, "{bad}");
    }
}

#[test]
fn suppression_covers_same_line_and_next_line() {
    let src = "fn f() {
    assert!(a); // anp-lint: allow(D003) — trailing
    // anp-lint: allow(D003) — above
    assert!(b);
    assert!(c);
    // anp-lint: allow(D003) — nothing here
}";
    let (hits, allowed) = lint_source("crates/core/src/x.rs", src);
    let allowed: Vec<_> = allowed.iter().map(|a| (a.1, a.2.as_str())).collect();
    assert_eq!(allowed, [(2, "trailing"), (4, "above")]);
    assert_eq!(hits, [(5, 5, "D003"), (6, 1, "D000")], "unused is D000");
}

#[test]
fn scopes_gate_the_rules() {
    let src = "fn f(t: SimTime) -> u64 {\n    assert!(ok());\n    t.as_nanos() * 2\n}";
    let codes = |rel: &str| -> Vec<&str> { lint_source(rel, src).0.iter().map(|h| h.2).collect() };
    assert_eq!(codes("crates/core/src/x.rs"), ["D003", "D004"]);
    assert_eq!(codes("src/lib.rs"), ["D003", "D004"]);
    assert_eq!(codes("src/main.rs"), ["D004"], "D003 is library-only");
    assert_eq!(codes("crates/bench/src/bin/x.rs"), ["D004"]);
    for test_tree in ["tests/x.rs", "crates/a/tests/x.rs", "crates/a/benches/x.rs"] {
        assert_eq!(codes(test_tree), Vec::<&str>::new(), "{test_tree}");
    }
}
