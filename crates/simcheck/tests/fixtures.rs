//! Fixture tests: one known-bad snippet per rule must produce its
//! diagnostic, the matching clean snippet must not, the allow hatch
//! must silence it, and the committed workspace must scan clean.
//!
//! The bad snippets live inside string literals, so the workspace-clean
//! test below does not trip over this very file.

use simcheck::workspace::{scan_source, scan_workspace, to_json};
use simcheck::Rule;

/// Scan a snippet as if it lived in a deterministic crate.
fn scan(src: &str) -> Vec<simcheck::Diagnostic> {
    scan_source("crates/sim/src/fixture.rs", src)
}

fn rules_hit(src: &str) -> Vec<Rule> {
    scan(src).into_iter().map(|d| d.rule).collect()
}

#[test]
fn hash_collections_bad_and_clean() {
    assert!(rules_hit("use std::collections::HashMap;").contains(&Rule::HashCollections));
    assert!(
        rules_hit("let s = std::collections::HashSet::<u32>::new();")
            .contains(&Rule::HashCollections)
    );
    assert!(rules_hit("use std::collections::BTreeMap;").is_empty());
}

#[test]
fn wall_clock_bad_and_clean() {
    assert!(rules_hit("let t = std::time::Instant::now();").contains(&Rule::WallClock));
    assert!(rules_hit("let t = SystemTime::now();").contains(&Rule::WallClock));
    assert!(rules_hit("let mut r = rand::thread_rng();").contains(&Rule::WallClock));
    assert!(
        rules_hit("let t = queue.now();").is_empty(),
        "sim clock is fine"
    );
}

#[test]
fn float_eq_bad_and_clean() {
    assert!(rules_hit("let same = x == 0.5;").contains(&Rule::FloatEq));
    assert!(rules_hit("let diff = 1.5 != y;").contains(&Rule::FloatEq));
    assert!(rules_hit("let close = (x - 0.5).abs() < 1e-9;").is_empty());
    assert!(rules_hit("let int_cmp = n == 5;").is_empty());
}

#[test]
fn narrowing_cast_bad_and_clean() {
    assert!(rules_hit("let w = airtime_us as u32;").contains(&Rule::NarrowingCast));
    assert!(rules_hit("let w = d.as_nanos() as u32;").contains(&Rule::NarrowingCast));
    assert!(rules_hit("let w = seq_no as u16;").contains(&Rule::NarrowingCast));
    assert!(
        rules_hit("let w = airtime_us as u64;").is_empty(),
        "widening is fine"
    );
    assert!(
        rules_hit("let w = count as u32;").is_empty(),
        "not time/seq-carrying"
    );
}

#[test]
fn time_unit_suffix_bad_and_clean() {
    assert!(rules_hit("fn wait(timeout: u64) {}").contains(&Rule::TimeUnitSuffix));
    assert!(rules_hit("struct S { rtt: f64 }").contains(&Rule::TimeUnitSuffix));
    assert!(rules_hit("fn wait(timeout_us: u64) {}").is_empty());
    assert!(rules_hit("struct S { rtt_ms: f64 }").is_empty());
    assert!(
        rules_hit("struct S { timeout_count: u64 }").is_empty(),
        "a count, not a time"
    );
}

#[test]
fn unwrap_in_lib_bad_and_clean() {
    assert!(rules_hit("fn f(x: Option<u8>) -> u8 { x.unwrap() }").contains(&Rule::UnwrapInLib));
    assert!(
        rules_hit("fn f(x: Option<u8>) -> u8 { x.expect(\"set\") }").contains(&Rule::UnwrapInLib)
    );
    // Test code may panic freely — by `#[cfg(test)]` region or by path.
    let in_tests = "#[cfg(test)]\nmod tests {\n    fn f() { Some(1).unwrap(); }\n}";
    assert!(scan(in_tests).is_empty());
    assert!(scan_source(
        "crates/tcp/tests/integration.rs",
        "fn f() { Some(1).unwrap(); }"
    )
    .is_empty());
    // Cold crates are exempt: panicking on malformed input is fine in
    // tooling.
    assert!(scan_source(
        "crates/simctl/src/lib.rs",
        "fn f(x: Option<u8>) -> u8 { x.unwrap() }"
    )
    .is_empty());
}

#[test]
fn sorted_iteration_bad_and_clean() {
    let bad = "let mut v: Vec<u64> = m.keys().copied().collect();\nv.sort_unstable();";
    assert!(rules_hit(bad).contains(&Rule::SortedIteration));
    let clean = "let mut v: Vec<u64> = samples.iter().copied().collect();\nv.sort_unstable();";
    assert!(scan(clean).is_empty());
    let hatched =
        "let mut v: Vec<u64> = m.keys().copied().collect();\nv.sort_unstable(); // simcheck: allow(sorted-iteration)";
    assert!(scan(hatched).is_empty());
}

#[test]
fn doc_comment_mentions_do_not_suppress() {
    // A doc comment that quotes the allow syntax right above a real
    // violation must not suppress it (regression for the hardened
    // `parse_allow`).
    let src = "/// Use `// simcheck: allow(float-eq)` to opt out.\nlet same = x == 0.5;";
    assert_eq!(scan(src).len(), 1);
}

#[test]
fn lexer_edge_cases_do_not_false_positive() {
    // Raw strings with embedded quotes, byte/char literals containing
    // `"`, and nested block comments must all stay opaque to the rules.
    let raw = r##"let s = r#"x == 0.5 and "HashMap" too"#;"##;
    assert!(scan(raw).is_empty());
    let quote_chars = "let q = '\"'; let b = b'\"'; let ok = n == 5;";
    assert!(scan(quote_chars).is_empty());
    let nested = "/* x == 0.5 /* HashMap */ Instant */ let a = 1;";
    assert!(scan(nested).is_empty());
}

#[test]
fn allow_hatch_silences_same_line_and_line_above() {
    let inline = "let same = x == 0.5; // simcheck: allow(float-eq)";
    assert!(scan(inline).is_empty());
    let above = "// simcheck: allow(float-eq)\nlet same = x == 0.5;";
    assert!(scan(above).is_empty());
    let below = "let same = x == 0.5;\n// simcheck: allow(float-eq)";
    assert_eq!(scan(below).len(), 1, "allow below the line has no effect");
    let wrong_rule = "let same = x == 0.5; // simcheck: allow(wall-clock)";
    assert_eq!(scan(wrong_rule).len(), 1, "allow names a different rule");
}

#[test]
fn exempt_crates_skip_only_their_rules() {
    let clock = "let t = std::time::Instant::now();";
    assert!(scan_source("crates/bench/src/bin/x.rs", clock).is_empty());
    assert!(scan_source("crates/criterion/src/lib.rs", clock).is_empty());
    // The exemption is wall-clock only: hash collections still flag.
    let hash = "use std::collections::HashMap;";
    assert_eq!(scan_source("crates/bench/src/bin/x.rs", hash).len(), 1);
}

#[test]
fn diagnostics_carry_file_line_and_rule() {
    let src = "let a = 1;\nlet same = x == 0.5;\n";
    let diags = scan(src);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].file, "crates/sim/src/fixture.rs");
    assert_eq!(diags[0].line, 2);
    assert_eq!(diags[0].rule, Rule::FloatEq);
    let rendered = diags[0].to_string();
    assert!(
        rendered.contains("crates/sim/src/fixture.rs:2"),
        "{rendered}"
    );
    assert!(rendered.contains("[float-eq]"), "{rendered}");
}

#[test]
fn json_output_round_trips_the_count() {
    let diags = scan("let same = x == 0.5;\nuse std::collections::HashMap;");
    let j = to_json(&diags);
    assert!(j.contains("\"count\": 2"), "{j}");
    assert!(j.contains("\"rule\": \"float-eq\""), "{j}");
    assert!(j.contains("\"rule\": \"hash-collections\""), "{j}");
}

/// The acceptance gate: the committed tree must be clean, which is what
/// lets `scripts/ci.sh` treat any nonzero simcheck exit as a regression.
#[test]
fn committed_workspace_scans_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("simcheck lives at <ws>/crates/simcheck")
        .to_path_buf();
    let diags = scan_workspace(&root).expect("workspace scan");
    assert!(
        diags.is_empty(),
        "workspace has simcheck violations:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// An injected violation must make the *binary* exit nonzero — this is
/// the exact failure mode CI relies on.
#[test]
fn binary_fails_on_injected_violation() {
    let dir = std::env::temp_dir().join(format!("simcheck-fixture-{}", std::process::id()));
    let src_dir = dir.join("crates/sim/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    std::fs::write(
        src_dir.join("injected.rs"),
        "use std::collections::HashMap;\n",
    )
    .expect("write fixture");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_simcheck"))
        .args(["--root", dir.to_str().unwrap()])
        .output()
        .expect("run simcheck");
    assert_eq!(out.status.code(), Some(1), "violation must exit 1");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("hash-collections"), "{text}");

    // And the same tree is accepted once the violation is annotated.
    std::fs::write(
        src_dir.join("injected.rs"),
        "use std::collections::HashMap; // simcheck: allow(hash-collections)\n",
    )
    .expect("rewrite fixture");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_simcheck"))
        .args(["--root", dir.to_str().unwrap(), "--format=json"])
        .output()
        .expect("run simcheck");
    assert_eq!(out.status.code(), Some(0), "allowed tree must exit 0");
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"count\": 0"));

    let _ = std::fs::remove_dir_all(&dir);
}
