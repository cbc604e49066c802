//! Joining the registry with the scanned citations into a coverage
//! report, plus the byte-stable text and JSON renderers.
//!
//! The CI contract (mirrored in `scripts/ci.sh` and DESIGN.md "Spec
//! compliance"):
//!
//! - exit 0 — every MUST clause has ≥ 1 implementation citation AND
//!   ≥ 1 test citation, and the annotations themselves are sound;
//! - exit 1 — an uncovered MUST clause, a citation of a nonexistent
//!   clause, an unanchored citation, or a malformed directive;
//! - exit 2 (from the CLI layer) — usage, I/O or registry-parse errors.
//!
//! SHOULD/MAY gaps are reported as advisory but never fail the build.
//! All output is deterministic: specs sort by id, clauses keep registry
//! declaration order (RFC section order), sites sort by (file, line).

use crate::annotations::{Citation, CiteKind, Problem, ProblemKind};
use crate::registry::{Level, Registry};
use std::collections::BTreeMap;
use telemetry::json;

/// One citation site, stripped to location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Site {
    pub file: String,
    pub line: u32,
}

/// Coverage status of one clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Covered,
    ImplOnly,
    TestOnly,
    Uncovered,
}

impl Status {
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Covered => "covered",
            Status::ImplOnly => "impl-only",
            Status::TestOnly => "test-only",
            Status::Uncovered => "uncovered",
        }
    }
}

/// One clause joined with its citation sites.
#[derive(Debug, Clone)]
pub struct ClauseCoverage {
    pub id: String,
    pub level: Level,
    pub text: String,
    pub impl_sites: Vec<Site>,
    pub test_sites: Vec<Site>,
}

impl ClauseCoverage {
    pub fn status(&self) -> Status {
        match (self.impl_sites.is_empty(), self.test_sites.is_empty()) {
            (false, false) => Status::Covered,
            (false, true) => Status::ImplOnly,
            (true, false) => Status::TestOnly,
            (true, true) => Status::Uncovered,
        }
    }
}

/// One spec's worth of clause coverage.
#[derive(Debug, Clone)]
pub struct SpecCoverage {
    pub id: String,
    pub title: String,
    pub url: String,
    pub clauses: Vec<ClauseCoverage>,
}

/// The full report.
#[derive(Debug, Clone)]
pub struct Report {
    pub specs: Vec<SpecCoverage>,
    /// Annotation defects, including unknown-clause citations; sorted
    /// by (file, line).
    pub problems: Vec<Problem>,
    /// Total citations scanned (impl, test).
    pub cited: (usize, usize),
}

impl Report {
    /// Join `registry` and `citations`. Citations naming unregistered
    /// clauses become [`ProblemKind::UnknownClause`] problems.
    pub fn build(registry: &Registry, citations: &[Citation], problems: &[Problem]) -> Report {
        let mut sites: BTreeMap<&str, (Vec<Site>, Vec<Site>)> = BTreeMap::new();
        let mut problems: Vec<Problem> = problems.to_vec();
        let mut cited = (0usize, 0usize);
        for c in citations {
            if registry.clause(&c.clause).is_none() {
                problems.push(Problem {
                    file: c.file.clone(),
                    line: c.line,
                    kind: ProblemKind::UnknownClause,
                    detail: format!("citation of `{}`: no such clause in specs/", c.clause),
                });
                continue;
            }
            let entry = sites.entry(c.clause.as_str()).or_default();
            let site = Site {
                file: c.file.clone(),
                line: c.line,
            };
            match c.kind {
                CiteKind::Impl => {
                    cited.0 += 1;
                    entry.0.push(site);
                }
                CiteKind::Test => {
                    cited.1 += 1;
                    entry.1.push(site);
                }
            }
        }
        problems.sort_by(|a, b| (&a.file, a.line, &a.detail).cmp(&(&b.file, b.line, &b.detail)));
        let specs = registry
            .specs
            .iter()
            .map(|s| SpecCoverage {
                id: s.id.clone(),
                title: s.title.clone(),
                url: s.url.clone(),
                clauses: s
                    .clauses
                    .iter()
                    .map(|c| {
                        let (mut impl_sites, mut test_sites) =
                            sites.get(c.id.as_str()).cloned().unwrap_or_default();
                        impl_sites.sort();
                        test_sites.sort();
                        ClauseCoverage {
                            id: c.id.clone(),
                            level: c.level,
                            text: c.text.clone(),
                            impl_sites,
                            test_sites,
                        }
                    })
                    .collect(),
            })
            .collect();
        Report {
            specs,
            problems,
            cited,
        }
    }

    pub fn clauses(&self) -> impl Iterator<Item = &ClauseCoverage> {
        self.specs.iter().flat_map(|s| &s.clauses)
    }

    pub fn count(&self, level: Level) -> usize {
        self.clauses().filter(|c| c.level == level).count()
    }

    pub fn count_covered(&self, level: Level) -> usize {
        self.clauses()
            .filter(|c| c.level == level && c.status() == Status::Covered)
            .count()
    }

    /// Uncovered MUST clauses (the fatal kind of gap).
    pub fn uncovered_must(&self) -> Vec<&ClauseCoverage> {
        self.clauses()
            .filter(|c| c.level == Level::Must && c.status() != Status::Covered)
            .collect()
    }

    pub fn pass(&self) -> bool {
        self.problems.is_empty() && self.uncovered_must().is_empty()
    }

    pub fn exit_code(&self) -> i32 {
        if self.pass() {
            0
        } else {
            1
        }
    }

    /// The `speccheck summary` renderer: per-spec coverage table,
    /// totals, problems, verdict.
    pub fn render_summary(&self) -> String {
        let mut out = String::from("speccheck: spec-anchored compliance coverage\n\n");
        out.push_str("  spec      clauses  MUST  covered  impl-only  test-only  uncovered\n");
        let mut tot = [0usize; 6];
        for s in &self.specs {
            let counts = [
                s.clauses.len(),
                s.clauses.iter().filter(|c| c.level == Level::Must).count(),
                count_status(s, Status::Covered),
                count_status(s, Status::ImplOnly),
                count_status(s, Status::TestOnly),
                count_status(s, Status::Uncovered),
            ];
            for (t, c) in tot.iter_mut().zip(counts) {
                *t += c;
            }
            out.push_str(&format!(
                "  {:<10}{:>6}{:>6}{:>9}{:>11}{:>11}{:>11}\n",
                s.id, counts[0], counts[1], counts[2], counts[3], counts[4], counts[5]
            ));
        }
        out.push_str(&format!(
            "  {:<10}{:>6}{:>6}{:>9}{:>11}{:>11}{:>11}\n\n",
            "total", tot[0], tot[1], tot[2], tot[3], tot[4], tot[5]
        ));
        out.push_str(&format!(
            "  citations: {} impl + {} test\n",
            self.cited.0, self.cited.1
        ));
        out.push_str(&format!(
            "  MUST coverage: {}/{}\n",
            self.count_covered(Level::Must),
            self.count(Level::Must)
        ));
        out.push_str(&format!("  problems: {}\n", self.problems.len()));
        for p in &self.problems {
            out.push_str(&format!("    {p}\n"));
        }
        if self.pass() {
            out.push_str(
                "speccheck: PASS — every MUST clause has an implementation and an enforcing test\n",
            );
        } else {
            out.push_str(&format!(
                "speccheck: FAIL — {} uncovered MUST clause(s), {} problem(s); run `speccheck uncovered`\n",
                self.uncovered_must().len(),
                self.problems.len()
            ));
        }
        out
    }

    /// The `speccheck uncovered` renderer: every clause that is not
    /// fully covered, with what is missing; MUST gaps are fatal,
    /// SHOULD/MAY gaps advisory.
    pub fn render_uncovered(&self) -> String {
        let mut out = String::from("speccheck: clauses without full impl+test coverage\n");
        let mut any = false;
        for c in self.clauses() {
            if c.status() == Status::Covered {
                continue;
            }
            any = true;
            let severity = if c.level == Level::Must {
                "FATAL"
            } else {
                "advisory"
            };
            let missing = match c.status() {
                Status::ImplOnly => "missing an enforcing test",
                Status::TestOnly => "missing an implementation citation",
                _ => "missing both implementation and test",
            };
            out.push_str(&format!(
                "  [{severity}] {} ({}) — {missing}\n    {}\n",
                c.id, c.level, c.text
            ));
        }
        if !any {
            out.push_str("  (none — every registered clause is cited from impl and tests)\n");
        }
        if !self.problems.is_empty() {
            out.push_str("speccheck: annotation problems\n");
            for p in &self.problems {
                out.push_str(&format!("  {p}\n"));
            }
        }
        out
    }

    /// The `speccheck json` renderer. Byte-stable: two runs over the
    /// same tree must produce identical bytes (CI double-runs and
    /// `cmp`s this output).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"speccheck\": {\n    \"specs\": [");
        for (i, s) in self.specs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n      {\"id\": ");
            json::string(&mut out, &s.id);
            out.push_str(", \"title\": ");
            json::string(&mut out, &s.title);
            out.push_str(", \"clauses\": [");
            for (j, c) in s.clauses.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("\n        {\"id\": ");
                json::string(&mut out, &c.id);
                out.push_str(&format!(
                    ", \"level\": \"{}\", \"status\": \"{}\", \"impl\": [",
                    c.level,
                    c.status().as_str()
                ));
                sites_json(&c.impl_sites, &mut out);
                out.push_str("], \"test\": [");
                sites_json(&c.test_sites, &mut out);
                out.push_str("]}");
            }
            if !s.clauses.is_empty() {
                out.push_str("\n      ");
            }
            out.push_str("]}");
        }
        if !self.specs.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("],\n    \"problems\": [");
        for (i, p) in self.problems.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n      {\"file\": ");
            json::string(&mut out, &p.file);
            out.push_str(&format!(
                ", \"line\": {}, \"kind\": \"{}\", \"detail\": ",
                p.line,
                p.kind.as_str()
            ));
            json::string(&mut out, &p.detail);
            out.push('}');
        }
        if !self.problems.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str(&format!(
            "],\n    \"must_total\": {},\n    \"must_covered\": {},\n    \"pass\": {}\n  }}\n}}\n",
            self.count(Level::Must),
            self.count_covered(Level::Must),
            self.pass()
        ));
        out
    }
}

fn count_status(s: &SpecCoverage, status: Status) -> usize {
    s.clauses.iter().filter(|c| c.status() == status).count()
}

fn sites_json(sites: &[Site], out: &mut String) {
    for (i, s) in sites.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"file\": ");
        json::string(out, &s.file);
        out.push_str(&format!(", \"line\": {}}}", s.line));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::parse_spec_file;

    fn registry() -> Registry {
        let mut reg = Registry::default();
        reg.specs.push(
            parse_spec_file(
                "toy.spec",
                "spec toy\ntitle Toy\nurl https://example.com\n\
                 clause toy:1:covered MUST\n  a\n\
                 clause toy:2:impl-only MUST\n  b\n\
                 clause toy:3:test-only MUST\n  c\n\
                 clause toy:4:uncovered MUST\n  d\n\
                 clause toy:5:advisory SHOULD\n  e\n",
            )
            .unwrap(),
        );
        reg
    }

    fn cite(clause: &str, kind: CiteKind, line: u32) -> Citation {
        Citation {
            file: "crates/tcp/src/x.rs".to_string(),
            line,
            clause: clause.to_string(),
            kind,
        }
    }

    #[test]
    fn statuses_and_exit_codes() {
        let reg = registry();
        let cites = vec![
            cite("toy:1:covered", CiteKind::Impl, 1),
            cite("toy:1:covered", CiteKind::Test, 2),
            cite("toy:2:impl-only", CiteKind::Impl, 3),
            cite("toy:3:test-only", CiteKind::Test, 4),
        ];
        let r = Report::build(&reg, &cites, &[]);
        let statuses: Vec<Status> = r.clauses().map(|c| c.status()).collect();
        assert_eq!(
            statuses,
            vec![
                Status::Covered,
                Status::ImplOnly,
                Status::TestOnly,
                Status::Uncovered,
                Status::Uncovered
            ]
        );
        // Three MUST gaps (the SHOULD gap is advisory) → exit 1.
        assert_eq!(r.uncovered_must().len(), 3);
        assert_eq!(r.exit_code(), 1);
        assert!(r.render_summary().contains("FAIL"));
        assert!(r.render_uncovered().contains("[advisory] toy:5:advisory"));
        assert!(r.render_uncovered().contains("[FATAL] toy:4:uncovered"));
    }

    #[test]
    fn full_coverage_passes_even_with_should_gaps() {
        let reg = registry();
        let mut cites = Vec::new();
        for (i, id) in [
            "toy:1:covered",
            "toy:2:impl-only",
            "toy:3:test-only",
            "toy:4:uncovered",
        ]
        .iter()
        .enumerate()
        {
            cites.push(cite(id, CiteKind::Impl, 2 * i as u32 + 1));
            cites.push(cite(id, CiteKind::Test, 2 * i as u32 + 2));
        }
        let r = Report::build(&reg, &cites, &[]);
        assert_eq!(r.exit_code(), 0, "SHOULD gap must not fail the build");
        assert!(r.render_summary().contains("PASS"));
        assert!(r
            .render_uncovered()
            .contains("[advisory] toy:5:advisory (SHOULD)"));
    }

    #[test]
    fn unknown_clause_citations_become_problems() {
        let reg = registry();
        let cites = vec![cite("toy:9:ghost", CiteKind::Impl, 7)];
        let r = Report::build(&reg, &cites, &[]);
        assert_eq!(r.problems.len(), 1);
        assert_eq!(r.problems[0].kind, ProblemKind::UnknownClause);
        assert_eq!(r.exit_code(), 1);
    }

    #[test]
    fn json_is_deterministic_and_carries_sites() {
        let reg = registry();
        let cites = vec![
            cite("toy:1:covered", CiteKind::Impl, 10),
            cite("toy:1:covered", CiteKind::Test, 20),
        ];
        let r = Report::build(&reg, &cites, &[]);
        let a = r.render_json();
        let b = Report::build(&reg, &cites, &[]).render_json();
        assert_eq!(a, b);
        assert!(a.contains("\"id\": \"toy:1:covered\""), "{a}");
        assert!(a.contains("\"status\": \"covered\""), "{a}");
        assert!(a.contains("\"line\": 10"), "{a}");
        assert!(a.contains("\"must_total\": 4"), "{a}");
        assert!(a.contains("\"pass\": false"), "{a}");
    }
}
