//! Documentation consistency: the tests, examples, binaries, check
//! stages and ledger runs the documentation points at actually exist, so
//! EXPERIMENTS.md's "regenerate" lines and the commands the other docs
//! show never rot, and EXPERIMENTS.md's ledger tables print the committed
//! baseline's counters.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use dl_obs::BenchFile;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Names declared by `[[table]]` entries (e.g. `[[bin]]`) in a manifest.
fn declared_names(manifest: &str, table: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut in_table = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_table = line == table;
        } else if let Some(name) = line.strip_prefix("name = \"") {
            if in_table {
                names.push(name.trim_end_matches('"').to_string());
            }
        }
    }
    names
}

/// Every workspace manifest: the root package's and each crate's.
fn manifests() -> Vec<String> {
    let mut out = vec![fs::read_to_string(repo_root().join("Cargo.toml")).unwrap()];
    for entry in fs::read_dir(repo_root().join("crates")).unwrap() {
        let path = entry.unwrap().path().join("Cargo.toml");
        if path.exists() {
            out.push(fs::read_to_string(path).unwrap());
        }
    }
    out
}

/// `true` if `name.rs` is a test file of the root package or any crate.
fn test_file_exists(name: &str) -> bool {
    let file = format!("{name}.rs");
    repo_root().join("tests").join(&file).exists()
        || fs::read_dir(repo_root().join("crates"))
            .unwrap()
            .any(|e| e.unwrap().path().join("tests").join(&file).exists())
}

/// `true` if `name` is a registered binary: declared by a `[[bin]]` entry
/// or auto-discovered from a crate's `src/bin/`.
fn bin_exists(name: &str) -> bool {
    manifests()
        .iter()
        .any(|m| declared_names(m, "[[bin]]").iter().any(|n| n == name))
        || fs::read_dir(repo_root().join("crates")).unwrap().any(|e| {
            e.unwrap()
                .path()
                .join(format!("src/bin/{name}.rs"))
                .exists()
        })
}

/// `check.sh`'s stage names, from its `STAGES=(...)` line.
fn check_stages() -> Vec<String> {
    let script = fs::read_to_string(repo_root().join("scripts/check.sh")).unwrap();
    let line = script
        .lines()
        .find_map(|l| l.strip_prefix("STAGES=("))
        .expect("check.sh declares STAGES");
    line.trim_end_matches(')')
        .split_whitespace()
        .map(String::from)
        .collect()
}

/// The committed bench baseline.
fn committed_baseline() -> BenchFile {
    let text = fs::read_to_string(repo_root().join("bench/baseline.json")).unwrap();
    BenchFile::from_json(&text).unwrap()
}

/// Resolves every `--test X`, `--example X`, `--bin X` and `--stage X`
/// in `text` (a flag followed by whitespace, a line break included):
/// `--test` to a test file, `--example` / `--bin` to a registered
/// target, `--stage` to a `scripts/check.sh` stage. Returns how many
/// `text` holds, or the line (counted from 1 in `text`) of the first
/// that does not resolve, with a message naming it.
fn resolve_targets(text: &str) -> Result<usize, (usize, String)> {
    let examples: Vec<String> = manifests()
        .iter()
        .flat_map(|m| declared_names(m, "[[example]]"))
        .collect();
    let stages = check_stages();
    let mut uses = Vec::new();
    for flag in ["--test", "--example", "--bin", "--stage"] {
        for (idx, _) in text.match_indices(flag) {
            let rest = &text[idx + flag.len()..];
            if !rest.starts_with(char::is_whitespace) {
                continue;
            }
            let rest = rest.trim_start();
            let end = rest
                .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == '-'))
                .unwrap_or(rest.len());
            uses.push((idx, flag, &rest[..end]));
        }
    }
    uses.sort_unstable();
    for &(idx, flag, name) in &uses {
        let resolves = match flag {
            "--test" => test_file_exists(name),
            "--example" => examples.iter().any(|e| e == name),
            "--bin" => bin_exists(name),
            _ => stages.iter().any(|s| s == name),
        };
        if !resolves {
            let line = 1 + text[..idx].matches('\n').count();
            return Err((line, format!("`{flag} {name}` names no such target")));
        }
    }
    Ok(uses.len())
}

/// `true` if `s` is a ledger engine or run id: lowercase ASCII words.
fn ledger_word(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Checks the `### engine/run` ledger tables of `text` (EXPERIMENTS.md)
/// against `baseline`. A row whose first metric is a counter of its run
/// must print every counter it names, exactly; any other row must name a
/// gauge, a histogram or a `span:` of that run. A row may name several
/// metrics as `a / b / c` with values `1 / 2 / 3`, where a name that is
/// not a counter itself replaces the last `_` part of the first name
/// (`data_pkts_abp_lossless / every4`). A three-column table names each
/// row's run in its first column. Returns the counter rows checked per
/// run, or `EXPERIMENTS.md:LINE: reason` for the first row that
/// disagrees.
fn check_ledger_tables(
    text: &str,
    baseline: &BenchFile,
) -> Result<BTreeMap<(String, String), usize>, String> {
    let mut counted = BTreeMap::new();
    let mut heading = None;
    for (idx, line) in text.lines().enumerate() {
        let fail = |reason: String| format!("EXPERIMENTS.md:{}: {reason}", idx + 1);
        if line.starts_with('#') {
            heading = line
                .strip_prefix("### ")
                .and_then(|h| h.split_whitespace().next())
                .and_then(|span| span.split_once('/'))
                .filter(|(engine, run)| ledger_word(engine) && ledger_word(run));
            continue;
        }
        let (Some((engine, heading_run)), Some(row)) = (heading, line.strip_prefix('|')) else {
            continue;
        };
        let mut cells: Vec<&str> = row
            .trim_end()
            .trim_end_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        if matches!(cells[0], "metric" | "run") || cells[0].starts_with("---") {
            continue;
        }
        let run_id = if cells.len() == 3 {
            cells.remove(0)
        } else {
            heading_run
        };
        let run = baseline
            .find(engine, run_id)
            .ok_or_else(|| fail(format!("`{engine}/{run_id}` is not in bench/baseline.json")))?;
        let [names, values] = cells[..] else {
            return Err(fail("a ledger row has a metric and a value".into()));
        };
        let names: Vec<&str> = names.split(" / ").collect();
        let first = names[0];
        if !run.counters.contains_key(first) {
            let known = run.gauges.contains_key(first)
                || run.histograms.contains_key(first)
                || first
                    .strip_prefix("span:")
                    .is_some_and(|span| run.spans.contains_key(span));
            if known {
                continue;
            }
            return Err(fail(format!(
                "`{first}` is no counter, gauge, histogram or span of {engine}/{run_id}"
            )));
        }
        let values: Vec<&str> = values.split(" / ").collect();
        if values.len() != names.len() {
            return Err(fail(format!(
                "{} metrics but {} values",
                names.len(),
                values.len()
            )));
        }
        let stem = first.rfind('_').map_or("", |i| &first[..=i]);
        for (name, value) in names.into_iter().zip(values) {
            let name = if run.counters.contains_key(name) {
                name.to_string()
            } else {
                format!("{stem}{name}")
            };
            let Some(&expected) = run.counters.get(&name) else {
                return Err(fail(format!("`{name}` is no counter of {engine}/{run_id}")));
            };
            if value.parse::<u64>() != Ok(expected) {
                return Err(fail(format!(
                    "{engine}/{run_id} `{name}` reads `{value}`, bench/baseline.json has {expected}"
                )));
            }
        }
        *counted
            .entry((engine.to_string(), run_id.to_string()))
            .or_insert(0) += 1;
    }
    Ok(counted)
}

/// Every counter that EXPERIMENTS.md's ledger tables print equals
/// `bench/baseline.json`, and every baseline run has counter rows there.
#[test]
fn experiments_ledger_tables_match_the_baseline() {
    let text = fs::read_to_string(repo_root().join("EXPERIMENTS.md")).unwrap();
    let baseline = committed_baseline();
    let counted = check_ledger_tables(&text, &baseline).unwrap_or_else(|reason| panic!("{reason}"));
    for run in &baseline.runs {
        assert!(
            counted.contains_key(&(run.engine.clone(), run.run_id.clone())),
            "EXPERIMENTS.md has no ledger table rows for {}/{}",
            run.engine,
            run.run_id
        );
    }
}

/// A wrong cell in a ledger table fails with its file and line.
#[test]
fn a_wrong_ledger_cell_fails_with_its_line() {
    let text = fs::read_to_string(repo_root().join("EXPERIMENTS.md")).unwrap();
    let baseline = committed_baseline();
    let row = "| states | 1178 |";
    let line = 1 + text
        .lines()
        .position(|l| l == row)
        .expect("the explore/e9 states row");
    let seeded = text.replacen(row, "| states | 1179 |", 1);
    let reason = check_ledger_tables(&seeded, &baseline).expect_err("a wrong E9 cell must fail");
    assert!(
        reason.starts_with(&format!("EXPERIMENTS.md:{line}: explore/e9 `states`")),
        "{reason}"
    );
}

/// Every measurement is a ledger run that `bench/baseline.json` gates: no
/// crate keeps a `benches/` directory, no manifest declares a `[[bench]]`
/// target or depends on criterion, and no script runs `cargo bench`.
#[test]
fn all_bench_files_are_registered() {
    let mut dirs = vec![repo_root().to_path_buf()];
    for entry in fs::read_dir(repo_root().join("crates")).unwrap() {
        dirs.push(entry.unwrap().path());
    }
    for dir in &dirs {
        assert!(
            !dir.join("benches").exists(),
            "{} has a benches/ directory outside the ledger",
            dir.display()
        );
    }
    for manifest in manifests() {
        assert!(
            !manifest.contains("[[bench]]"),
            "a manifest declares a [[bench]] target outside the ledger"
        );
        assert!(
            !manifest.contains("criterion"),
            "a manifest depends on criterion"
        );
    }
    for entry in fs::read_dir(repo_root().join("scripts")).unwrap() {
        let path = entry.unwrap().path();
        let script = fs::read_to_string(&path).unwrap();
        assert!(
            !script.contains("cargo bench"),
            "{} runs `cargo bench`",
            path.display()
        );
    }
}

/// Every EXPERIMENTS.md `**Regenerate.**` paragraph names at least one
/// target, and every target resolves: `--test X` to a test file,
/// `--example X` / `--bin X` to a registered target, `--stage X` to a
/// `scripts/check.sh` stage, and a `engine/run_id` code span to an entry
/// of `bench/baseline.json`.
#[test]
fn experiments_bench_targets_exist() {
    let text = fs::read_to_string(repo_root().join("EXPERIMENTS.md")).unwrap();
    assert!(
        !text.contains("cargo bench"),
        "EXPERIMENTS.md points at `cargo bench`, which runs nothing here"
    );
    let baseline = committed_baseline();

    let lines: Vec<&str> = text.lines().collect();
    let mut paragraphs = 0;
    for (start, line) in lines.iter().enumerate() {
        if !line.starts_with("**Regenerate.**") {
            continue;
        }
        paragraphs += 1;
        let para = lines[start..]
            .iter()
            .take_while(|l| !l.trim().is_empty())
            .copied()
            .collect::<Vec<_>>()
            .join("\n");
        let mut targets = resolve_targets(&para)
            .unwrap_or_else(|(line, reason)| panic!("EXPERIMENTS.md:{}: {reason}", start + line));
        // Ledger entries: code spans of the form `engine/run_id`.
        for span in para.split('`').skip(1).step_by(2) {
            let mut parts = span.split('/');
            let (Some(engine), Some(run_id), None) = (parts.next(), parts.next(), parts.next())
            else {
                continue;
            };
            if ledger_word(engine) && ledger_word(run_id) {
                assert!(
                    baseline.find(engine, run_id).is_some(),
                    "line {}: `{span}` is not in bench/baseline.json",
                    start + 1
                );
                targets += 1;
            }
        }
        assert!(
            targets > 0,
            "line {}: Regenerate names no test, example, binary, stage or ledger run",
            start + 1
        );
    }
    let experiments = lines.iter().filter(|l| l.starts_with("## E")).count();
    assert!(
        paragraphs >= experiments,
        "{paragraphs} Regenerate paragraphs for {experiments} experiments"
    );
}

/// Every `--test X`, `--example X`, `--bin X` and `--stage X` that
/// README.md, DESIGN.md, PAPER_MAP.md and the verify skill show
/// resolves, so a command they print runs.
#[test]
fn doc_commands_resolve() {
    let mut found = 0;
    for doc in [
        "README.md",
        "DESIGN.md",
        "PAPER_MAP.md",
        ".claude/skills/verify/SKILL.md",
    ] {
        let text = fs::read_to_string(repo_root().join(doc)).unwrap();
        found += resolve_targets(&text)
            .unwrap_or_else(|(line, reason)| panic!("{doc}:{line}: {reason}"));
    }
    assert!(found > 0, "the docs name no test, example, binary or stage");
}

#[test]
fn readme_examples_exist_and_are_registered() {
    let readme = fs::read_to_string(repo_root().join("README.md")).unwrap();
    let manifest = fs::read_to_string(repo_root().join("Cargo.toml")).unwrap();
    let mut seen = 0;
    for line in readme.lines() {
        if let Some(idx) = line.find("--example ") {
            let rest = &line[idx + "--example ".len()..];
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            assert!(
                repo_root().join(format!("examples/{name}.rs")).exists(),
                "README references missing example {name}"
            );
            assert!(
                manifest.contains(&format!("name = \"{name}\"")),
                "example {name} not registered in Cargo.toml"
            );
            seen += 1;
        }
    }
    assert!(
        seen >= 5,
        "README should showcase at least five examples, found {seen}"
    );
}

#[test]
fn design_lists_every_protocol_module() {
    let design = fs::read_to_string(repo_root().join("DESIGN.md")).unwrap();
    for entry in fs::read_dir(repo_root().join("crates/protocols/src")).unwrap() {
        let file = entry.unwrap().file_name();
        let name = file.to_string_lossy();
        let stem = name.trim_end_matches(".rs");
        if stem == "lib" {
            continue;
        }
        assert!(
            design.contains(stem) || design.contains(&stem.replace('_', "-")),
            "DESIGN.md does not mention protocol module {stem}"
        );
    }
}
