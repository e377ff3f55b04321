//! Documentation consistency: the tests, examples, binaries, check
//! stages and ledger runs the documentation points at actually exist, so
//! EXPERIMENTS.md's "regenerate" lines and the commands the other docs
//! show never rot, and EXPERIMENTS.md's ledger tables print the committed
//! baseline's counters.

use std::collections::{BTreeMap, BTreeSet};
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

/// What a backticked `a::b` path in the docs may name, read from the
/// workspace's sources by indentation (they are `rustfmt`ed): every
/// crate, module, item and member, and every test function.
#[derive(Default)]
struct Names {
    /// The spellings the docs use for a crate (`dl_core`, `dl-core`,
    /// `core`) → its identifier.
    crates: BTreeMap<String, String>,
    /// `(crate, module path)` → the names the module declares or
    /// re-exports.
    modules: BTreeMap<(String, Vec<String>), BTreeSet<String>>,
    /// Type, trait and enum names → their methods, associated items,
    /// fields and variants (same-named types merged).
    types: BTreeMap<String, BTreeSet<String>>,
    /// Test and example file stems → every function the file declares.
    test_files: BTreeMap<String, BTreeSet<String>>,
}

/// First segments of the `std` paths the docs may name.
const STD_ROOTS: &[&str] = &[
    "std", "thread", "mem", "ptr", "iter", "ops", "fmt", "hash", "sync", "cmp", "u8", "u16", "u32",
    "u64", "u128", "usize", "i32", "i64", "f64", "Vec", "Box", "Arc", "Option", "Result", "String",
    "HashMap", "BTreeMap", "BTreeSet", "VecDeque",
];

/// A scope of the indentation walk in [`Names::index_file`]. A module's
/// path starts with its crate.
enum Scope {
    Module(Vec<String>),
    Type(String),
    /// A function or macro body: nothing in it is addressable.
    Opaque,
}

/// Every `.rs` file under `dir`, recursively.
fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The identifier `s` starts with.
fn ident(s: &str) -> &str {
    let end = s
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    &s[..end]
}

/// `s` without its balanced `<…>` groups (an `->` arrow is kept).
fn without_generics(s: &str) -> String {
    let mut depth = 0usize;
    let mut out = String::new();
    let mut prev = ' ';
    for c in s.chars() {
        match c {
            '<' => depth += 1,
            '>' if depth > 0 && prev != '-' => depth -= 1,
            _ if depth == 0 => out.push(c),
            _ => {}
        }
        prev = c;
    }
    out
}

/// `item` without its visibility (`pub`, `pub(crate)`, …).
fn strip_visibility(item: &str) -> &str {
    match item.strip_prefix("pub") {
        Some(rest) if rest.starts_with('(') => rest.find(") ").map_or(rest, |i| &rest[i + 2..]),
        Some(rest) if rest.starts_with(' ') => rest.trim_start(),
        _ => item,
    }
}

/// The name a `fn`, `type`, `const` or `static` line declares, and
/// whether it opens a body.
fn declared(item: &str) -> Option<(&str, bool)> {
    let item = strip_visibility(item);
    let item = ["const ", "unsafe ", "async "]
        .iter()
        .fold(item, |i, q| match i.strip_prefix(q) {
            Some(rest) if rest.starts_with("fn ") => rest,
            _ => i,
        });
    if let Some(rest) = item.strip_prefix("fn ") {
        return Some((ident(rest), true));
    }
    ["type ", "const ", "static "]
        .iter()
        .find_map(|k| item.strip_prefix(k))
        .map(|rest| (ident(rest), false))
}

/// [`declared`], plus the fields and variants a type's body lists.
fn member(item: &str) -> Option<(&str, bool)> {
    declared(item).or_else(|| {
        let item = strip_visibility(item);
        let name = ident(item);
        let after = &item[name.len()..];
        let field = !name.is_empty() && after.starts_with(':') && !after.starts_with("::");
        let variant = name.starts_with(char::is_uppercase)
            && (after.is_empty() || after.starts_with([',', '(', ' ']));
        (field || variant).then_some((name, after.ends_with('{')))
    })
}

impl Names {
    /// Indexes every source, test and example file of the workspace;
    /// `edit` may rewrite a file's text first (a test seeds a rename
    /// through it).
    fn of_workspace(edit: impl Fn(&Path, String) -> String) -> Names {
        let mut names = Names::default();
        let mut roots = vec![("datalink".to_string(), repo_root().to_path_buf())];
        for entry in fs::read_dir(repo_root().join("crates")).unwrap() {
            let dir = entry.unwrap().path();
            let manifest = fs::read_to_string(dir.join("Cargo.toml")).unwrap();
            let package = declared_names(&manifest, "[package]").remove(0);
            let krate = package.replace('-', "_");
            let short = dir.file_name().unwrap().to_string_lossy().to_string();
            for alias in [package, short] {
                names.crates.insert(alias, krate.clone());
            }
            roots.push((krate, dir));
        }
        for (krate, dir) in roots {
            names.crates.insert(krate.clone(), krate.clone());
            let mut files = Vec::new();
            for sub in ["src", "tests", "examples"] {
                collect_rs(&dir.join(sub), &mut files);
            }
            for file in files {
                let text = edit(&file, fs::read_to_string(&file).unwrap());
                let parts: Vec<String> = file
                    .strip_prefix(&dir)
                    .unwrap()
                    .iter()
                    .map(|p| p.to_string_lossy().trim_end_matches(".rs").to_string())
                    .collect();
                if parts[0] != "src" {
                    let fns = text
                        .lines()
                        .filter_map(|l| declared(l.trim_start()))
                        .map(|(name, _)| name.to_string())
                        .collect();
                    names.test_files.insert(parts[parts.len() - 1].clone(), fns);
                    continue;
                }
                let mut module = parts[1..].to_vec();
                if matches!(
                    module.last().map(String::as_str),
                    Some("lib" | "main" | "mod")
                ) {
                    module.pop();
                }
                names.index_file(&krate, module, &text);
            }
        }
        names
    }

    /// Indexes one source file, module `module` of crate `krate`.
    fn index_file(&mut self, krate: &str, module: Vec<String>, text: &str) {
        let mut root = vec![krate.to_string()];
        root.extend(module);
        self.module_names(&root);
        let mut stack: Vec<(isize, Scope)> = vec![(-4, Scope::Module(root))];
        // An item header whose `{` is still to come, at its indent.
        let mut pending: Option<(isize, Scope)> = None;
        // A `pub use` over several lines, collected up to its `;`.
        let mut uses: Option<String> = None;
        for line in text.lines() {
            let item = line.trim_start();
            if item.is_empty() || item.starts_with("//") || item.starts_with('#') {
                continue;
            }
            let indent = (line.len() - item.len()) as isize;
            if let Some(statement) = &mut uses {
                statement.push_str(item);
                if item.ends_with(';') {
                    let statement = uses.take().unwrap();
                    self.reexport(&stack, &statement);
                }
                continue;
            }
            if let Some((at, _)) = &pending {
                if indent > *at {
                    continue;
                }
                if item.ends_with('{') {
                    stack.push(pending.take().unwrap());
                    continue;
                }
                if item.ends_with(';') {
                    pending = None;
                    continue;
                }
            }
            while stack.last().unwrap().0 >= indent {
                stack.pop();
            }
            let (top_indent, top) = stack.last().unwrap();
            if indent != top_indent + 4 {
                continue;
            }
            let scope = match top {
                Scope::Opaque => continue,
                Scope::Module(path) if item.starts_with("pub use ") => {
                    if item.ends_with(';') {
                        self.reexport(&stack, item);
                    } else {
                        uses = Some(item.to_string());
                    }
                    continue;
                }
                // A macro invocation (`proptest! { … }`) holds module items.
                Scope::Module(path) if item.ends_with("! {") => Some(Scope::Module(path.clone())),
                Scope::Module(path) => {
                    let path = path.clone();
                    self.module_item(path, item)
                }
                Scope::Type(ty) => {
                    let ty = ty.clone();
                    member(item).and_then(|(name, body)| {
                        self.types.entry(ty).or_default().insert(name.to_string());
                        body.then_some(Scope::Opaque)
                    })
                }
            };
            if let Some(scope) = scope {
                if item.ends_with('{') {
                    stack.push((indent, scope));
                } else if !item.ends_with([';', ',', '}']) {
                    pending = Some((indent, scope));
                }
            }
        }
    }

    /// The names module `path` (crate first) declares.
    fn module_names(&mut self, path: &[String]) -> &mut BTreeSet<String> {
        let (krate, module) = path.split_first().unwrap();
        self.modules
            .entry((krate.clone(), module.to_vec()))
            .or_default()
    }

    /// Records a module-level item; returns the scope its body opens.
    fn module_item(&mut self, path: Vec<String>, item: &str) -> Option<Scope> {
        let item = strip_visibility(item);
        if let Some(rest) = item.strip_prefix("impl") {
            let header = without_generics(rest);
            let header = header.split(" where").next().unwrap();
            let ty = header.rsplit(" for ").next().unwrap();
            let ty = ty.trim().trim_start_matches(['&', '{']).trim();
            return Some(Scope::Type(
                ident(ty.rsplit("::").next().unwrap()).to_string(),
            ));
        }
        if let Some(rest) = item.strip_prefix("macro_rules! ") {
            // `#[macro_export]` puts it at the crate root.
            self.module_names(&path[..1])
                .insert(ident(rest).to_string());
            return Some(Scope::Opaque);
        }
        for keyword in ["mod ", "struct ", "enum ", "trait ", "union "] {
            if let Some(rest) = item.strip_prefix(keyword) {
                let name = ident(rest).to_string();
                self.module_names(&path).insert(name.clone());
                if keyword == "mod " {
                    let mut inner = path;
                    inner.push(name);
                    self.module_names(&inner);
                    return Some(Scope::Module(inner));
                }
                self.types.entry(name.clone()).or_default();
                return Some(Scope::Type(name));
            }
        }
        let (name, body) = declared(item)?;
        self.module_names(&path).insert(name.to_string());
        body.then_some(Scope::Opaque)
    }

    /// Records the names a `pub use` statement re-exports into the
    /// innermost module of `stack`.
    fn reexport(&mut self, stack: &[(isize, Scope)], statement: &str) {
        let Some(path) = stack.iter().rev().find_map(|(_, s)| match s {
            Scope::Module(path) => Some(path.clone()),
            _ => None,
        }) else {
            return;
        };
        let body = statement
            .trim_start_matches("pub use ")
            .trim_end_matches(';');
        let exported = self.module_names(&path);
        for group in body.split([',', '{', '}']) {
            let last = group.split([':', ' ']).rfind(|w| !w.is_empty());
            if let Some(name) = last.filter(|n| !matches!(*n, "self" | "*")) {
                exported.insert(name.to_string());
            }
        }
    }

    /// `true` if `segments` (the last may end in `*`, a prefix) name a
    /// workspace crate, module, item or member, a test of a test file, or
    /// start like a `std` path.
    fn resolves(&self, segments: &[String]) -> bool {
        let (first, rest) = segments.split_first().unwrap();
        let stem = first.rsplit('/').next().unwrap().trim_end_matches(".rs");
        if let (Some(fns), [name]) = (self.test_files.get(stem), rest) {
            if names_match(fns, name) {
                return true;
            }
        }
        if STD_ROOTS.contains(&first.as_str()) {
            return true;
        }
        let mut starts = Vec::new();
        if let Some(krate) = self.crates.get(first) {
            starts.push(Scope::Module(vec![krate.clone()]));
        }
        for (krate, path) in self.modules.keys() {
            if path.last() == Some(first) {
                let mut full = vec![krate.clone()];
                full.extend(path.iter().cloned());
                starts.push(Scope::Module(full));
            }
        }
        if self.types.contains_key(first) {
            starts.push(Scope::Type(first.clone()));
        }
        starts.into_iter().any(|scope| self.walk(scope, rest))
    }

    /// Whether `rest` names something inside `scope`.
    fn walk(&self, scope: Scope, rest: &[String]) -> bool {
        let Some((next, rest)) = rest.split_first() else {
            return true;
        };
        match scope {
            Scope::Module(path) => {
                let (krate, module) = path.split_first().unwrap();
                let mut child = path.clone();
                child.push(next.clone());
                if self
                    .modules
                    .contains_key(&(krate.clone(), child[1..].to_vec()))
                {
                    return self.walk(Scope::Module(child), rest);
                }
                let declared = &self.modules[&(krate.clone(), module.to_vec())];
                names_match(declared, next)
                    && (rest.is_empty()
                        || self.types.contains_key(next)
                            && self.walk(Scope::Type(next.clone()), rest))
            }
            Scope::Type(ty) => rest.is_empty() && names_match(&self.types[&ty], next),
            Scope::Opaque => false,
        }
    }
}

/// `true` if `set` holds `name`, or a name it prefixes when it ends in
/// `*`.
fn names_match(set: &BTreeSet<String>, name: &str) -> bool {
    match name.strip_suffix('*') {
        Some(prefix) => set.iter().any(|n| n.starts_with(prefix)),
        None => set.contains(name),
    }
}

/// The paths a code span names when it starts with one: `a::{b, c}_d`
/// expands to `a::b_d` and `a::c_d`, a range `a::b1..b5` to its two ends,
/// and whatever follows the path (`()`, arguments, `: Hash`) is dropped.
fn span_paths(span: &str) -> Vec<Vec<String>> {
    let span = without_generics(span);
    let first = span.find("::").map_or("", |i| &span[..i]);
    if first.is_empty()
        || !first
            .chars()
            .all(|c| c.is_alphanumeric() || "_-/.".contains(c))
    {
        return Vec::new();
    }
    let mut end = 0;
    let mut depth = 0;
    for (i, c) in span.char_indices() {
        let path_char = c.is_alphanumeric() || "_-/.*:".contains(c);
        match c {
            '{' => depth += 1,
            '}' if depth > 0 => depth -= 1,
            _ if depth > 0 || path_char => {}
            _ => break,
        }
        end = i + c.len_utf8();
    }
    let mut paths = vec![span[..end].trim_end_matches([':', '.']).to_string()];
    while let Some(i) = paths.iter().position(|p| p.contains('{')) {
        let p = paths.remove(i);
        let open = p.find('{').unwrap();
        let close = open + p[open..].find('}').unwrap_or(p.len() - open - 1);
        let (before, after) = (&p[..open], p.get(close + 1..).unwrap_or(""));
        for alt in p[open + 1..close].split(',') {
            paths.push(format!("{before}{}{after}", alt.trim()));
        }
    }
    paths
        .iter()
        .flat_map(|p| match p.rsplit_once("::") {
            Some((base, last)) if last.contains("..") => last
                .split("..")
                .map(|end| format!("{base}::{end}"))
                .collect(),
            _ => vec![p.clone()],
        })
        .map(|p| p.split("::").map(String::from).collect())
        .collect()
}

/// Checks every backticked path of `text` (a doc named `doc`) outside
/// code blocks against `names`. Returns how many spans named a path, or
/// `doc:LINE: reason` for the first that names nothing.
fn check_doc_paths(doc: &str, text: &str, names: &Names) -> Result<usize, String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        }
        if !fenced && !line.trim_start().starts_with("```") {
            prose.push_str(line);
        }
        prose.push('\n');
    }
    let mut checked = 0;
    let mut rest = prose.as_str();
    while let Some(open) = rest.find('`') {
        let ticks = rest[open..].len() - rest[open..].trim_start_matches('`').len();
        let body = &rest[open + ticks..];
        let Some(close) = body.find(&"`".repeat(ticks)) else {
            break;
        };
        let span = body[..close].replace('\n', " ");
        let paths = span_paths(span.trim());
        if let Some(bad) = paths.iter().find(|p| !names.resolves(p)) {
            let line = 1 + prose[..prose.len() - rest.len() + open]
                .matches('\n')
                .count();
            return Err(format!(
                "{doc}:{line}: `{}` names nothing in the workspace (no `{}`)",
                span.trim(),
                bad.join("::")
            ));
        }
        checked += usize::from(!paths.is_empty());
        rest = &body[close + ticks..];
    }
    Ok(checked)
}

/// Every backticked `a::b` path in DESIGN.md, README.md and PAPER_MAP.md
/// names a workspace crate, module, item or member, a `std` item, or a
/// `test_file::test_name`, so a rename cannot leave the docs naming
/// nothing.
#[test]
fn doc_paths_resolve() {
    let names = Names::of_workspace(|_, text| text);
    let mut checked = 0;
    for doc in ["DESIGN.md", "README.md", "PAPER_MAP.md"] {
        let text = fs::read_to_string(repo_root().join(doc)).unwrap();
        checked += check_doc_paths(doc, &text, &names).unwrap_or_else(|reason| panic!("{reason}"));
    }
    assert!(checked > 150, "only {checked} backticked paths found");
}

/// A seeded rename of a method DESIGN.md names fails with its line.
#[test]
fn a_renamed_function_fails_with_its_line() {
    let design = fs::read_to_string(repo_root().join("DESIGN.md")).unwrap();
    let names = Names::of_workspace(|file, text| {
        if file.ends_with("crates/sim/src/runner.rs") {
            text.replace("pub fn step(&mut self)", "pub fn step_once(&mut self)")
        } else {
            text
        }
    });
    let line = 1 + design[..design.find("`SessionStep::step`").unwrap()]
        .matches('\n')
        .count();
    let reason = check_doc_paths("DESIGN.md", &design, &names)
        .expect_err("a renamed SessionStep::step must fail");
    assert!(
        reason.starts_with(&format!("DESIGN.md:{line}: `SessionStep::step`")),
        "{reason}"
    );
}
