//! Git-history ingestion: every committed revision of an artifact.
//!
//! `bench-report` trends every committed revision of an artifact
//! (`bench-diff` builds a two-sample [`ArtifactHistory`] in memory
//! instead). This module shells out to the repository's own
//! `git` — `git log --reverse` to enumerate the commits that touched an
//! artifact path (oldest first, so series read left to right in time)
//! and `git show <rev>:<path>` to read each committed blob without
//! touching the working tree.
//!
//! Degradation is deliberate and graceful:
//!
//! * a **shallow clone** simply yields fewer revisions (one, on CI's
//!   default `fetch-depth: 1`) — a one-sample history is valid and
//!   reports "no trend" downstream rather than failing;
//! * an **unparseable historical revision** (a schema this reader
//!   predates, a half-committed file) is recorded in
//!   [`ArtifactHistory::skipped`] with its error and the walk
//!   continues;
//! * only *git itself* failing (not a repository, no `git` binary) is
//!   an error.

use crate::artifact::Artifact;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One commit that touched an artifact. `bench-diff` names its two
/// in-memory revisions by file path, with an empty date.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Revision {
    /// Abbreviated commit hash (`git log --format=%h`).
    pub hash: String,
    /// Author date, `YYYY-MM-DD`.
    pub date: String,
}

/// One successfully parsed historical revision of an artifact.
#[derive(Debug, Clone)]
pub struct RevisionSample {
    /// The commit this blob was read from.
    pub rev: Revision,
    /// The parsed document as of that commit.
    pub artifact: Artifact,
}

/// The committed history of one artifact path, oldest revision first.
#[derive(Debug, Clone)]
pub struct ArtifactHistory {
    /// Path of the artifact (repo-relative when read from git).
    pub path: String,
    /// Parsed revisions, oldest → newest.
    pub samples: Vec<RevisionSample>,
    /// Revisions that listed the path but failed to read or parse:
    /// `(short hash, error)`. Warned about, never fatal.
    pub skipped: Vec<(String, String)>,
}

/// Runs one git command with `repo` as the working directory. The
/// user's and system's git config are masked so output formats are
/// stable wherever the report runs.
fn git(repo: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(repo)
        .args(args)
        .env("GIT_CONFIG_GLOBAL", "/dev/null")
        .env("GIT_CONFIG_SYSTEM", "/dev/null")
        .output()
        .map_err(|e| format!("running git: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "git {}: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The repository root containing `dir` (`git rev-parse --show-toplevel`).
pub fn repo_root(dir: &Path) -> Result<PathBuf, String> {
    let out = git(dir, &["rev-parse", "--show-toplevel"])?;
    Ok(PathBuf::from(out.trim()))
}

/// Renders `path` relative to the repository root — the spelling
/// `git show <rev>:<path>` requires. Absolute paths are stripped of
/// the root prefix; relative paths are taken as already repo-relative.
pub fn rel_to_repo(repo: &Path, path: &Path) -> Result<String, String> {
    let rel = if path.is_absolute() {
        path.strip_prefix(repo)
            .map_err(|_| format!("{} is outside the repository {}", path.display(), repo.display()))?
    } else {
        path
    };
    rel.to_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{} is not valid UTF-8", rel.display()))
}

/// Commits that touched `path`, oldest first. A path git has never
/// seen yields an empty list, not an error.
pub fn revisions(repo: &Path, path: &str) -> Result<Vec<Revision>, String> {
    let out = git(
        repo,
        &["log", "--reverse", "--format=%h %ad", "--date=short", "--", path],
    )?;
    Ok(out
        .lines()
        .filter_map(|line| {
            let (hash, date) = line.split_once(' ')?;
            Some(Revision { hash: hash.to_string(), date: date.to_string() })
        })
        .collect())
}

/// The blob content of `path` at `rev` (`git show <rev>:<path>`).
pub fn show(repo: &Path, rev: &str, path: &str) -> Result<String, String> {
    git(repo, &["show", &format!("{rev}:{path}")])
}

/// Walks the full committed history of one artifact: enumerate
/// revisions, read and parse each blob. Unreadable or unparseable
/// revisions land in [`ArtifactHistory::skipped`]; only git failures
/// propagate as errors.
pub fn load_history(repo: &Path, path: &str) -> Result<ArtifactHistory, String> {
    let mut samples = Vec::new();
    let mut skipped = Vec::new();
    for rev in revisions(repo, path)? {
        match show(repo, &rev.hash, path)
            .and_then(|text| Artifact::parse(&text, &format!("{}:{}", rev.hash, path)))
        {
            Ok(artifact) => samples.push(RevisionSample { rev, artifact }),
            Err(e) => skipped.push((rev.hash, e)),
        }
    }
    Ok(ArtifactHistory { path: path.to_string(), samples, skipped })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a throwaway git repo and commits `versions` of one file,
    /// returning the repo path.
    fn temp_repo(name: &str, versions: &[&str]) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("bench-history-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let run = |args: &[&str]| {
            let out = Command::new("git")
                .arg("-C")
                .arg(&dir)
                .args(args)
                .env("GIT_CONFIG_GLOBAL", "/dev/null")
                .env("GIT_CONFIG_SYSTEM", "/dev/null")
                .env("GIT_AUTHOR_NAME", "t")
                .env("GIT_AUTHOR_EMAIL", "t@t")
                .env("GIT_COMMITTER_NAME", "t")
                .env("GIT_COMMITTER_EMAIL", "t@t")
                .output()
                .unwrap();
            assert!(out.status.success(), "git {args:?}: {:?}", out);
        };
        run(&["init", "-q", "-b", "main"]);
        for (i, body) in versions.iter().enumerate() {
            std::fs::write(dir.join("BENCH_test.json"), body).unwrap();
            run(&["add", "BENCH_test.json"]);
            run(&["commit", "-q", "-m", &format!("rev {i}")]);
        }
        dir
    }

    fn grid_doc(awake: u32) -> String {
        format!(
            "{{\"schema\":\"awake-mis/bench-grid/v3\",\"spec\":{{}},\"cells\":[],\
             \"points\":[{{\"algorithm\":\"luby\",\"family\":\"er\",\"n\":64,\"seed\":1,\
             \"rounds\":10,\"awake_max\":{awake},\"awake_avg\":3.5,\"max_message_bits\":21,\
             \"correct\":true,\"failures\":0}}]}}"
        )
    }

    #[test]
    fn history_walks_commits_oldest_first_and_skips_garbage() {
        let docs = [grid_doc(8), "{ not json at all".to_string(), grid_doc(9)];
        let repo = temp_repo("walk", &docs.iter().map(String::as_str).collect::<Vec<_>>());
        let h = load_history(&repo, "BENCH_test.json").unwrap();
        assert_eq!(h.samples.len(), 2, "two parseable revisions");
        assert_eq!(h.skipped.len(), 1, "the garbage revision is skipped, not fatal");
        // Oldest first: the awake_max values appear in commit order.
        let awakes: Vec<f64> = h
            .samples
            .iter()
            .map(|s| s.artifact.series_cells()[0].measures[0].value)
            .collect();
        assert_eq!(awakes, [8.0, 9.0]);
        // Revisions carry a short hash and an ISO date.
        for s in &h.samples {
            assert!(s.rev.hash.len() >= 6, "{:?}", s.rev);
            assert_eq!(s.rev.date.len(), 10, "{:?}", s.rev);
        }
        let _ = std::fs::remove_dir_all(&repo);
    }

    #[test]
    fn a_single_revision_history_is_valid_and_an_unknown_path_is_empty() {
        let one = [grid_doc(8)];
        let repo = temp_repo("single", &one.iter().map(String::as_str).collect::<Vec<_>>());
        let h = load_history(&repo, "BENCH_test.json").unwrap();
        assert_eq!(h.samples.len(), 1);
        let none = load_history(&repo, "BENCH_never_committed.json").unwrap();
        assert!(none.samples.is_empty() && none.skipped.is_empty());
        // Outside a repository, git itself fails: that IS an error.
        assert!(load_history(Path::new("/"), "BENCH_test.json").is_err());
        let _ = std::fs::remove_dir_all(&repo);
    }

    #[test]
    fn rel_to_repo_strips_the_root_prefix() {
        let repo = Path::new("/r/epo");
        assert_eq!(rel_to_repo(repo, Path::new("/r/epo/BENCH_grid.json")).unwrap(), "BENCH_grid.json");
        assert_eq!(rel_to_repo(repo, Path::new("BENCH_grid.json")).unwrap(), "BENCH_grid.json");
        assert!(rel_to_repo(repo, Path::new("/elsewhere/x.json")).is_err());
    }
}
