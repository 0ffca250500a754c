"""Runner policy: discovery, baselines, allowances, output stability."""

import json
from pathlib import Path

import pytest

from repro.lint import (
    LintConfig,
    RULESET_VERSION,
    format_json,
    format_text,
    iter_python_files,
    load_baseline,
    load_config,
    run_lint,
    write_baseline_file,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

FLAGGED = "import numpy as np\nrng = np.random.default_rng()\n"
CLEAN = "import numpy as np\nrng = np.random.default_rng(7)\n"


@pytest.fixture
def project(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "dirty.py").write_text(FLAGGED)
    (tmp_path / "pkg" / "ok.py").write_text(CLEAN)
    return tmp_path


class TestDiscovery:
    def test_files_discovered_sorted_and_deduped(self, project):
        files = iter_python_files(["pkg", "pkg/ok.py"], project, LintConfig())
        assert [rel for _, rel in files] == ["pkg/dirty.py", "pkg/ok.py"]

    def test_exclude_patterns_apply(self, project):
        config = LintConfig(exclude=("pkg/dirty*",))
        files = iter_python_files(["pkg"], project, LintConfig()), \
            iter_python_files(["pkg"], project, config)
        assert len(files[0]) == 2 and len(files[1]) == 1


class TestPolicy:
    def test_findings_fail_run(self, project):
        report = run_lint(["pkg"], project, baseline={})
        assert [f.code for f in report.findings] == ["DET101"]
        assert report.exit_code == 1

    def test_select_restricts_rules(self, project):
        config = LintConfig(select=("DET301",))
        report = run_lint(["pkg"], project, config=config, baseline={})
        assert report.findings == [] and report.exit_code == 0

    def test_ignore_drops_code(self, project):
        config = LintConfig(ignore=("DET101",))
        report = run_lint(["pkg"], project, config=config, baseline={})
        assert report.findings == []

    def test_per_path_allow_suppresses_and_counts(self, project):
        config = LintConfig(per_path_allow=(("pkg/dirty.py", ("DET101",)),))
        report = run_lint(["pkg"], project, config=config, baseline={})
        assert report.findings == [] and report.suppressed_by_allow == 1


class TestBaseline:
    def test_roundtrip_suppresses_then_reports_stale(self, project):
        strict = run_lint(["pkg"], project, baseline={})
        baseline_path = project / "lint-baseline.json"
        write_baseline_file(strict, baseline_path)

        budget = load_baseline(baseline_path)
        assert budget == {("pkg/dirty.py", "DET101"): 1}

        relaxed = run_lint(["pkg"], project, baseline=budget)
        assert relaxed.findings == []
        assert relaxed.suppressed_by_baseline == 1
        assert relaxed.exit_code == 0

        # Once the hazard is fixed, the entry is flagged as stale.
        (project / "pkg" / "dirty.py").write_text(CLEAN)
        fixed = run_lint(["pkg"], project, baseline=load_baseline(baseline_path))
        assert fixed.stale_baseline == [("pkg/dirty.py", "DET101")]
        assert "stale baseline entry" in format_text(fixed)

    def test_missing_baseline_is_strict(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == {}

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"findings": []}')
        with pytest.raises(ValueError, match="malformed baseline"):
            load_baseline(bad)

    def test_committed_baseline_is_minimal(self):
        # The repo carries zero budgeted debt: the last entry
        # (workload_io's deliberately-eager from_npz) now states
        # mmap_mode=None explicitly.  Any new entry is new debt:
        # fix, don't baseline.
        budget = load_baseline(REPO_ROOT / "lint-baseline.json")
        assert budget == {}, (
            "repo baseline must stay empty (fix, don't baseline)"
        )


class TestPathResolution:
    def test_lint_from_subdirectory_resolves_against_cwd(self, project):
        # Invoked from pkg/ with a bare filename: the file is found
        # relative to the invocation directory, not the project root.
        report = run_lint(["dirty.py"], project, baseline={},
                          cwd=project / "pkg")
        assert [f.code for f in report.findings] == ["DET101"]
        assert report.findings[0].path == "pkg/dirty.py"

    def test_dot_from_subdirectory_lints_that_subtree(self, project):
        report = run_lint(["."], project, baseline={}, cwd=project / "pkg")
        assert report.files_scanned == 2
        assert {f.path for f in report.findings} == {"pkg/dirty.py"}

    def test_overlapping_args_report_each_finding_once(self, project):
        report = run_lint(["pkg", "pkg/dirty.py", "."], project,
                          baseline={}, cwd=project)
        assert [f.code for f in report.findings] == ["DET101"]
        assert report.files_scanned == 2

    def test_relative_and_absolute_spellings_dedupe(self, project):
        dirty = project / "pkg" / "dirty.py"
        report = run_lint([str(dirty), "pkg/dirty.py"], project,
                          baseline={}, cwd=project)
        assert len(report.findings) == 1

    def test_display_paths_are_root_relative_posix(self, project):
        files = iter_python_files([str(project / "pkg")], project,
                                  LintConfig())
        assert [rel for _, rel in files] == ["pkg/dirty.py", "pkg/ok.py"]

    def test_cwd_fallback_to_root_for_root_relative_args(self, project, tmp_path):
        # From an unrelated cwd, a root-relative arg still resolves.
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        report = run_lint(["pkg"], project, baseline={}, cwd=elsewhere)
        assert report.files_scanned == 2


class TestConfigEdgeCases:
    def test_allow_glob_matching_nothing_changes_nothing(self, project):
        config = LintConfig(per_path_allow=(("no/such/dir/*", ("DET101",)),))
        report = run_lint(["pkg"], project, config=config, baseline={})
        assert [f.code for f in report.findings] == ["DET101"]
        assert report.suppressed_by_allow == 0

    def test_select_and_ignore_of_same_code_ignore_wins(self, project):
        config = LintConfig(select=("DET101",), ignore=("DET101",))
        report = run_lint(["pkg"], project, config=config, baseline={})
        assert report.findings == []

    def test_prefix_select_enables_whole_family(self, project):
        config = LintConfig(select=("DET1",))
        assert config.enabled("DET101") and config.enabled("DET103")
        assert not config.enabled("DET301") and not config.enabled("RNG701")
        report = run_lint(["pkg"], project, config=config, baseline={})
        assert [f.code for f in report.findings] == ["DET101"]

    def test_prefix_ignore_beats_prefix_select(self, project):
        config = LintConfig(select=("DET",), ignore=("DET1",))
        assert not config.enabled("DET101")
        assert config.enabled("DET301")

    def test_stale_entry_for_deleted_file_reported_not_dropped(self, project):
        baseline_path = project / "lint-baseline.json"
        write_baseline_file(run_lint(["pkg"], project, baseline={}),
                            baseline_path)
        (project / "pkg" / "dirty.py").unlink()

        report = run_lint(["pkg"], project,
                          baseline=load_baseline(baseline_path))
        assert report.stale_baseline == [("pkg/dirty.py", "DET101")]
        assert report.stale_missing_files == [("pkg/dirty.py", "DET101")]
        assert "file no longer exists" in format_text(report)
        payload = json.loads(format_json(report))
        assert payload["stale_baseline"] == [
            {"path": "pkg/dirty.py", "code": "DET101", "file_exists": False}
        ]

    def test_stale_entry_for_surviving_file_annotated_differently(self, project):
        baseline_path = project / "lint-baseline.json"
        write_baseline_file(run_lint(["pkg"], project, baseline={}),
                            baseline_path)
        (project / "pkg" / "dirty.py").write_text(CLEAN)

        report = run_lint(["pkg"], project,
                          baseline=load_baseline(baseline_path))
        assert report.stale_baseline == [("pkg/dirty.py", "DET101")]
        assert report.stale_missing_files == []
        assert "no longer triggered" in format_text(report)


class TestJsonOutput:
    def test_json_is_stable_and_versioned(self, project):
        (project / "pkg" / "also.py").write_text(FLAGGED + "import random\n")
        report = run_lint(["pkg"], project, baseline={})
        payload = json.loads(format_json(report))
        assert payload["ruleset_version"] == RULESET_VERSION
        entries = [(f["path"], f["line"], f["col"], f["code"])
                   for f in payload["findings"]]
        assert entries == sorted(entries)
        # Byte-identical across repeated runs: CI diffs stay quiet.
        rerun = run_lint(["pkg"], project, baseline={})
        assert format_json(rerun) == format_json(report)

    def test_json_names_every_rule(self, project):
        payload = json.loads(format_json(run_lint(["pkg"], project, baseline={})))
        assert "DET101" in payload["rules"] and "PAR403" in payload["rules"]


class TestRepoIsClean:
    """The acceptance gate: the repo lints clean with the committed baseline."""

    def test_src_and_tests_lint_clean(self):
        config = load_config(REPO_ROOT)
        report = run_lint(["src", "tests"], REPO_ROOT, config=config)
        assert report.findings == [], format_text(report)
        assert report.stale_baseline == []

    def test_clean_even_without_the_baseline(self):
        # No hidden budgeted debt: the no-baseline run matches the
        # baselined one finding for finding (i.e. zero for zero).
        config = load_config(REPO_ROOT)
        report = run_lint(["src", "tests"], REPO_ROOT, config=config, baseline={})
        assert report.findings == [], format_text(report)

    def test_fixtures_are_excluded_by_config(self):
        config = load_config(REPO_ROOT)
        files = iter_python_files(["tests/lint"], REPO_ROOT, config)
        rels = [rel for _, rel in files]
        assert rels and all("fixtures" not in rel for rel in rels)

    def test_every_allow_pattern_matches_a_file(self):
        # A per-path-allow glob that matches nothing is silently ignored
        # (test_allow_glob_matching_nothing_changes_nothing), so an entry
        # left behind by a deleted module would grant nothing unnoticed.
        config = load_config(REPO_ROOT)
        rels = [rel for _, rel in iter_python_files([REPO_ROOT], REPO_ROOT, config)]
        stale = [
            pattern for pattern, codes in config.per_path_allow
            if not any(
                LintConfig(per_path_allow=((pattern, codes),)).allowed_codes(rel)
                for rel in rels
            )
        ]
        assert config.per_path_allow and stale == []
