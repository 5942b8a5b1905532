"""``repro lint`` CLI contract: exit codes, formats, rule selection."""

import json

from repro.cli import main


def _write(tmp_path, relpath, source):
    file = tmp_path / relpath
    file.parent.mkdir(parents=True, exist_ok=True)
    file.write_text(source)
    return file


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        file = _write(tmp_path, "repro/pipeline/ok.py", "X = 1\n")
        assert main(["lint", str(file), "--no-baseline"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        file = _write(tmp_path, "repro/pipeline/bad.py", "import random\n")
        assert main(["lint", str(file), "--no-baseline"]) == 1
        assert "RPL101" in capsys.readouterr().out

    def test_unknown_rule_id_exits_two(self, tmp_path, capsys):
        file = _write(tmp_path, "repro/pipeline/ok.py", "X = 1\n")
        assert main(["lint", str(file), "--select", "RPL999"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "nope.py")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_missing_baseline_file_exits_two(self, tmp_path, capsys):
        file = _write(tmp_path, "repro/pipeline/ok.py", "X = 1\n")
        code = main(
            ["lint", str(file), "--baseline", str(tmp_path / "nope.json")]
        )
        assert code == 2

    def test_syntax_error_in_target_exits_two(self, tmp_path, capsys):
        file = _write(tmp_path, "repro/pipeline/broken.py", "def f(:\n")
        assert main(["lint", str(file), "--no-baseline"]) == 2
        assert "syntax error" in capsys.readouterr().err


class TestSelectionAndFormats:
    def test_ignore_silences_a_rule(self, tmp_path):
        file = _write(tmp_path, "repro/pipeline/bad.py", "import random\n")
        assert main(["lint", str(file), "--ignore", "RPL101"]) == 0

    def test_select_runs_only_named_rules(self, tmp_path, capsys):
        file = _write(tmp_path, "repro/pipeline/bad.py", "import random\n")
        assert main(["lint", str(file), "--select", "RPL601"]) == 0

    def test_json_format_is_parseable(self, tmp_path, capsys):
        file = _write(tmp_path, "repro/pipeline/bad.py", "import random\n")
        assert main(["lint", str(file), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "RPL101"

    def test_list_rules_names_every_rule(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "RPL101",
            "RPL102",
            "RPL103",
            "RPL201",
            "RPL301",
            "RPL401",
            "RPL501",
            "RPL502",
            "RPL601",
            "RPL602",
            "RPL603",
        ):
            assert rule_id in out

    def test_update_baseline_round_trips_via_cli(self, tmp_path, capsys):
        file = _write(tmp_path, "repro/pipeline/bad.py", "import random\n")
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "lint",
                    str(file),
                    "--baseline",
                    str(baseline),
                    "--update-baseline",
                ]
            )
            == 0
        )
        assert baseline.exists()
        assert main(["lint", str(file), "--baseline", str(baseline)]) == 0


class TestDefaultTarget:
    def test_no_paths_lints_installed_package_cleanly(self, capsys):
        # The packaged baseline covers the deliberate keeps, so the
        # default invocation is the CI gate and must exit 0.
        assert main(["lint"]) == 0
