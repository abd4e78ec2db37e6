"""Sanity checks for the example scripts.

Examples are exercised end-to-end by humans (and by the benchmark data
they share code with); here we verify that every script parses, imports
only public API, and exposes a ``main`` entry point.  The cheapest
example additionally runs end-to-end.
"""

from __future__ import annotations

import ast
import importlib.util
import tempfile
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py"))


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_examples_exist(self):
        names = {script.name for script in SCRIPTS}
        assert {
            "quickstart.py",
            "car_shopping.py",
            "nba_scouting.py",
            "noisy_user.py",
            "interactive_cli.py",
        } <= names

    @pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
    def test_parses_and_has_main(self, script):
        tree = ast.parse(script.read_text())
        functions = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
        }
        assert "main" in functions, f"{script.name} lacks a main()"

    @pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
    def test_guarded_entry_point(self, script):
        assert 'if __name__ == "__main__":' in script.read_text()

    @pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
    def test_imports_resolve(self, script):
        """Importing the module must not execute main() (guard works)."""
        module = _load(script)
        assert hasattr(module, "main")

    def test_docstrings_explain_how_to_run(self):
        for script in SCRIPTS:
            tree = ast.parse(script.read_text())
            doc = ast.get_docstring(tree) or ""
            assert f"examples/{script.name}" in doc, (
                f"{script.name} docstring should show the run command"
            )

    def test_csv_workflow_runs_end_to_end(self, tmp_path, capsys):
        """train_ea -> save_agent -> load_agent -> session, as shipped."""
        module = _load(EXAMPLES_DIR / "csv_workflow.py")
        module.main(workdir=tmp_path)
        out = capsys.readouterr().out
        assert (tmp_path / "laptops_ea.npz").exists()
        assert "trained agent saved to" in out
        assert "answered" in out and "regret ratio" in out

    def test_csv_workflow_removes_its_temp_dir(self, tmp_path, monkeypatch):
        """With no workdir, the run leaves nothing in the temp dir."""
        module = _load(EXAMPLES_DIR / "csv_workflow.py")
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        module.main()
        assert list(tmp_path.iterdir()) == []

    def test_visualize_session_runs_end_to_end(self, tmp_path, capsys):
        """One SVG per answered round, plus the round-0 simplex."""
        module = _load(EXAMPLES_DIR / "visualize_session.py")
        module.main(out_dir=tmp_path)
        out = capsys.readouterr().out
        rounds = int(out.split("done in ")[1].split()[0])
        assert rounds >= 1
        names = sorted(path.name for path in tmp_path.glob("*.svg"))
        assert names == [f"round_{k:02d}.svg" for k in range(rounds + 1)]
        for path in tmp_path.glob("*.svg"):
            assert path.read_text().startswith("<svg")
