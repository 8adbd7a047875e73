"""Smoke tests for the examples.

Every example imports cleanly (no syntax/import rot), exposes a
``main()``, and runs it to completion in-process with default knobs: the
simulated campaigns are sub-second, so all twelve run in a few seconds.
The quickstart's logic is additionally exercised end-to-end in
``test_integration.py``.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def load_example(path: Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    # examples guard execution behind __main__, so loading is side-effect free
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_expected_examples_present(self):
        names = {p.stem for p in EXAMPLE_FILES}
        assert {
            "quickstart",
            "reproduce_paper",
            "rank_clusters",
            "weight_sensitivity",
            "center_wide_tgi",
            "gpu_system_tgi",
            "meter_fidelity",
            "extended_suite",
            "dvfs_study",
            "application_weighted_tgi",
            "energy_breakdown",
            "green500_style_list",
        } <= names

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
    def test_example_imports_and_has_main(self, path):
        module = load_example(path)
        assert callable(getattr(module, "main", None)), f"{path.stem} lacks main()"

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
    def test_example_has_docstring(self, path):
        module = load_example(path)
        assert module.__doc__ and len(module.__doc__.strip()) > 40

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
    def test_example_main_runs(self, path, monkeypatch, capsys):
        module = load_example(path)
        monkeypatch.setattr(sys, "argv", [str(path)])
        for knob in [k for k in os.environ if k.startswith("REPRO_FLEET_")]:
            monkeypatch.delenv(knob)
        monkeypatch.delenv("REPRO_CAMPAIGN_CACHE", raising=False)
        monkeypatch.setenv("REPRO_WORKERS", "1")
        module.main()
        assert capsys.readouterr().out.strip()
