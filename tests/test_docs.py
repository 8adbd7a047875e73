"""Documentation-drift tests.

Cheap guards that keep the prose honest: every module the architecture
docs name must exist, the calibration constants and uncertainty table
quoted in EXPERIMENTS.md must match the code, and the repo ships the
documents the README promises.
"""

import re
from pathlib import Path

import pytest

from repro.experiments import PAPER_CONFIG
from repro.experiments.uncertainty import run_table2_uncertainty

ROOT = Path(__file__).resolve().parent.parent


class TestDocFilesExist:
    @pytest.mark.parametrize(
        "relpath",
        [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "CONTRIBUTING.md",
            "CHANGELOG.md",
            "docs/power_model.md",
            "docs/performance_models.md",
            "docs/metric_theory.md",
            "docs/simulator.md",
            "docs/campaign_runner.md",
            "docs/telemetry.md",
            "docs/fault_tolerance.md",
            "docs/observability.md",
            "docs/distributed_campaigns.md",
        ],
    )
    def test_exists_and_nonempty(self, relpath):
        path = ROOT / relpath
        assert path.exists(), relpath
        assert len(path.read_text()) > 500


class TestDesignInventoryMatchesCode:
    def test_every_named_module_exists(self):
        """Module paths mentioned in DESIGN.md's inventory must exist."""
        design = (ROOT / "DESIGN.md").read_text()
        for match in re.finditer(r"`repro/([\w/]+\.py)`", design):
            path = ROOT / "src" / "repro" / match.group(1)
            assert path.exists(), f"DESIGN.md names missing module {match.group(1)}"

    def test_experiment_ids_documented(self):
        from repro.experiments import EXPERIMENTS

        design = (ROOT / "DESIGN.md").read_text()
        experiments_md = (ROOT / "EXPERIMENTS.md").read_text()
        for exp_id in EXPERIMENTS:
            assert exp_id in design + experiments_md, f"{exp_id} undocumented"


class TestCalibrationConstantsMatch:
    def test_experiments_md_quotes_the_live_constants(self):
        """EXPERIMENTS.md's calibration table must match config.py."""
        text = (ROOT / "EXPERIMENTS.md").read_text()
        assert str(PAPER_CONFIG.hpl_problem_size) in text
        assert str(PAPER_CONFIG.hpl_comm_volume_factor) in text
        assert f"{PAPER_CONFIG.hpl_contention_threshold} / {PAPER_CONFIG.hpl_contention_slope}" in text
        assert str(PAPER_CONFIG.stream_intensity) in text

    def test_uncertainty_table_quotes_the_live_values(self, paper_context):
        """Every row of EXPERIMENTS.md's bootstrap/jackknife table matches
        ``tgi run table2ci``, in the doc's number style."""

        def doc(value):  # three decimals, no leading zero, U+2212 minus
            return ("\u2212" if value < 0 else "") + f"{abs(value):.3f}".removeprefix("0")

        result = run_table2_uncertainty(paper_context)
        text = (ROOT / "EXPERIMENTS.md").read_text().replace("**", "")
        for name, ci in result.intervals.items():
            lo, hi = result.jackknife_ranges[name]
            row = (
                f"| {name} | {doc(ci.estimate)} | [{doc(ci.low)}, {doc(ci.high)}]"
                f" | [{doc(lo)}, {doc(hi)}] |"
            )
            assert row in text, row

    def test_fire_preset_values_quoted(self):
        from repro.cluster import presets

        fire = presets.fire()
        text = (ROOT / "EXPERIMENTS.md").read_text()
        assert str(fire.node.memory.stream_efficiency) in text
        assert str(fire.node.memory.cores_to_saturate) in text

    def test_readme_quickstart_classes_exist(self):
        """Every `repro` name the README imports in its quickstart exists."""
        import repro

        readme = (ROOT / "README.md").read_text()
        block = re.search(r"```python(.*?)```", readme, re.S).group(1)
        for match in re.finditer(r"^\s*(\w+(?:, \w+)*),?\s*$", block, re.M):
            for name in match.group(1).split(", "):
                if name and name[0].isupper():
                    assert hasattr(repro, name), f"README imports missing name {name}"
