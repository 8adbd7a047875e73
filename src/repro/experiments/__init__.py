"""Experiment drivers: one per table and figure of the paper's evaluation.

Each driver regenerates the rows/series of its artifact from the simulated
substrate and returns a structured result with a ``format()`` method for
text output.  The calibrated run configuration shared by all experiments
lives in :mod:`~repro.experiments.config`; drivers are looked up by id
(``"fig2"`` ... ``"table2"``) through :mod:`~repro.experiments.registry`.

=========  ==========================================================
id         artifact
=========  ==========================================================
fig2       Figure 2 — energy efficiency of HPL vs. MPI processes
fig3       Figure 3 — energy efficiency of STREAM vs. MPI processes
fig4       Figure 4 — energy efficiency of IOzone vs. nodes
fig5       Figure 5 — TGI (arithmetic mean) vs. cores
fig6       Figure 6 — TGI under time/energy/power weights vs. cores
table1     Table I — suite performance and power on the reference
table2     Table II — PCC between benchmark EEs and TGI variants
=========  ==========================================================
"""

from .. import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(
    __name__,
    {
        "config": (
            "ExperimentConfig",
            "PAPER_CONFIG",
            "build_suite",
            "build_reference",
            "build_executor",
            "config_to_dict",
            "config_from_dict",
        ),
        "registry": (
            "EXPERIMENTS",
            "get_experiment",
            "run_experiment",
            "execute_experiment",
        ),
        "runner": ("run_all", "SharedContext"),
    },
)
