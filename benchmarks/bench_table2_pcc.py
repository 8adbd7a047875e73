"""Table II bench: regenerate the PCC table — the paper's headline result.

Paper (Section IV-B): PCC between arithmetic-mean TGI and the EE of
IOzone / STREAM / HPL is .99 / .96 / .58; time weights behave like the
arithmetic mean; energy and power weights correlate higher with HPL.
``table2.uncertainty`` times the bootstrap CIs and jackknife ranges that
``tgi run table2ci`` adds to the arithmetic-mean column.
"""

from repro.experiments.tables import run_table2_pcc
from repro.experiments.uncertainty import run_table2_uncertainty
from repro.perfwatch import HIGHER_IS_BETTER, MetricSpec, scenario, shared_context


@scenario(
    "table2.pcc",
    description="regenerate Table II (TGI-vs-EE Pearson coefficients)",
    setup=shared_context,
    metrics=(
        MetricSpec(
            "pcc_iozone_am",
            direction=HIGHER_IS_BETTER,
            help="headline PCC: arithmetic-mean TGI vs IOzone EE",
        ),
    ),
)
def table2_scenario(context):
    result = run_table2_pcc(context)
    return {"pcc_iozone_am": result.pcc("IOzone", "arithmetic-mean")}


@scenario(
    "table2.uncertainty",
    description="Table II's AM column: 3 bootstrap CIs (2,000 resamples) and jackknifes",
    setup=shared_context,
)
def table2_uncertainty_scenario(context):
    run_table2_uncertainty(context)


def test_table2_pcc(benchmark, context):
    result = benchmark(run_table2_pcc, context)
    print()
    print(result.format())
    am = {b: result.pcc(b, "arithmetic-mean") for b in ("IOzone", "STREAM", "HPL")}
    # headline ordering
    assert am["IOzone"] > 0.95
    assert am["STREAM"] > 0.9
    assert abs(am["HPL"] - 0.58) < 0.08
    # time ~ arithmetic mean
    for b in ("IOzone", "STREAM", "HPL"):
        assert abs(result.pcc(b, "time") - am[b]) < 0.08
    # energy/power weights pull TGI toward HPL (the undesired property)
    assert result.pcc("HPL", "energy") > am["HPL"]
    assert result.pcc("HPL", "power") > am["HPL"]
