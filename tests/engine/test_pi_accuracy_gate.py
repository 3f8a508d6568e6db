"""PI accuracy gate on the paper's workload, under both plan shapes.

One seed-0 repetition of the end-to-end benchmark's ``mcq_paper``
workload (paper section 5.2.1: ten engine jobs over Zipf-sized part
tables), read through the benchmark's own ``pi_err_frac``: the mean
|estimated - actual remaining time| / response time over every PI sample.

* Default (decorrelated) plans: a grouped hash build runs before the
  driver scan consumes a page.  Extrapolating that build by the driver
  fraction read 0.4642 here; the optimizer alone reads 0.0005.
* Per-row plans (``decorrelate=False``, the Fig 8-10 shape): the
  optimizer is 10-13% low and reads 0.0253 alone; the driver refinement
  corrects it to 0.013142.  The bar keeps that adaptivity.
"""

import pytest

from benchmarks.e2e.spans import NullTracer
from benchmarks.e2e.workloads import McqPaper


def mcq_paper_pi_err(decorrelate: bool) -> float:
    workload = McqPaper(seed=0)
    db = workload.build()
    db.planner.decorrelate = decorrelate
    rep = workload.repetition(db, NullTracer(), check=True)
    assert workload.verify(db, rep) == []
    return rep.pi_err_frac()


@pytest.mark.parametrize(
    "decorrelate, bar", [(True, 0.02), (False, 0.0132)],
    ids=["decorrelated", "per_row"],
)
def test_mcq_paper_pi_error(decorrelate, bar):
    assert mcq_paper_pi_err(decorrelate) <= bar
