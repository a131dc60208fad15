"""Where a bin's overspend goes, read from the result's decision columns.

The ``session-header`` set-up of the end-to-end benchmark, rebuilt from
``repro`` alone: seven header queries over a generated store, capacity at
half the reference run's 95th percentile of cycles per bin.  Every bin's
use of its budget splits into three terms that the record carries:

- the **loan**, ``(allowance - previous delay) / budget``: what Section
  4.1's buffer discovery lets Algorithm 1's line 7 spend beyond the bin;
- the **post-shed error**, ``(query_cycles - expected_cycles) / budget``:
  what the queries cost beyond the prediction at the rates decided;
- the **plan slack**, ``(expected_cycles + shedding_overhead -
  plan_cycles) / budget``: what the plan left unspent, or overran.

No monkeypatching: the numbers are the columns of the result.
"""

import numpy as np
import pytest

from repro.monitor.config import SystemConfig
from repro.monitor.pipeline import Bound
from repro.traffic.generator import TrafficProfile, generate_trace_store

TIME_BIN = 0.1
HEADER_QUERIES = ("counter,flows,top-k,application,high-watermark,"
                  "autofocus,super-sources")
SEEDS = (1, 5, 13)

#: Per seed, over the bins that use more than 1.05 of their budget: the
#: p90 of use over all bins, the count of such bins, then the median and
#: p90 of the loan, the post-shed error and the plan slack.
DECOMPOSITION = {
    1: (1.239, 41, (0.208, 0.296), (-0.003, 0.032), (0.038, 0.082)),
    5: (1.229, 36, (0.219, 0.477), (-0.002, 0.016), (0.064, 0.107)),
    13: (1.222, 42, (0.163, 0.286), (-0.001, 0.019), (0.065, 0.099)),
}


@pytest.fixture(scope="module")
def session_header_runs(tmp_path_factory):
    """Seed -> the predictive result of ``session-header`` at that seed."""
    results = {}
    for seed in SEEDS:
        store = generate_trace_store(
            tmp_path_factory.mktemp(f"session-header-{seed}") / "store",
            TrafficProfile(name="session-header", duration=12,
                           flow_arrival_rate=5000),
            seed=seed, time_bin=TIME_BIN)
        config = SystemConfig(queries=HEADER_QUERIES, seed=seed + 3)
        reference = config.replace(mode="reference").build().run(
            store, time_bin=TIME_BIN)
        per_second = np.quantile(reference.cycles_per_bin(), 0.95) / TIME_BIN
        results[seed] = config.replace(
            cycles_per_second=0.5 * float(per_second)).build().run(
                store, time_bin=TIME_BIN)
    return results


def _terms(result):
    """Per bin: use of the budget, and the loan, post-shed error and plan
    slack, each as a share of the budget."""
    bins = list(result.bins)
    budget = np.array([record.available_cycles for record in bins])
    previous_delay = np.array([0.0] + [record.delay for record in bins[:-1]])
    use = np.array([record.total_cycles for record in bins]) / budget
    loan = (np.array([record.allowance for record in bins])
            - previous_delay) / budget
    post_shed = np.array([record.query_cycles - record.expected_cycles
                          for record in bins]) / budget
    slack = np.array([record.expected_cycles + record.shedding_overhead
                      - record.plan_cycles for record in bins]) / budget
    return use, loan, post_shed, slack


@pytest.mark.parametrize("seed", SEEDS)
def test_line_7_is_read_back_from_the_columns(session_header_runs, seed):
    """``plan_cycles`` is Algorithm 1's line 7 over the record's own
    columns, bit for bit, in every admitted bin."""
    previous_delay = 0.0
    for record in session_header_runs[seed].bins:
        if record.dropped_packets == 0:
            assert record.plan_cycles == (
                (record.available_cycles - (record.system_overhead +
                                            record.prediction_overhead))
                + (record.allowance - previous_delay)), record.index
        previous_delay = record.delay


@pytest.mark.parametrize("seed", SEEDS)
def test_the_overspend_is_the_loan_the_error_and_the_slack(
        session_header_runs, seed):
    use, loan, post_shed, slack = _terms(session_header_runs[seed])
    assert np.all(np.abs((use - 1.0) - (loan + post_shed + slack)) <= 1e-12)
    p90, count, *shares = DECOMPOSITION[seed]
    over = use > 1.05
    assert round(float(np.quantile(use, 0.9)), 3) == p90
    assert int(over.sum()) == count
    for term, (median, high) in zip((loan, post_shed, slack), shares):
        assert round(float(np.median(term[over])), 3) == median
        assert round(float(np.quantile(term[over], 0.9)), 3) == high


@pytest.mark.parametrize("seed", SEEDS)
def test_a_bin_without_overload_sheds_nothing(session_header_runs, seed):
    """Overload is not stored: it is the plan's cycles below the corrected
    prediction, both read from the record.  Where it is false, every query
    was decided a rate of 1.0, and nothing bound it."""
    unloaded = 0
    for record in session_header_runs[seed].bins:
        corrected = record.predicted_cycles * (1.0 + record.error_ewma)
        if record.plan_cycles < corrected:
            continue
        unloaded += 1
        assert set(record.decided_rates.values()) == {1.0}
        assert set(record.bounds.values()) == {Bound.UNBOUND}
    assert unloaded > 0
