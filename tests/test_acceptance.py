# The acceptance battery as a test module: one test per criterion, each
# printing its pass/fail line.  All tolerances are exact equalities; the only
# statistical thresholds are the >= 95% genericity fractions inside C12, as
# stated.  The twenty (5,2) chain tensors are shared across criteria.

import time

import pytest

from instantons.fields import GF32003, QQ
from instantons.suite import CRITERIA, crit_geometry, run_suite


@pytest.fixture(scope="module")
def ctx():
    return GF32003


@pytest.mark.parametrize("cid,tag,desc,fn", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(ctx, cid, tag, desc, fn):
    t0 = time.time()
    passed, details = fn(ctx)
    line = f"{cid:<4} {tag:<16} {'PASS' if passed else 'FAIL'} ({time.time() - t0:.1f}s) {desc}"
    print(line)
    assert passed, f"{cid} failed: {details}"


def test_rational_battery_is_criteria_1_to_3():
    # under --field rational, C1-C3 run over Q themselves; the rational audit
    # compares Q with the prime field it runs over, so it is left out
    summary = run_suite(QQ)
    assert [c["cid"] for c in summary["criteria"]] == ["C1", "C2", "C3"]
    assert summary["passed"]


def test_geometry_details_are_pinned(ctx):
    # C12's details as recorded from the line and pencil draws written out in
    # the criterion; its lines and pencils come from one stream, in order
    passed, details = crit_geometry(ctx)
    assert passed
    assert details == {
        "lines": 500, "trivial_fraction": 1.0, "pencil_generic_fraction": 1.0,
        "samples": [{"n": n, "orders_ok": True, "jumping": 0, "pencil_degrees": [n, n]}
                    for n in (2, 2, 2, 3, 3, 3, 4, 4, 5, 5)]}
