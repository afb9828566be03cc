"""Acceptance suite: every criterion at its full stated bound, exact.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion.  All comparisons are exact integer/bit equality; there are
no tolerances anywhere.
"""

import pytest

from mexparity.genfun import (
    acore_mod2_series,
    dissection_identity_check,
    ptt_series,
)
from mexparity.partitions import MexSpec, p_direct
from mexparity.verify import (
    THEOREM6_RESIDUES,
    scan_congruences,
    verify_characterization,
    verify_crank_rank,
    verify_odd_progression,
    verify_power4_families,
    verify_qnr_families,
    verify_series_identities,
    verify_tcore_congruences,
    verify_theorem6,
)
from oracles import a_t_direct, product_form_mod2

CHARACTERIZATION_BOUND = 10**5
CONGRUENCE_BOUND = 10**4
IDENTITY_ORDER = 10**4


def _criterion(number: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] criterion {number}: {description}"
    if detail and not passed:
        line += f" ({detail})"
    print(line)
    assert passed, line


def test_criterion_1_p11_characterization():
    report = verify_characterization("p11", CHARACTERIZATION_BOUND)
    _criterion(
        1,
        f"t=1 parity equals the 12n+1-square predicate for 1 <= n < {CHARACTERIZATION_BOUND}",
        report.passed,
        f"counterexample n={report.counterexample}",
    )


def test_criterion_2_p33_characterization():
    report = verify_characterization("p33", CHARACTERIZATION_BOUND)
    _criterion(
        2,
        f"t=3 parity equals the 3n+1-square predicate for 1 <= n < {CHARACTERIZATION_BOUND}",
        report.passed,
        f"counterexample n={report.counterexample}",
    )


def test_criterion_3_crank_rank_equivalences():
    report = verify_crank_rank(45)
    _criterion(
        3,
        "mex counts equal crank>=0 and rank>=-1 counts for all 1 <= n <= 45",
        report.passed,
        f"counterexample n={report.counterexample}, {report.detail}",
    )


def test_criterion_4_series_matches_enumeration():
    failures = []
    for t in (1, 3, 5, 7):
        series = ptt_series(t, 36)
        spec = MexSpec(t, t)
        for n in range(36):
            if series.coeff(n) != p_direct(spec, n):
                failures.append((t, n))
    _criterion(
        4,
        "series coefficients equal enumeration counts for t in {1,3,5,7}, 0 <= n <= 35",
        not failures,
        f"first mismatch (t, n)={failures[:1]}",
    )


def test_criterion_5_theorem6_families():
    report = verify_theorem6(CHARACTERIZATION_BOUND)
    _criterion(
        5,
        f"all seven residue families even at every index < {CHARACTERIZATION_BOUND}",
        report.passed,
        report.detail,
    )


def test_criterion_6_corollary_families():
    odd = verify_odd_progression(CHARACTERIZATION_BOUND)
    qnr11 = verify_qnr_families("p11", CHARACTERIZATION_BOUND)
    qnr33 = verify_qnr_families("p33", CHARACTERIZATION_BOUND)
    pow4 = verify_power4_families(CHARACTERIZATION_BOUND)
    reports = [odd, qnr11, qnr33, pow4]
    _criterion(
        6,
        f"odd progression, non-residue families (p <= 17) and power-of-4 families (m <= 6) "
        f"all even below {CHARACTERIZATION_BOUND}",
        all(r.passed for r in reports),
        "; ".join(f"{r.theorem_id}: n={r.counterexample}" for r in reports if not r.passed),
    )


def test_criterion_7_identity_suite():
    reports = verify_series_identities(IDENTITY_ORDER)
    _criterion(
        7,
        f"pentagonal, cubed-product and psi identities hold through order {IDENTITY_ORDER} over the integers",
        all(r.passed for r in reports),
        "; ".join(f"{r.theorem_id}: q^{r.counterexample}" for r in reports if not r.passed),
    )


def test_criterion_8_tcore_oracle_and_congruences():
    mismatches = [
        (t, n)
        for t in (3, 5, 7)
        for n in range(26)
        if acore_mod2_series(t, 26).coeff(n) != a_t_direct(t, n) % 2
    ]
    # the order-10^4 parity sweep runs on the GF(2) product route; pin it to
    # the literal product (q^t;q^t)^t / (q;q) first, so that sweep speaks for
    # the integer t-core counts
    route_mismatch = [
        t
        for t in sorted(THEOREM6_RESIDUES)
        if list(acore_mod2_series(t, 600).coeffs) != product_form_mod2(t, t, 600)
    ]
    report = verify_tcore_congruences(CONGRUENCE_BOUND)
    _criterion(
        8,
        "t-core parity series matches the hook-length oracle mod 2 (t in {3,5,7}, n <= 25) and the "
        f"t-core residue families hold below {CONGRUENCE_BOUND}",
        not mismatches and not route_mismatch and report.passed,
        f"oracle mismatches={mismatches[:3]}, route mismatches={route_mismatch}, sweep={report.detail}",
    )


def test_criterion_9_dissection_identity():
    failures = [(t, r) for t in (5, 7) for r in dissection_identity_check(t, 500)]
    _criterion(
        9,
        "2t-dissection identity holds for t in {5,7}, every residue r < 2t, order 500",
        not failures,
        f"failing (t, r)={failures[:3]}",
    )


def test_criterion_10_scanner_rediscovery():
    problems = []
    for t, residues in sorted(THEOREM6_RESIDUES.items()):
        claims = {c.residue: c for c in scan_congruences(t, 2 * t, CONGRUENCE_BOUND)}
        for j in residues:
            if not claims[j].verified:
                problems.append((t, j, claims[j].witness))
    _criterion(
        10,
        f"scanner verifies every known residue class at bound {CONGRUENCE_BOUND} and refutes none",
        not problems,
        f"refuted (t, j, witness)={problems[:3]}",
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
