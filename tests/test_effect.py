"""Effectiveness classification of minimal pseudo-codewords."""

import json

import pytest

from pgcone import effect
from pgcone.cone import PseudoCodeword
from pgcone.decode import feldman_lp_decode, llr_from_flips, zero_optimal
from pgcone.effect import (EXCLUDED_BY_RANGE, FIRST, NOT_EFFECTIVE,
                           POSSIBLY_EFFECTIVE, SECOND_ONLY, awgnc_first_kind,
                           bsc_effectiveness, cor8_screen)
from pgcone.errors import IncompleteRaySet, LengthMismatch, LpNotOptimal
from pgcone.rays import RaySet, enumerate_rays
from pgcone.simplex import UNBOUNDED, LpResult
from pgcone.weights import bsc_pw


def test_fixture_awgnc_all_first(fixture_h):
    rs = enumerate_rays(fixture_h)
    for r in rs:
        rep = awgnc_first_kind(rs, r)
        assert rep.kind == FIRST
        lam = rep.witness
        own = sum(x * y for x, y in zip(r.canonical, lam))
        assert own < 0
        for other in rs:
            if other.canonical == r.canonical:
                continue
            assert sum(x * y for x, y in zip(other.canonical, lam)) >= 0


def test_fixture_bsc_all_first(fixture_h):
    rs = enumerate_rays(fixture_h)
    for r in rs:
        assert bsc_effectiveness(rs, r).kind == FIRST


def test_q2_awgnc_theorem(rays2, pivots):
    for r in rays2:
        assert awgnc_first_kind(rays2, r).kind == FIRST
    assert len(pivots) == 163


def test_q2_bsc_classifications(rays2):
    for r in rays2:
        rep = bsc_effectiveness(rays2, r)
        assert rep.kind == FIRST
        # Second-kind effectiveness implies the BSC weight window [4, 6].
        assert 4 <= bsc_pw(r) <= 6
        assert cor8_screen(r, 2) == POSSIBLY_EFFECTIVE


def test_bsc_scale_free(rays2):
    r = list(rays2)[0]
    assert bsc_effectiveness(rays2, r, L=1).kind == \
        bsc_effectiveness(rays2, r, L=3).kind


def test_bsc_shift_invariance(rays2):
    kinds = {}
    for r in rays2:
        kinds[r.canonical] = bsc_effectiveness(rays2, r).kind
    for v, kind in kinds.items():
        shifted = tuple(v[(i - 1) % 7] for i in range(7))
        assert kinds[shifted] == kind


def test_cor8_screen():
    q4_vec = [2] + [1] * 12 + [0] * 8
    assert bsc_pw(q4_vec) == 12
    assert cor8_screen(q4_vec, 4) == EXCLUDED_BY_RANGE
    assert cor8_screen([1, 1, 1, 1, 0, 0, 0], 2) == POSSIBLY_EFFECTIVE
    assert cor8_screen([1] * 7, 2) == EXCLUDED_BY_RANGE  # weight 7 > 6


def test_incomplete_rayset_rejected(rays2):
    partial = RaySet(rays=tuple(rays2)[:3], h_matrix_id=rays2.h_matrix_id,
                     complete=False)
    r = tuple(rays2)[0]
    for classify, channel in ((awgnc_first_kind, "AWGNC"),
                              (bsc_effectiveness, "BSC")):
        message = f"^{channel} classification needs the full ray set$"
        with pytest.raises(IncompleteRaySet, match=message):
            classify(partial, r)
        # Checked before the vector (here of the wrong length) is read.
        with pytest.raises(IncompleteRaySet, match=message):
            classify(partial, (1, 1))
    with pytest.raises(IncompleteRaySet):
        bsc_effectiveness(partial, r, L=0)


def test_single_ray_first_trivially():
    rs = RaySet(rays=(PseudoCodeword((1, 1, 0)),), h_matrix_id="x",
                complete=True)
    rep = awgnc_first_kind(rs, PseudoCodeword((1, 1, 0)))
    assert rep.kind == FIRST


def test_awgnc_zero_optimum_is_second_kind_only():
    # Every lambda with <omega', lambda> >= 0 on both unit rays is >= 0, so
    # the optimum is 0 at lambda = 0: the LP never reads positive.
    rs = RaySet(rays=((1, 0), (0, 1)), h_matrix_id="x", complete=True, n=2)
    rep = awgnc_first_kind(rs, (1, 1))
    assert rep.kind == SECOND_ONLY
    assert rep.witness == (0, 0)


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("call", [
    lambda H, rs, n: bsc_effectiveness(rs, [1] * n),
    lambda H, rs, n: awgnc_first_kind(rs, [1] * n),
    lambda H, rs, n: zero_optimal(H, llr_from_flips(n, (0,), 1)),
    lambda H, rs, n: feldman_lp_decode(H, llr_from_flips(n, (0,), 1)),
], ids=["bsc_effectiveness", "awgnc_first_kind", "zero_optimal",
        "feldman_lp_decode"])
def test_wrong_length_vector_is_length_mismatch(H2, rays2, call, n):
    # n = 7 at q = 2: a shorter or longer vector is not read by truncation
    # or padding, and no LP is built for it.
    with pytest.raises(LengthMismatch, match=f"expected length 7, got {n}"):
        call(H2, rays2, n)


def test_bsc_L_validation(rays2):
    with pytest.raises(ValueError):
        bsc_effectiveness(rays2, tuple(rays2)[0], L=0)


def test_report_json(rays2):
    rep = awgnc_first_kind(rays2, tuple(rays2)[0])
    obj = json.loads(rep.to_json())
    assert obj["channel"] == "AWGNC"
    assert obj["kind"] in (FIRST, SECOND_ONLY, NOT_EFFECTIVE)
    assert obj["witness"] is not None


def test_awgnc_lp_status_is_checked(rays2, monkeypatch):
    monkeypatch.setattr(effect, "lp_solve",
                        lambda lp: LpResult(status=UNBOUNDED))
    with pytest.raises(LpNotOptimal):
        awgnc_first_kind(rays2, next(iter(rays2)))
