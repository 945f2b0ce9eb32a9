"""Extreme-ray enumeration: double description, oracle cross-check,
persistence and histograms."""

import json
import random
from fractions import Fraction

import pytest

from pgcone.cone import integer_rank, is_member, is_minimal
from pgcone.errors import LengthMismatch, MalformedRaySet
from pgcone.plane import ParityCheck
from pgcone.rays import (Budget, RaySet, enumerate_rays, histogram,
                         histogram_csv, insertion_order, support_guided_rays)
from pgcone.weights import awgnc_pw, bec_pw, bsc_pw


def test_fixture_rays(fixture_h):
    rs = enumerate_rays(fixture_h)
    assert rs.complete
    assert rs.canonicals() == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]


def test_q2_contains_codewords(rays2, codewords2):
    canon = set(rays2.canonicals())
    for w in codewords2:
        assert tuple(w) in canon


def test_q2_ray_count_and_types(rays2):
    assert len(rays2) == 14
    masses = sorted(sum(r.canonical) for r in rays2)
    assert masses == [4] * 7 + [10] * 7


def test_all_rays_certified(H2, rays2):
    for r in rays2:
        assert is_member(H2, r)[0]
        assert is_minimal(H2, r)


def test_oracle_agreement(rays2, oracle2):
    assert oracle2.complete
    assert set(rays2.canonicals()) == set(oracle2.canonicals())


def test_insertion_order_invariance(H2, rays2):
    for seed in (1, 2):
        shuffled = enumerate_rays(H2, seed=seed)
        assert shuffled.complete
        assert shuffled.canonicals() == rays2.canonicals()


def test_insertion_order_shapes(H2):
    default = insertion_order(H2)
    assert default == list(range(21))
    seeded = insertion_order(H2, seed=5)
    assert sorted(seeded) == default
    assert insertion_order(H2, seed=5) == seeded


def test_cyclic_shift_closure(rays2):
    canon = set(rays2.canonicals())
    for r in rays2:
        v = r.canonical
        shifted = tuple(v[(i - 1) % 7] for i in range(7))
        assert shifted in canon


def test_minimum_pseudo_weights(rays2):
    assert min(awgnc_pw(r) for r in rays2) == 4
    assert min(bsc_pw(r) for r in rays2) == 4
    assert min(bec_pw(r) for r in rays2) == 4


def test_budget_returns_partial_certified(H4):
    rs = enumerate_rays(H4, budget=Budget(max_rays=50))
    assert not rs.complete
    for r in rs:
        assert is_member(H4, r)[0]
        assert is_minimal(H4, r)


@pytest.mark.parametrize("limits", [
    {"max_seconds": float("nan")}, {"max_seconds": -0.5}, {"max_rays": -1}])
def test_budget_rejects_what_is_not_a_number_at_least_zero(limits):
    # Budget(max_seconds=nan) was once accepted; its deadline was NaN, so
    # the run never stopped on time.
    with pytest.raises(ValueError, match="must be nonnegative, got"):
        Budget(**limits)


def _fake_clock(monkeypatch):
    """Patch the clock with one that reads 0, 1, 2, ... seconds per call."""
    reads = []

    def clock():
        reads.append(None)
        return float(len(reads) - 1)
    monkeypatch.setattr("pgcone.rays.time.monotonic", clock)
    return reads


def test_max_seconds_checked_inside_a_step(H2, H4, monkeypatch):
    reads = _fake_clock(monkeypatch)
    rs = enumerate_rays(H2, budget=Budget(max_seconds=10 ** 6))
    assert rs.complete
    # The clock is read at the start, after each of the 21 steps, and once
    # per positive ray of every step that has a negative ray.
    assert len(reads) > 1 + 21
    reads = _fake_clock(monkeypatch)
    rs = enumerate_rays(H4, budget=Budget(max_seconds=30))
    assert not rs.complete
    # The run stops at the first read past the deadline.
    assert len(reads) == 32
    for r in rs:
        assert is_member(H4, r)[0]
        assert is_minimal(H4, r)


def test_oracle_finds_unit_rays_of_untouched_columns():
    H = ParityCheck([[2, 4], [3, 2, 6], [4, 1, 6], [2, 1], [4, 2]], 7)
    oracle = support_guided_rays(H)
    assert (1, 0, 0, 0, 0, 0, 0) in oracle.canonicals()
    assert (0, 0, 0, 0, 0, 1, 0) in oracle.canonicals()
    assert oracle.canonicals() == enumerate_rays(H).canonicals()
    assert len(oracle) == 6


def _random_sparse_matrices():
    """15 seeded sparse matrices with 4 to 6 columns and 2 to 5 checks."""
    rng = random.Random(20261018)
    for _ in range(15):
        n = rng.randint(4, 6)
        rows = [rng.sample(range(n), rng.randint(2, min(4, n)))
                for _ in range(rng.randint(2, 5))]
        yield ParityCheck(rows, n)


def test_random_sparse_against_oracle():
    with_empty_column = 0
    for H in _random_sparse_matrices():
        with_empty_column += any(not col for col in H.cols)
        oracle = support_guided_rays(H).canonicals()
        for seed in (None, 1, 2):
            rs = enumerate_rays(H, seed=seed)
            assert rs.complete
            assert rs.canonicals() == oracle, (H.rows, H.n_cols, seed)
    assert with_empty_column > 0


def test_combinatorial_test_is_exact(H2, H4, monkeypatch):
    # Every pair that passes the cardinality and combinatorial tests is
    # adjacent: the rank test after them always finds rank n - 2. The
    # counts pin the pairs the combinatorial test admits; q = 4 tight sets
    # span 16 bytes of rows, so they cover memoized byte chunks at every
    # offset.
    ranks = []

    def rank(rows):
        ranks.append(integer_rank(rows))
        return ranks[-1]
    monkeypatch.setattr("pgcone.rays.integer_rank", rank)

    def rank_tests(H, **kwargs):
        ranks.clear()
        enumerate_rays(H, **kwargs)
        assert set(ranks) <= {H.n_cols - 2}
        return len(ranks)
    assert rank_tests(H2) == 40
    assert rank_tests(H2, seed=1) == 66
    assert rank_tests(H4, budget=Budget(max_rays=800)) == 2130
    assert rank_tests(H4, budget=Budget(max_rays=200), seed=1) == 269
    assert sum(rank_tests(H, seed=seed) for H in _random_sparse_matrices()
               for seed in (None, 1, 2)) == 535


def test_oracle_size_gate(H4):
    with pytest.raises(ValueError):
        support_guided_rays(H4)


def test_jsonl_round_trip(tmp_path, rays2):
    path = tmp_path / "rays.jsonl"
    rays2.save_jsonl(path)
    back = RaySet.load_jsonl(path)
    assert back.canonicals() == rays2.canonicals()
    assert back.h_matrix_id == rays2.h_matrix_id
    assert back.complete


def test_jsonl_rejects_ray_length_mismatch(tmp_path, rays2):
    path = tmp_path / "rays.jsonl"
    rays2.save_jsonl(path)
    lines = path.read_text().splitlines()
    lines[1] = json.dumps({"ray": [1, 1, 1, 1]})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LengthMismatch):
        RaySet.load_jsonl(path)


@pytest.mark.parametrize("lines", [
    ['{"h_matrix_id": "x", "complete": true}', '{"ray": [1]}'],
    ['{"h_matrix_id": "x", "complete": true, "n": 1}', '{"rays": [1]}'],
    ['[1, 1]', '{"ray": [1]}'],
    ['{"h_matrix_id": "x", "complete": true, "n": 1}', '{"ray": 1}'],
    ['not json'],
    ['{"h_matrix_id": 7, "complete": true, "n": 1}', '{"ray": [1]}'],
    ['{"h_matrix_id": "x", "complete": "false", "n": 1}', '{"ray": [1]}'],
    ['{"h_matrix_id": "x", "complete": true, "n": "1"}', '{"ray": [1]}'],
    ['{"h_matrix_id": "x", "complete": true, "n": -1}'],
    ['{"h_matrix_id": "x", "complete": true, "n": 2}', '{"ray": ["1/0", 1]}'],
    ['{"h_matrix_id": "x", "complete": true, "n": 2}', '{"ray": [Infinity, 1]}'],
    ['{"h_matrix_id": "x", "complete": true, "n": 2}', '{"ray": [null, 1]}'],
])
def test_jsonl_rejects_malformed_files(tmp_path, lines):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MalformedRaySet, match="bad.jsonl"):
        RaySet.load_jsonl(path)


def test_jsonl_reads_decimal_rays_exactly(tmp_path):
    path = tmp_path / "rays.jsonl"
    path.write_text('{"h_matrix_id": "x", "complete": true, "n": 2}\n'
                    '{"ray": [0.1, 0.3]}\n{"ray": [1e400, 1]}\n')
    assert RaySet.load_jsonl(path).canonicals() == [(1, 3), (10 ** 400, 1)]


def test_rayset_dedupes_scalar_multiples(rays2):
    doubled = [r.scaled(2) for r in rays2]
    rs = RaySet(rays=tuple(rays2) + tuple(doubled),
                h_matrix_id=rays2.h_matrix_id, complete=True)
    assert len(rs) == len(rays2)


def test_rayset_checks_lengths():
    with pytest.raises(LengthMismatch, match="expected length 2, got 3"):
        RaySet(rays=((1, 0), (1, 0, 0)), h_matrix_id="x", complete=True)
    with pytest.raises(LengthMismatch, match="expected length 5, got 2"):
        RaySet(rays=((1, 0),), h_matrix_id="x", complete=True, n=5)
    assert RaySet(rays=((1, 0),), h_matrix_id="x", complete=True).n == 2
    assert RaySet(rays=((1, 0),), h_matrix_id="x", complete=True, n=2).n == 2
    assert RaySet(rays=(), h_matrix_id="x", complete=True, n=5).n == 5


def test_histograms(rays2):
    rows = histogram(rays2, "BEC")
    assert rows[0][0] == 4
    assert sum(c for _, _, c in rows) == 14
    awgnc = histogram(rays2, "AWGNC")
    assert awgnc[0][0] == 4 and awgnc[0][2] == 7
    halves = histogram(rays2, "AWGNC", bin_width=Fraction(1, 2))
    assert sum(c for _, _, c in halves) == 14


def test_histogram_empty():
    rs = RaySet(rays=(), h_matrix_id="none", complete=True, n=0)
    assert histogram(rs, "BEC") == []


def test_histogram_csv(rays2):
    text = histogram_csv(histogram(rays2, "BEC"))
    lines = text.strip().splitlines()
    assert lines[0] == "bin_low,bin_high,count"
    assert len(lines) >= 2


def test_histogram_bad_width(rays2):
    with pytest.raises(ValueError):
        histogram(rays2, "BEC", bin_width=0)


def test_histogram_unknown_kind(rays2):
    with pytest.raises(ValueError, match="unknown channel kind"):
        histogram(rays2, "AWGN")
