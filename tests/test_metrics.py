import csv
import tracemalloc

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, strategies as st

import sdah.metrics
from sdah.metrics import (
    boundary_points,
    dsc,
    evaluate_pairs,
    hd95,
    paired_t_test,
    t_sf_two_sided,
    write_eval_csv,
)


def _rand_mask(rng, h=16, w=16, p=0.3):
    return rng.uniform(size=(h, w)) < p


# -- brute-force references ---------------------------------------------------------

def _ref_dsc(a, b):
    a, b = a.astype(bool), b.astype(bool)
    denom = a.sum() + b.sum()
    return 1.0 if denom == 0 else 2.0 * (a & b).sum() / denom


def _ref_boundary(mask):
    m = mask.astype(bool)
    h, w = m.shape
    pts = []
    for y in range(h):
        for x in range(w):
            if not m[y, x]:
                continue
            edge = y in (0, h - 1) or x in (0, w - 1)
            nbr_out = any(
                not m[y + dy, x + dx]
                for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1))
                if 0 <= y + dy < h and 0 <= x + dx < w
            )
            if edge or nbr_out:
                pts.append((y, x))
    return np.array(pts, dtype=np.float64)


def _ref_hd95(a, b, spacing=(1.0, 1.0)):
    if not a.any() or not b.any():
        return None
    pa = _ref_boundary(a) * spacing
    pb = _ref_boundary(b) * spacing
    d = np.sqrt(((pa[:, None] - pb[None]) ** 2).sum(-1))
    return float(max(np.percentile(d.min(1), 95), np.percentile(d.min(0), 95)))


# -- dsc ------------------------------------------------------------------------

def test_dsc_known_values():
    a = np.zeros((4, 4), dtype=bool)
    b = np.zeros((4, 4), dtype=bool)
    assert dsc(a, b) == 1.0        # both empty: perfect agreement
    a[0, 0] = True
    assert dsc(a, b) == 0.0        # one empty
    b[0, 0] = True
    assert dsc(a, b) == 1.0
    b[1, 1] = True
    assert dsc(a, b) == pytest.approx(2 / 3)


def test_dsc_random_pairs_match_reference():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = _rand_mask(rng), _rand_mask(rng)
        assert dsc(a, b) == _ref_dsc(a, b)


def test_dsc_validation():
    with pytest.raises(ValueError):
        dsc(np.zeros((3, 3)), np.zeros((4, 4)))
    with pytest.raises(ValueError):
        dsc(np.zeros(3), np.zeros(3))


@given(st.integers(0, 10_000))
def test_dsc_symmetry_and_bounds(seed):
    rng = np.random.default_rng(seed)
    a, b = _rand_mask(rng, 8, 8), _rand_mask(rng, 8, 8)
    d = dsc(a, b)
    assert d == dsc(b, a)
    assert 0.0 <= d <= 1.0


# -- boundaries -----------------------------------------------------------------

def test_boundary_single_pixel():
    m = np.zeros((5, 5), dtype=bool)
    m[2, 3] = True
    np.testing.assert_array_equal(boundary_points(m), [[2.0, 3.0]])


def test_boundary_solid_block_is_its_ring():
    m = np.zeros((7, 7), dtype=bool)
    m[1:6, 1:6] = True          # 5x5 block: 25 pixels, 9 interior
    pts = boundary_points(m)
    assert len(pts) == 16
    assert not any((y, x) == (3.0, 3.0) for y, x in pts)


def test_boundary_image_edge_counts_as_outside():
    m = np.ones((3, 4), dtype=bool)
    assert len(boundary_points(m)) == 10   # all but the 2 center pixels


def test_boundary_matches_reference():
    rng = np.random.default_rng(1)
    for _ in range(25):
        m = _rand_mask(rng, 12, 12, 0.4)
        got = boundary_points(m)
        want = _ref_boundary(m)
        if len(want) == 0:
            assert len(got) == 0
        else:
            np.testing.assert_array_equal(got, want)


# -- hd95 -----------------------------------------------------------------------

def test_hd95_known_values():
    a = np.zeros((8, 8), dtype=bool)
    b = np.zeros((8, 8), dtype=bool)
    a[0, 0] = True
    b[3, 4] = True
    assert hd95(a, b) == pytest.approx(5.0)   # single 3-4-5 offset
    assert hd95(a, a) == 0.0


def test_hd95_empty_is_undefined():
    a = np.zeros((4, 4), dtype=bool)
    b = np.ones((4, 4), dtype=bool)
    assert hd95(a, b) is None
    assert hd95(b, a) is None
    assert hd95(a, a) is None


def test_hd95_spacing_scales_distances():
    a = np.zeros((8, 8), dtype=bool)
    b = np.zeros((8, 8), dtype=bool)
    a[0, 0] = True
    b[3, 4] = True
    assert hd95(a, b, spacing=(2.0, 1.0)) == pytest.approx(np.sqrt(36 + 16))
    assert hd95(a, b, spacing=(1.0, 0.5)) == pytest.approx(np.sqrt(9 + 4))


def test_hd95_is_symmetric():
    rng = np.random.default_rng(2)
    a, b = _rand_mask(rng), _rand_mask(rng)
    assert hd95(a, b) == pytest.approx(hd95(b, a), abs=1e-12)


def test_hd95_random_pairs_match_reference():
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(30):
        a, b = _rand_mask(rng, 16, 16, 0.25), _rand_mask(rng, 16, 16, 0.25)
        want = _ref_hd95(a, b)
        got = hd95(a, b)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-9)
            checked += 1
    assert checked >= 25


@pytest.mark.parametrize("na,nb", [(10, 7), (500, 300), (2000, 1500)])
def test_hd95_equals_the_cdist_oracle_bit_for_bit(na, nb):
    """Isolated pixels are all boundary, so each mask holds exactly na (nb)
    boundary points; their distances equal scipy's cdist exactly."""
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(na)
    spacing = (0.7, 1.3)
    masks = []
    for n in (na, nb):
        m = np.zeros((128, 128), bool)
        spots = rng.choice(64 * 64, n, replace=False)
        m[2 * (spots // 64), 2 * (spots % 64)] = True
        masks.append(m)
    pa, pb = (boundary_points(m) * spacing for m in masks)
    assert (len(pa), len(pb)) == (na, nb)
    d = cdist(pa, pb)
    want = float(max(np.percentile(d.min(1), 95), np.percentile(d.min(0), 95)))
    assert hd95(*masks, spacing) == want


@pytest.mark.parametrize("budget", [1, 50, 10**6])
def test_hd95_blocks_give_the_full_matrix_bits(monkeypatch, budget):
    rng = np.random.default_rng(budget)
    a, b = _rand_mask(rng, 24, 20, 0.5), _rand_mask(rng, 24, 20, 0.5)
    want = _ref_hd95(a, b, (0.7, 1.3))
    monkeypatch.setattr(sdah.metrics, "_PAIR_BUDGET", budget)
    assert hd95(a, b, (0.7, 1.3)) == want


def test_hd95_memory_is_bounded():
    """A speckled 128x128 pair has ~7,700 boundary points per mask, ~6e7
    pairs: the full distance matrix would need over 1 GiB."""
    rng = np.random.default_rng(0)
    a, b = _rand_mask(rng, 128, 128, 0.5), _rand_mask(rng, 128, 128, 0.5)
    tracemalloc.start()
    try:
        hd95(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_hd95_uses_boundary_not_area():
    # a filled disk and its ring share a boundary, so hd95 is 0
    yy, xx = np.ogrid[:16, :16]
    disk = (yy - 8) ** 2 + (xx - 8) ** 2 <= 25
    ring = disk & ~((yy - 8) ** 2 + (xx - 8) ** 2 <= 9)
    assert hd95(disk, disk) == 0.0
    assert hd95(disk, ring) is not None
    assert hd95(disk, ring) > 0.0


# -- t-test ---------------------------------------------------------------------

@pytest.mark.parametrize("t,dof", [
    (0.0, 5), (1.0, 1), (2.5, 10), (-2.5, 10), (4.0, 30), (0.1, 2),
    (1e200, 5), (-1e200, 1),
])
def test_t_sf_matches_scipy(t, dof):
    want = 2.0 * scipy.stats.t.sf(abs(t), dof)
    got = t_sf_two_sided(t, dof)
    assert got == pytest.approx(want, rel=1e-10)
    if want in (0.0, 1.0):   # t = 0 and |t| -> inf hit the bounds exactly
        assert got == want


@pytest.mark.parametrize("dof", [1, 2, 5, 30, 300, 3000])
def test_t_sf_matches_scipy_on_a_grid(dof):
    """The own incomplete beta on both sides of its switch to 1 - x."""
    ts = np.linspace(0.0, 40.0, 801)
    want = scipy.special.betainc(dof / 2.0, 0.5, dof / (dof + ts * ts))
    got = np.array([t_sf_two_sided(t, dof) for t in ts])
    keep = want > 1e-300
    np.testing.assert_allclose(got[keep], want[keep], rtol=1e-11, atol=0)


def test_paired_t_matches_scipy():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = rng.integers(3, 40)
        a = rng.normal(size=n)
        b = a + rng.normal(0.2, 0.5, size=n)
        t, p = paired_t_test(a, b)
        ref = scipy.stats.ttest_rel(a, b)
        assert t == pytest.approx(ref.statistic, rel=1e-10)
        assert p == pytest.approx(ref.pvalue, rel=1e-9)


def test_paired_t_validation():
    with pytest.raises(ValueError):
        paired_t_test([1.0], [2.0])
    with pytest.raises(ValueError):
        paired_t_test([1.0, 2.0], [1.5, 2.5])   # constant difference
    with pytest.raises(ValueError):
        paired_t_test([[1.0, 2.0]], [[1.0, 2.0]])
    with pytest.raises(ValueError, match="finite"):
        paired_t_test([1.0, np.nan, 3.0], [1.0, 2.0, 2.5])
    with pytest.raises(ValueError):
        t_sf_two_sided(1.0, 0)


# -- aggregation ------------------------------------------------------------------

def _two_case_fixture():
    gt0 = np.zeros((8, 8), dtype=np.uint8)
    gt0[1:4, 1:4] = 1
    gt0[5:7, 5:7] = 2
    pr0 = gt0.copy()
    pr0[1, 1] = 0                      # chip one class-1 pixel
    gt1 = np.zeros((8, 8), dtype=np.uint8)
    gt1[2:6, 2:6] = 1                  # class 2 absent in both
    pr1 = np.zeros((8, 8), dtype=np.uint8)
    pr1[3:6, 2:6] = 1
    return [pr0, pr1], [gt0, gt1]


def test_evaluate_pairs_rows_and_summary():
    preds, gts = _two_case_fixture()
    rows, summary = evaluate_pairs(preds, gts, classes=3)
    assert len(rows) == 4
    d00 = dsc(preds[0] == 1, gts[0] == 1)
    d10 = dsc(preds[1] == 1, gts[1] == 1)
    assert summary[1]["mean_dsc"] == pytest.approx((d00 + d10) / 2)
    assert summary[1]["hd95_excluded"] == 0
    # class 2 exists only in case 0; case 1 has it empty on both sides
    assert summary[2]["mean_dsc"] == pytest.approx((1.0 + 1.0) / 2)
    assert summary[2]["hd95_excluded"] == 1
    assert summary[2]["mean_hd95"] == pytest.approx(0.0)
    assert summary["avg"]["mean_dsc"] == pytest.approx(
        (summary[1]["mean_dsc"] + summary[2]["mean_dsc"]) / 2)
    assert summary["avg"]["hd95_excluded"] == 1


def test_evaluate_pairs_validation():
    with pytest.raises(ValueError):
        evaluate_pairs([np.zeros((4, 4))], [], classes=2)


def test_eval_csv_round_trip(tmp_path):
    preds, gts = _two_case_fixture()
    rows, summary = evaluate_pairs(preds, gts, classes=3)
    path = tmp_path / "eval.csv"
    write_eval_csv(path, rows, summary)
    with open(path) as f:
        got = list(csv.reader(f))
    assert got[0] == ["case", "class", "dsc", "hd95"]
    assert len(got) == 1 + 4 + 2 * 3
    by_first = {}
    for r in got[1:]:
        by_first.setdefault(r[0], []).append(r)
    assert len(by_first["mean"]) == 3
    assert len(by_first["excluded_hd95"]) == 3
    # undefined hd95 cells stay blank
    empty_case = [r for r in got[1:5] if r[0] == "1" and r[1] == "2"]
    assert empty_case[0][3] == ""
    assert float(by_first["mean"][0][2]) == pytest.approx(
        summary[1]["mean_dsc"], abs=1e-6)
