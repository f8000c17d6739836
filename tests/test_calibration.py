import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellowkin import modal
from bellowkin.calibration import (
    CalibrationDataset,
    RankDeficientError,
    build_design_matrices,
    fit_modal,
    load_calibration_csv,
    tangents_from_points,
)
from bellowkin.synthetic import cumulative_stations, make_reference_dataset
from tests.calibration_reference import dataset_from_model, tangents_loop
from tests.conftest import make_random_model


def test_tangents_straight_line_along_z():
    pts = [(0.0, 10.0 * k) for k in range(6)]
    s, th = tangents_from_points(pts)
    assert np.allclose(s, [0, 10, 20, 30, 40, 50], atol=1e-12)
    assert np.allclose(th, np.pi / 2, atol=1e-12)


def test_tangents_circle_arc():
    # quarter circle of radius r starting at the origin along +x; the
    # one-sided quadratic at the two end stations dominates with error
    # (alpha/(n-1))^3/4, interior stations are exact by symmetry
    r = 300.0
    alpha = np.pi / 2
    for n, tol in [(10, 1.4e-3), (11, 1e-3)]:
        phi = np.linspace(0.0, alpha, n)
        pts = np.column_stack([r * np.sin(phi), r * (1 - np.cos(phi))])
        _, th = tangents_from_points(pts)
        err = np.abs(th - phi)
        assert np.max(err) <= tol
        assert np.max(err[1:-1]) <= 1e-9


def test_tangents_rejects_degenerate_input():
    with pytest.raises(ValueError):
        tangents_from_points([(0, 0), (1, 0)])
    with pytest.raises(ValueError):
        tangents_from_points([(0, 0), (1, 0), (1, 0), (2, 0)])


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
       st.lists(st.tuples(st.floats(1e-3, 100.0), st.floats(-np.pi, np.pi)),
                min_size=2, max_size=40))
def test_tangents_match_the_scalar_loop(base, steps):
    # the array expression is the per-station Lagrange loop, bit for bit,
    # on marker sets of any spacing and heading
    length, heading = np.asarray(steps).T
    points = np.cumsum(np.vstack([base, np.column_stack(
        (length * np.cos(heading), length * np.sin(heading)))]), axis=0)
    s, th = tangents_from_points(points)
    s_ref, th_ref = tangents_loop(points)
    np.testing.assert_array_equal(s, s_ref)
    np.testing.assert_array_equal(th, th_ref)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=3), st.integers(3, 30),
       st.integers(0, 2 ** 32 - 1))
def test_tangents_batched_equal_each_backbone(batch, n, seed):
    # a stack of backbones, of any leading shape, is read as each
    # backbone on its own, bit for bit
    rng = np.random.default_rng(seed)
    steps = rng.uniform(1e-3, 100.0, (*batch, n - 1, 1)) * np.stack(
        [np.cos(h := rng.uniform(-np.pi, np.pi, (*batch, n - 1))),
         np.sin(h)], axis=-1)
    base = rng.uniform(-1e3, 1e3, (*batch, 1, 2))
    points = np.cumsum(np.concatenate([base, steps], axis=-2), axis=-2)
    s, th = tangents_from_points(points)
    assert s.shape == th.shape == (*batch, n)
    for k in np.ndindex(*batch):
        s_one, th_one = tangents_from_points(points[k])
        np.testing.assert_array_equal(s[k], s_one)
        np.testing.assert_array_equal(th[k], th_one)


def test_design_matrix_structure():
    s = np.array([0.0, 0.3, 0.7, 1.0])
    q = np.array([0.0, 6.0, 10.0])
    omega, gamma = build_design_matrices(s, q, 3, 2)
    assert np.array_equal(omega[:, 0], np.ones(4))
    assert np.array_equal(omega[:, 1], s)
    assert np.array_equal(omega[:, 2], s ** 2)
    assert np.array_equal(gamma[0], np.ones(3))
    assert np.array_equal(gamma[1], q)
    omega1, _ = build_design_matrices([0.5], [1.0], 1, 1)
    assert omega1.shape == (1, 1) and omega1[0, 0] == 1.0
    with pytest.raises(ValueError):
        build_design_matrices([], [1.0], 2, 2)


def test_exact_recovery_of_generating_coefficients():
    rng = np.random.default_rng(7)
    for _ in range(5):
        truth = make_random_model(rng, v=3, w=3, L=500.0)
        ds = dataset_from_model(truth, np.linspace(0.0, 500.0, 10),
                                [0.0, 6.0, 10.0, 15.0, 21.0])
        model, report = fit_modal(ds, v=3, w=3)
        assert np.max(np.abs(model.A - truth.A)) <= 1e-8
        assert report.max_theta_err_rad <= 1e-8


def test_all_zero_angles_give_zero_coefficients():
    from bellowkin.modal import ModalModel
    zero = ModalModel(A=np.zeros((3, 3)), L=500.0)
    ds = dataset_from_model(zero, np.linspace(0.0, 500.0, 10),
                            [0.0, 6.0, 10.0, 15.0, 21.0])
    model, _ = fit_modal(ds, v=3, w=3)
    assert np.max(np.abs(model.A)) <= 1e-12


def test_fit_invariant_under_row_order(tmp_path, reference_dataset):
    from bellowkin.synthetic import write_calibration_csv
    ordered = tmp_path / "ordered.csv"
    shuffled = tmp_path / "shuffled.csv"
    write_calibration_csv(reference_dataset, ordered)
    lines = ordered.read_text().splitlines()
    rng = np.random.default_rng(3)
    body = [lines[i + 1] for i in rng.permutation(len(lines) - 1)]
    shuffled.write_text("\n".join([lines[0]] + body) + "\n")
    m1, r1 = fit_modal(load_calibration_csv(ordered))
    m2, r2 = fit_modal(load_calibration_csv(shuffled))
    assert np.array_equal(m1.A, m2.A)
    assert r1.per_pressure == r2.per_pressure


def test_length_rescale_scales_residuals(reference_dataset):
    k = 2.5
    scaled = CalibrationDataset.from_points(
        reference_dataset.pressures,
        [p * k for p in reference_dataset.points])
    _, base = fit_modal(reference_dataset)
    _, resc = fit_modal(scaled)
    for rb, rs in zip(base.per_pressure, resc.per_pressure):
        assert rs["max_tip_err_mm"] == pytest.approx(k * rb["max_tip_err_mm"],
                                                     rel=1e-9, abs=1e-12)
        assert rs["max_point_err_mm"] == pytest.approx(k * rb["max_point_err_mm"],
                                                       rel=1e-9, abs=1e-12)


def test_underdetermined_sample_count_rejected(reference_dataset):
    with pytest.raises(ValueError, match="cannot determine"):
        fit_modal(reference_dataset, v=6, w=9)


def test_rank_deficient_arc_directions_named():
    from bellowkin.modal import ModalModel
    zero = ModalModel(A=np.zeros((1, 1)), L=500.0)
    ds = dataset_from_model(zero, [0.0, 500.0], [0.0, 6.0, 10.0, 15.0, 21.0])
    with pytest.raises(RankDeficientError) as info:
        fit_modal(ds, v=3, w=1)
    assert str(info.value) == ("arc-length basis rank 2 < 3; unresolved "
                               "directions: s^2")


def test_rank_deficient_pressure_directions_named():
    from bellowkin.modal import ModalModel
    zero = ModalModel(A=np.zeros((1, 1)), L=500.0)
    ds = dataset_from_model(zero, np.linspace(0.0, 500.0, 9), [0.0, 21.0])
    with pytest.raises(RankDeficientError) as info:
        fit_modal(ds, v=1, w=3)
    assert str(info.value) == ("pressure basis rank 2 < 3; unresolved "
                               "directions: q^2")
    # two pressures, but 1e-300 apart: q^1 is resolved only above the
    # rank tolerance, which refuses it
    ds = dataset_from_model(zero, np.linspace(0.0, 500.0, 9), [0.0, 1e-300])
    with pytest.raises(RankDeficientError) as info:
        fit_modal(ds, v=1, w=2)
    assert str(info.value) == ("pressure basis rank 1 < 2; unresolved "
                               "directions: q^1")


@pytest.mark.parametrize("n, v, w", [(10, 3, 3), (20, 3, 4), (40, 4, 3),
                                     (40, 4, 4), (10, 1, 1), (10, 5, 4)])
def test_conditioning_is_the_product_of_factor_conditions(n, v, w):
    # taken from each factor's one SVD, bit for bit numpy's cond
    ds = make_reference_dataset(n_points=n)
    _, report = fit_modal(ds, v=v, w=w)
    omega, gamma = build_design_matrices(ds.s_samples / ds.L, ds.pressures,
                                         v, w)
    assert report.conditioning == float(np.linalg.cond(omega)
                                        * np.linalg.cond(gamma))


def test_csv_loader_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_calibration_csv(empty)

    header_only = tmp_path / "header.csv"
    header_only.write_text("pressure_psi,point_index,x,z\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_calibration_csv(header_only)

    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("p,i,x,z\n0,0,0,0\n")
    with pytest.raises(ValueError, match="header"):
        load_calibration_csv(bad_header)

    bad_row = tmp_path / "bad_row.csv"
    bad_row.write_text("pressure_psi,point_index,x,z\n0,0,0,0\n0,1,abc,0\n")
    with pytest.raises(ValueError, match="row 2"):
        load_calibration_csv(bad_row)

    # rows are numbered from 1 after the header, blank lines skipped
    for bad in ("nan,1,0,0", "0,1,inf,0", "0,1,0,-inf"):
        non_finite = tmp_path / "non_finite.csv"
        non_finite.write_text(f"pressure_psi,point_index,x,z\n0,0,0,0\n\n{bad}\n")
        with pytest.raises(ValueError, match="row 2: .* must be finite"):
            load_calibration_csv(non_finite)

    for bad in ("0,1.5,0,0", "0,nan,0,0", "0,inf,0,0", "nan,0.5,0,0"):
        fractional = tmp_path / "fractional.csv"
        fractional.write_text(f"pressure_psi,point_index,x,z\n0,0,0,0\n{bad}\n")
        with pytest.raises(ValueError, match="row 2: point_index must be an "
                                             "integer"):
            load_calibration_csv(fractional)


def test_csv_point_indices_must_match_across_pressures(tmp_path):
    header = "pressure_psi,point_index,x,z\n"
    ok = "0,0,0,0\n0,1,1,0\n0,2,2,0\n5,0,0,0\n5,1,1,0\n5,2,2,0\n"
    cases = [
        # an index repeated at one pressure: the repeat, in file order
        ("0,0,0,0\n0,1,1,0\n0,2,2,0\n5,0,0,0\n5,2,1,0\n5,2,2,0\n",
         "row 6: point_index 2 repeats at pressure 5 (first given at row 5)"),
        ("5,1,1,0\n0,0,0,0\n0,1,1,0\n5,1,2,0\n0,2,2,0\n5,0,0,0\n",
         "row 4: point_index 1 repeats at pressure 5 (first given at row 1)"),
        # the same count, but not the same indices
        ("0,0,0,0\n0,1,1,0\n0,2,2,0\n5,0,0,0\n5,1,1,0\n5,3,2,0\n",
         "row 3: point_index 2 is not given at every pressure"),
        # an index given at one pressure only
        ("0,0,0,0\n0,1,1,0\n0,2,2,0\n5,0,0,0\n5,1,1,0\n5,2,2,0\n5,7,3,0\n",
         "row 7: point_index 7 is not given at every pressure"),
    ]
    good = tmp_path / "good.csv"
    good.write_text(header + ok)
    assert load_calibration_csv(good).s_samples.size == 3
    for body, message in cases:
        bad = tmp_path / "bad.csv"
        bad.write_text(header + body)
        with pytest.raises(ValueError) as info:
            load_calibration_csv(bad)
        assert str(info.value) == f"calibration CSV {message}"


def test_inconsistent_point_counts_rejected():
    a = [(0, 0), (1, 0), (2, 0), (3, 0)]
    b = [(0, 0), (1, 0), (2, 0)]
    with pytest.raises(ValueError, match="inconsistent"):
        CalibrationDataset.from_points([0.0, 5.0], [a, b])


def test_reference_fit_residuals(reference_report):
    worst = reference_report.max_point_err_mm
    assert worst < 2.1
    per_q = [(r["q"], r["max_point_err_mm"]) for r in reference_report.per_pressure]
    assert max(per_q, key=lambda t: t[1])[0] == 21.0
    assert reference_report.base_angle_warnings == []
    assert np.isfinite(reference_report.conditioning)


def test_reference_dataset_matches_shipped_csv(reference_dataset):
    # the shipped markers were written by an earlier integrator: the
    # regenerated ones differ from them by round-off (1.1e-13 px) alone
    regen = make_reference_dataset()
    assert np.array_equal(regen.pressures, reference_dataset.pressures)
    np.testing.assert_allclose(np.asarray(regen.points),
                               np.asarray(reference_dataset.points),
                               rtol=0, atol=1e-12)


def test_fit_reads_the_field_once(monkeypatch, reference_dataset):
    # the report's marker positions and base angles, at every pressure,
    # come from one theta_grid read and no scalar or station-rule read
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("bellowkin"):
            continue
        for name in ("_field", "theta_grid", "theta", "cumulative_stations"):
            if callable(getattr(module, name, None)):
                monkeypatch.setattr(module, name,
                                    counting(name, getattr(module, name)))
    fit_modal(reference_dataset, v=3, w=3)
    assert calls == ["theta_grid", "_field"]


def test_fit_positions_match_the_station_rule(reference_fit, reference_dataset):
    # the arc rule's marker positions agree with the 5-point station rule
    # to round-off, at every station and pressure
    model, report = reference_fit
    for j, q in enumerate(reference_dataset.pressures):
        pos = cumulative_stations(lambda s: modal.theta(model, s, q),
                                  reference_dataset.s_samples)
        ref = reference_dataset.points[j] - reference_dataset.points[j][0]
        err = np.linalg.norm(pos - ref, axis=1) * model.unit_scale
        row = report.per_pressure[j]
        assert abs(row["max_tip_err_mm"] - err[-1]) <= 1e-12
        assert abs(row["max_point_err_mm"] - np.max(err)) <= 1e-12
