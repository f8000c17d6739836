import numpy as np
import pytest

from bellowkin.centrode import CentrodeTrace, centrode_from_stream
from bellowkin.contact import freeze, hypothesis_centrode_gradient
from bellowkin.estimation import (
    EstimationProblem,
    _median,
    centrode_objective,
    estimate_contact,
    predicted_centrode,
    speed_weights,
)
from bellowkin.pipeline import PressureRamp, simulate_contact
from tests.conftest import make_random_model
from tests.estimation_reference import grid_oracle
from tests.finite_difference import fd_centrode_gradient
from tests.kinematics_reference import (contact_tip_pose, contact_tip_twist,
                                        fixed_centrode)

RAMP = PressureRamp(5.0, 20.0, 0.05)
TRUTH = 100.0


def centrode_gradient_analytic(model, s_c, q):
    """The exact d(centrode)/d(s_c) as (m, 2) rows; NaN where invalid."""
    g = hypothesis_centrode_gradient(model, s_c, np.asarray(q, dtype=float))
    return np.column_stack((g.dcx, g.dcz))


@pytest.fixture(scope="module")
def sensed_scenario(reference_model):
    samples, _ = simulate_contact(reference_model, RAMP, s_c=TRUTH, q_c=5.0)
    sensed = centrode_from_stream(samples)
    return sensed, (samples.x[-1], samples.z[-1])


def test_predicted_centrode_matches_per_sample_path(reference_model):
    q = np.arange(5.0, 8.0, 0.05)
    pred = predicted_centrode(reference_model, 130.0, q)
    contact = freeze(reference_model, 5.0, 130.0)
    qdot = 0.05
    for k, qk in enumerate(q):
        pose = contact_tip_pose(reference_model, contact, float(qk))
        twist = contact_tip_twist(reference_model, contact, float(qk), qdot)
        ref = fixed_centrode(pose, twist, t_index=k)
        assert pred.valid[k] == ref.valid
        if ref.valid:
            assert pred.cx[k] == pytest.approx(ref.x, rel=1e-10, abs=1e-10)
            assert pred.cz[k] == pytest.approx(ref.z, rel=1e-10, abs=1e-10)


def test_predicted_centrode_single_step(reference_model):
    pts = predicted_centrode(reference_model, 100.0, [5.0])
    assert len(pts.valid) == 1


def test_predicted_centrode_bounds(reference_model):
    with pytest.raises(ValueError):
        predicted_centrode(reference_model, 0.0, [5.0, 5.05])
    with pytest.raises(ValueError):
        predicted_centrode(reference_model, reference_model.L, [5.0, 5.05])


def test_truth_hypothesis_matches_sensed(reference_model, sensed_scenario):
    sensed, _ = sensed_scenario
    pred = predicted_centrode(reference_model, TRUTH, RAMP.values)
    both = sensed.valid & pred.valid
    gaps = np.hypot(sensed.cx - pred.cx, sensed.cz - pred.cz)[both]
    assert len(gaps) > 250
    # residual is differencing error only
    assert max(gaps) <= 0.5


def test_wrong_hypothesis_leaves_residual(reference_model, sensed_scenario):
    sensed, _ = sensed_scenario
    at_truth = centrode_objective(reference_model, TRUTH, RAMP.values, sensed)
    at_200 = centrode_objective(reference_model, 200.0, RAMP.values, sensed)
    assert at_200 > 100.0 * at_truth
    assert at_200 > 1.0


def test_gradient_paths_agree(reference_model):
    # default-step FD on a far hypothesis, where the landscape is tame
    fd = fd_centrode_gradient(reference_model, 200.0, RAMP.values)
    an = centrode_gradient_analytic(reference_model, 200.0, RAMP.values)
    both = np.isfinite(fd).all(axis=1) & np.isfinite(an).all(axis=1)
    rel = (np.linalg.norm(fd[both] - an[both], axis=1)
           / np.maximum(np.linalg.norm(fd[both], axis=1), 1e-9))
    assert np.max(rel) <= 1e-4

    # randomized hypotheses: a finer step keeps the FD truncation error below
    # the agreement tolerance on rows near centrode singularities
    rng = np.random.default_rng(21)
    q = RAMP.values[:60]
    for _ in range(6):
        model = make_random_model(rng, L=500.0) if rng.uniform() < 0.5 \
            else reference_model
        s_c = rng.uniform(0.1, 0.9) * model.L
        fd = fd_centrode_gradient(model, s_c, q, h_s=0.05)
        an = centrode_gradient_analytic(model, s_c, q)
        both = np.isfinite(fd).all(axis=1) & np.isfinite(an).all(axis=1)
        assert np.any(both)
        num = np.linalg.norm(fd[both] - an[both], axis=1)
        den = np.maximum(np.linalg.norm(fd[both], axis=1), 1e-9)
        assert np.max(num / den) <= 1e-4


def test_gradient_warns_at_domain_edge(reference_model):
    with pytest.warns(UserWarning, match="one-sided"):
        g = fd_centrode_gradient(reference_model, 0.3, RAMP.values[:20])
    assert np.any(np.isfinite(g))


def test_normal_equation_step_small_at_truth(reference_model, sensed_scenario):
    sensed, _ = sensed_scenario
    pred = predicted_centrode(reference_model, TRUTH, RAMP.values)
    dc = centrode_gradient_analytic(reference_model, TRUTH, RAMP.values)
    g = 0.0
    H = 0.0
    for k in range(len(sensed.valid)):
        if sensed.valid[k] and pred.valid[k] and np.all(np.isfinite(dc[k])):
            r = np.array([sensed.cx[k] - pred.cx[k], sensed.cz[k] - pred.cz[k]])
            J = -dc[k]
            g += float(J @ r)
            H += float(J @ J)
    assert abs(g / H) <= 0.5


def test_descent_direction_toward_truth(reference_model, sensed_scenario):
    sensed, _ = sensed_scenario
    pred = predicted_centrode(reference_model, 200.0, RAMP.values)
    dc = centrode_gradient_analytic(reference_model, 200.0, RAMP.values)
    g = 0.0
    for k in range(len(sensed.valid)):
        if sensed.valid[k] and pred.valid[k] and np.all(np.isfinite(dc[k])):
            r = np.array([sensed.cx[k] - pred.cx[k], sensed.cz[k] - pred.cz[k]])
            g += float(-dc[k] @ r)
    # positive scalar gradient drives the Gauss-Newton step downward, toward 100
    assert g > 0


def test_estimate_from_above(reference_model, sensed_scenario):
    sensed, end = sensed_scenario
    problem = EstimationProblem(model=reference_model, q_traj=RAMP.values,
                                sensed=sensed, s0=200.0, sensed_end_pose=end)
    s_est, report = estimate_contact(problem)
    assert report["converged"]
    assert abs(s_est - TRUTH) <= 0.5
    assert report["end_tip_error_LU"] <= 0.1


def test_estimate_from_below(reference_model, sensed_scenario):
    sensed, end = sensed_scenario
    problem = EstimationProblem(model=reference_model, q_traj=RAMP.values,
                                sensed=sensed, s0=20.0, sensed_end_pose=end)
    s_est, report = estimate_contact(problem)
    assert report["converged"]
    assert abs(s_est - TRUTH) <= 0.89
    assert report["end_tip_error_LU"] <= 0.89


def test_estimate_starting_at_truth(reference_model, sensed_scenario):
    sensed, end = sensed_scenario
    problem = EstimationProblem(model=reference_model, q_traj=RAMP.values,
                                sensed=sensed, s0=TRUTH, sensed_end_pose=end)
    s_est, report = estimate_contact(problem)
    assert report["converged"]
    assert report["iterations"] <= 2
    assert abs(s_est - TRUTH) <= 0.1


def test_objective_never_worse_than_start(reference_model, sensed_scenario):
    sensed, _ = sensed_scenario
    problem = EstimationProblem(model=reference_model, q_traj=RAMP.values,
                                sensed=sensed, s0=200.0)
    s_est, report = estimate_contact(problem)
    start_obj = centrode_objective(reference_model, 200.0, RAMP.values, sensed)
    assert report["final_objective"] <= start_obj
    objs = [row[2] for row in report["trace"]]
    assert all(b <= a for a, b in zip(objs, objs[1:]))


def test_estimate_invariant_under_weight_rescale(reference_model, sensed_scenario):
    sensed, _ = sensed_scenario
    w = 7.3 * np.ones(len(sensed.valid))
    base = EstimationProblem(model=reference_model, q_traj=RAMP.values,
                             sensed=sensed, s0=200.0)
    scaled = EstimationProblem(model=reference_model, q_traj=RAMP.values,
                               sensed=sensed, s0=200.0, W=w)
    s1, _ = estimate_contact(base)
    s2, _ = estimate_contact(scaled)
    assert abs(s1 - s2) <= 0.01


def test_per_sample_weights(reference_model, sensed_scenario):
    # the estimate pinned from the finite-difference-gradient estimator; the
    # exact gradient moves it by well under 1e-6 LU
    sensed, _ = sensed_scenario
    problem = EstimationProblem(model=reference_model, q_traj=RAMP.values,
                                sensed=sensed, s0=200.0,
                                W=speed_weights(sensed))
    s_est, report = estimate_contact(problem)
    assert report["converged"]
    assert s_est == pytest.approx(100.00066581455694, abs=1e-6)


def test_sensed_trace_as_arrays_or_lists(reference_model, sensed_scenario):
    sensed, end = sensed_scenario
    trace = CentrodeTrace(cx=sensed.cx.tolist(), cz=sensed.cz.tolist(),
                          valid=sensed.valid.tolist())
    results = []
    for given in (sensed, trace):
        problem = EstimationProblem(model=reference_model, q_traj=RAMP.values,
                                    sensed=given, s0=200.0, sensed_end_pose=end)
        results.append(estimate_contact(problem)[1])
    assert results[0]["trace"] == results[1]["trace"]
    assert centrode_objective(reference_model, 150.0, RAMP.values, trace) == \
        centrode_objective(reference_model, 150.0, RAMP.values, sensed)


def test_speed_weights_shape_and_range(reference_model, sensed_scenario):
    sensed, _ = sensed_scenario
    w = speed_weights(sensed)
    assert len(w) == len(sensed.valid)
    assert np.all(w > 0) and np.all(w <= 1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 64, 599, 600, 1001])
def test_median_matches_nanmedian_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for scale in (1e-300, 1.0, 1e300):
        a = rng.lognormal(size=n) * scale
        a[rng.random(n) < 0.2] = 0.0
        assert _median(a) == float(np.nanmedian(a))
        a[: n // 2] = a[-1]  # ties
        assert _median(a) == float(np.nanmedian(a))


def test_non_convergence_reports_best_iterate(reference_model, sensed_scenario):
    sensed, _ = sensed_scenario
    problem = EstimationProblem(model=reference_model, q_traj=RAMP.values,
                                sensed=sensed, s0=400.0)
    s_est, report = estimate_contact(problem, max_iter=1)
    assert not report["converged"]
    assert report["iterations"] == 1
    start_obj = centrode_objective(reference_model, 400.0, RAMP.values, sensed)
    assert report["final_objective"] <= start_obj


def test_grid_oracle_scenarios(reference_model, sensed_scenario):
    sensed, _ = sensed_scenario
    grid = np.arange(50.0, 400.0 + 1, 50.0)
    assert grid_oracle(reference_model, sensed, RAMP.values, grid) == TRUTH
    assert grid_oracle(reference_model, sensed, RAMP.values, [270.0]) == 270.0
    # duplicated argmin: ascending scan with strict improvement keeps the first
    assert grid_oracle(reference_model, sensed, RAMP.values,
                       [200.0, 100.0, 100.0]) == TRUTH
    with pytest.raises(ValueError, match="empty"):
        grid_oracle(reference_model, sensed, RAMP.values, [])


def test_problem_validation(reference_model, sensed_scenario):
    sensed, _ = sensed_scenario
    q = RAMP.values
    with pytest.raises(ValueError, match="s0 outside"):
        EstimationProblem(model=reference_model, q_traj=q, sensed=sensed,
                          s0=600.0)
    with pytest.raises(ValueError, match="bounds"):
        EstimationProblem(model=reference_model, q_traj=q, sensed=sensed,
                          s0=100.0, bounds=(400.0, 200.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        EstimationProblem(model=reference_model, q_traj=q[::-1], sensed=sensed,
                          s0=100.0)
    with pytest.raises(ValueError, match="differ in length"):
        EstimationProblem(model=reference_model, q_traj=q[:-1], sensed=sensed,
                          s0=100.0)
    n = len(sensed.valid)
    one_zero = np.ones(n)
    one_zero[7] = 0.0
    one_inf = np.ones(n)
    one_inf[7] = np.inf
    for W in (-np.ones(n), one_zero, one_inf, np.full(n, np.nan),
              np.ones(5), np.ones(n + 1), np.eye(n), np.ones((n, 1))):
        with pytest.raises(ValueError, match="one finite, positive weight "
                                             f"for each of the {n} samples"):
            EstimationProblem(model=reference_model, q_traj=q, sensed=sensed,
                              s0=100.0, W=W)
    with pytest.raises(ValueError, match="positive weight"):
        centrode_objective(reference_model, 100.0, q, sensed, W=np.ones(5))


def test_objective_requires_valid_overlap(reference_model):
    q = RAMP.values[:10]
    dead = CentrodeTrace(cx=np.full(len(q), np.nan), cz=np.full(len(q), np.nan),
                         valid=np.zeros(len(q), dtype=bool))
    with pytest.raises(ValueError, match="no overlapping valid"):
        centrode_objective(reference_model, 100.0, q, dead)
