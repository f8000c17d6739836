"""contact.RampPins, built once per ramp, against the per-hypothesis path
it replaced (tests/contact_reference.py): sweep rows, centrodes, centrode
gradients and LM reports equal bit for bit."""

import numpy as np
import pytest

from bellowkin import modal, pipeline
from bellowkin.centrode import centrode_from_stream
from bellowkin.contact import (RampPins, freeze, hypothesis_centrode_gradient,
                               pinned_ramp)
from bellowkin.estimation import (EstimationProblem, estimate_contact,
                                  predicted_centrode, speed_weights)
from bellowkin.pipeline import PressureRamp
from tests import contact_reference as ref
from tests.conftest import make_random_model


def models(reference_model):
    rng = np.random.default_rng(2020)
    return [reference_model] + [make_random_model(rng) for _ in range(4)]


def ramps():
    """Uniform ramps of 1, 2, 151, 301 and 601 samples on 5..20, and a
    non-uniform array ramp."""
    out = [PressureRamp(5.0, 5.0, 0.0), PressureRamp(5.0, 5.05, 0.05),
           PressureRamp(5.0, 20.0, 0.1), PressureRamp(5.0, 20.0, 0.05),
           PressureRamp(5.0, 20.0, 0.025)]
    steps = np.random.default_rng(7).uniform(0.01, 0.2, 120)
    out.append(5.0 + np.concatenate(([0.0], np.cumsum(steps))))
    return out


def assert_traces_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def test_sweep_rows_equal_the_per_hypothesis_sweep(reference_model):
    rng = np.random.default_rng(401)
    for model in models(reference_model):
        s_values = np.concatenate(([0.0], rng.uniform(0.0, model.L, 12)))
        for ramp in ramps():
            assert (pipeline.sweep(model, ramp, s_values)
                    == ref.sweep(model, ramp, s_values))


def test_gradients_and_centrodes_equal_the_per_hypothesis_path(
        reference_model):
    rng = np.random.default_rng(402)
    for model in models(reference_model):
        for ramp in ramps():
            q, _ = pipeline._pressures(ramp)
            pins = RampPins(model, q)
            for s_c in rng.uniform(0.0, model.L, 6):
                want = ref.hypothesis_centrode_gradient(model, s_c, q)
                assert_traces_equal(pins.gradient(s_c), want)
                assert_traces_equal(
                    hypothesis_centrode_gradient(model, s_c, q), want)
                assert_traces_equal(pins.centrode(s_c), want[:3])
                assert_traces_equal(predicted_centrode(model, s_c, q),
                                    ref.predicted_centrode(model, s_c, q))
                contact, qdot, k = pinned_ramp(model, s_c, q)
                want_contact, want_qdot, want_k = ref.pinned_ramp(model, s_c, q)
                assert (contact, qdot) == (want_contact, want_qdot)
                assert contact == freeze(model, float(q[0]), s_c)
                assert_traces_equal(k, want_k)


def noisy_problems(model, rng):
    """Seeded noisy contact streams as estimation problems: with and
    without speed weights and the sensed end pose."""
    for n in (151, 301, 601):
        ramp = PressureRamp(5.0, 20.0, 15.0 / (n - 1))
        s_c = float(rng.uniform(0.1, 0.9) * model.L)
        stream, _ = pipeline.simulate_contact(model, ramp, s_c, 5.0)
        stream = pipeline.add_noise(stream, 0.01, 0.001,
                                    seed=int(rng.integers(1 << 30)))
        sensed = centrode_from_stream(stream)
        s0 = float(rng.uniform(0.05, 0.95) * model.L)
        yield EstimationProblem(model, ramp.values, sensed, s0)
        yield EstimationProblem(model, ramp.values, sensed, s0,
                                W=speed_weights(sensed),
                                sensed_end_pose=(stream.x[-1], stream.z[-1]))


@pytest.mark.parametrize("max_iter", [1, 3, 100])
def test_lm_reports_equal_the_per_hypothesis_solve(reference_model, max_iter):
    rng = np.random.default_rng(403 + max_iter)
    for model in models(reference_model):
        for problem in noisy_problems(model, rng):
            got = estimate_contact(problem, max_iter=max_iter)
            want = ref.estimate_contact(problem, max_iter=max_iter)
            # NaN end-tip errors compare equal through their repr
            assert repr(got) == repr(want)


def test_estimate_builds_one_pressure_factor_per_solve(reference_model,
                                                       monkeypatch):
    # one build for the solve's pins, one for the end-tip read; none per
    # LM evaluation, however many iterations the solve takes
    built = []
    factor = modal.pressure_factor

    def counting_factor(model, q, *args, **kwargs):
        built.append(np.size(q))
        return factor(model, q, *args, **kwargs)

    monkeypatch.setattr(modal, "pressure_factor", counting_factor)
    rng = np.random.default_rng(404)
    iterations = set()
    for problem in noisy_problems(reference_model, rng):
        for max_iter in (1, 2, 100):
            built.clear()
            _, report = estimate_contact(problem, max_iter=max_iter)
            iterations.add(report["iterations"])
            end = [2] if problem.sensed_end_pose is not None else []
            assert built == [problem.q_traj.size] + end
    assert len(iterations) >= 3


def test_ramp_dipping_below_its_first_pressure_is_refused(reference_model):
    q = np.array([5.0, 5.1, 4.9, 5.3])
    with pytest.raises(ValueError, match="below contact onset 5.0"):
        RampPins(reference_model, q)
    with pytest.raises(ValueError, match="below contact onset 5.0"):
        pinned_ramp(reference_model, 100.0, q)
    with pytest.raises(ValueError, match="below contact onset 5.0"):
        hypothesis_centrode_gradient(reference_model, 100.0, q)
    for read in (lambda: predicted_centrode(reference_model, 100.0, q),
                 lambda: pipeline.sweep(reference_model, q, [0.0, 100.0])):
        with pytest.raises(ValueError, match="strictly increasing"):
            read()
    # within the onset tolerance the pin holds
    RampPins(reference_model, [5.0, 5.0 - 1e-13, 5.2])


def test_pins_refuse_s_c_outside_the_backbone(reference_model):
    pins = RampPins(reference_model, PressureRamp(5.0, 20.0, 0.05).values)
    for s_c in (0.0, -1.0, reference_model.L, 1e9):
        for read in (pins.freeze, pins.centrode, pins.gradient):
            with pytest.raises(ValueError, match="strictly inside"):
                read(s_c)
