import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellowkin.centrode import (
    CentrodeTrace,
    PoseStream,
    _aligned_deviations,
    _nan_percentile,
    centrode_from_stream,
    default_threshold,
    fcd_detect,
    instant_centers,
    read_centrode,
    read_pose_stream,
    write_centrode,
    write_pose_stream,
)
from bellowkin.kinematics import PlanarPose, wrap_angles
from bellowkin.pipeline import PressureRamp, model_centrode, simulate_free
from tests.fcd_reference import fcd_onset_loop


def rotation_samples(center, r, phi0, omega, n, theta0=0.0):
    """Rigid rotation of a body point about `center`, one step per sample."""
    a, b = center
    k = np.arange(n)
    phi = phi0 + omega * k
    return PoseStream(t=k, q=k.astype(float), x=a + r * np.cos(phi),
                      z=b + r * np.sin(phi),
                      theta=wrap_angles(theta0 + omega * k))


def assert_same_stream(a, b):
    for name, u, v in zip(PoseStream._fields, a, b):
        assert np.array_equal(u, v), name


def center(pose, vx, vz, omega):
    """instant_centers at one pose and twist, as (cx, cz, valid)."""
    c = instant_centers(*np.array([[pose.x, pose.z, vx, vz, omega]]).T)
    return float(c.cx[0]), float(c.cz[0]), bool(c.valid[0])


def test_centrode_rotation_about_origin():
    r, phi, om = 50.0, 0.7, 0.3
    P = PlanarPose(x=r * math.cos(phi), z=r * math.sin(phi), theta=0.0)
    cx, cz, valid = center(P, -om * P.z, om * P.x, om)
    assert valid
    assert abs(cx) <= 1e-12 and abs(cz) <= 1e-12


def test_centrode_rotation_about_point():
    a, b, r, phi, om = 12.0, -7.0, 30.0, 1.1, -0.2
    P = PlanarPose(x=a + r * math.cos(phi), z=b + r * math.sin(phi), theta=0.0)
    cx, cz, valid = center(P, -om * r * math.sin(phi), om * r * math.cos(phi), om)
    assert valid
    assert cx == pytest.approx(a, abs=1e-12)
    assert cz == pytest.approx(b, abs=1e-12)


def test_centrode_translation_invalid():
    cx, cz, valid = center(PlanarPose(x=1.0, z=2.0, theta=0.3), 5.0, -2.0, 0.0)
    assert not valid
    assert math.isnan(cx) and math.isnan(cz)


@given(k=st.floats(-10, 10).filter(lambda v: abs(v) > 1e-3))
def test_centrode_homogeneous_in_twist(k):
    P = PlanarPose(x=3.0, z=4.0, theta=0.1)
    V1 = (1.5, -0.5, 0.25)
    c1 = center(P, *V1)
    ck = center(P, *(k * v for v in V1))
    assert ck[2]
    assert ck[0] == pytest.approx(c1[0], rel=1e-12, abs=1e-12)
    assert ck[1] == pytest.approx(c1[1], rel=1e-12, abs=1e-12)


@settings(max_examples=25)
@given(phi1=st.floats(0, 6.2), phi2=st.floats(0, 6.2),
       r1=st.floats(0.5, 40), r2=st.floats(0.5, 40))
def test_centrode_same_for_any_body_point(phi1, phi2, r1, r2):
    # two points of one rigid motion name the same instant center
    a, b, om = 5.0, 9.0, 0.4
    centers = []
    for r, phi in [(r1, phi1), (r2, phi2)]:
        P = PlanarPose(x=a + r * math.cos(phi), z=b + r * math.sin(phi), theta=0.0)
        centers.append(center(P, -om * r * math.sin(phi),
                              om * r * math.cos(phi), om))
    assert centers[0][0] == pytest.approx(centers[1][0], abs=1e-9)
    assert centers[0][1] == pytest.approx(centers[1][1], abs=1e-9)


def test_stream_recovers_rigid_center():
    # differencing bias grows with the rotation arm (O(r h^2) interior,
    # double that at the one-sided ends); keep the arm short
    for r in [1.0, 2.0]:
        samples = rotation_samples((40.0, -15.0), r, 0.3, 0.01, 100)
        pts = centrode_from_stream(samples)
        assert pts.valid.all()
        err = np.hypot(pts.cx - 40.0, pts.cz + 15.0)
        assert np.max(err) <= 1e-4


def test_stream_stationary_all_invalid():
    ones = np.ones(10)
    samples = PoseStream(t=np.arange(10), q=0.0 * ones, x=3.0 * ones,
                         z=1.0 * ones, theta=0.2 * ones)
    pts = centrode_from_stream(samples)
    assert not pts.valid.any()


def test_stream_input_validation():
    samples = rotation_samples((0.0, 0.0), 1.0, 0.0, 0.01, 2)
    with pytest.raises(ValueError, match="at least 3"):
        centrode_from_stream(samples)
    s3 = rotation_samples((0.0, 0.0), 1.0, 0.0, 0.01, 4)
    jagged = s3.rows([0, 1, 3])
    with pytest.raises(ValueError, match="uniformly"):
        centrode_from_stream(jagged)


def test_stream_handles_wrap_seam():
    # theta samples cross +pi; unwrapping keeps omega near its true value
    samples = rotation_samples((10.0, 5.0), 1.5, 0.0, 0.01, 60,
                               theta0=math.pi - 0.2)
    pts = centrode_from_stream(samples)
    err = np.hypot(pts.cx - 10.0, pts.cz - 5.0)[pts.valid]
    assert pts.valid.all()
    assert np.max(err) <= 1e-4


def test_stream_converges_to_model_centrode(reference_model):
    # sensed-vs-analytic gap shrinks at least linearly in the ramp step
    errs = []
    for h in [0.2, 0.1, 0.05]:
        ramp = PressureRamp(5.0, 20.0, h)
        sensed = centrode_from_stream(simulate_free(reference_model, ramp))
        model_side = model_centrode(reference_model, ramp)
        dev = _aligned_deviations(sensed, model_side)
        errs.append(float(np.nanmax(dev)))
    assert errs[-1] <= 0.5
    assert errs[0] / errs[1] >= 1.8
    assert errs[1] / errs[2] >= 1.8


def mk_trace(devs, valid=None):
    n = len(devs)
    base = CentrodeTrace(cx=np.zeros(n), cz=np.zeros(n),
                         valid=np.ones(n, dtype=bool))
    ok = np.ones(n, dtype=bool) if valid is None else np.asarray(valid)
    off = CentrodeTrace(cx=np.where(ok, np.asarray(devs, dtype=float), np.nan),
                        cz=np.zeros(n), valid=ok)
    return off, base


def head(trace, n):
    return CentrodeTrace(*(c[:n] for c in trace))


def test_fcd_identical_traces_no_detection():
    a, b = mk_trace([0.0] * 8)
    res = fcd_detect(a, b, xi=1e-6)
    assert not res.detected
    assert res.onset_t == -1
    assert res.max_deviation == 0.0


def test_fcd_threshold_dominates():
    a, b = mk_trace([0.5, 0.8, 0.9, 0.7])
    res = fcd_detect(a, b, xi=1.0)
    assert not res.detected
    assert res.max_deviation == pytest.approx(0.9)


def test_fcd_window_requires_consecutive_run():
    # two-long burst resets; detection waits for the three-long run
    a, b = mk_trace([0.0, 2.0, 2.0, 0.0, 2.0, 2.0, 2.0, 0.0])
    res = fcd_detect(a, b, xi=1.0, window=3)
    assert res.detected
    assert res.onset_t == 4
    res1 = fcd_detect(a, b, xi=1.0, window=1)
    assert res1.onset_t == 1


def test_fcd_invalid_samples_are_skipped():
    # the invalid sample inside the run neither extends nor resets it
    a, b = mk_trace([0.0, 2.0, 2.0, 0.0, 2.0, 0.0],
                    valid=[True, True, True, False, True, True])
    res = fcd_detect(a, b, xi=1.0, window=3)
    assert res.detected
    assert res.onset_t == 1


def test_fcd_rejects_degenerate_inputs():
    a, b = mk_trace([0.0, 1.0], valid=[False, False])
    with pytest.raises(ValueError, match="no overlapping valid"):
        fcd_detect(a, b, xi=0.5)
    a, b = mk_trace([0.0, 1.0])
    for xi in (0.0, float("nan")):
        with pytest.raises(ValueError):
            fcd_detect(a, b, xi=xi)
    with pytest.raises(ValueError):
        fcd_detect(a, b, xi=0.5, window=0)
    with pytest.raises(ValueError, match="length"):
        fcd_detect(head(a, 1), b, xi=0.5)


def test_isa_difference_zero_for_identical():
    a, b = mk_trace([0.0] * 5)
    series = _aligned_deviations(a, b)
    assert np.nanmax(series) == 0.0


def test_default_threshold_from_free_run(reference_model):
    ramp = PressureRamp(5.0, 20.0, 0.05)
    sensed = centrode_from_stream(simulate_free(reference_model, ramp))
    modeled = model_centrode(reference_model, ramp)
    xi = default_threshold(sensed, modeled)
    dev = _aligned_deviations(sensed, modeled)
    assert xi > 0
    assert xi >= np.nanpercentile(dev, 95.0)  # factor 3 sits above the floor
    assert xi <= 3.0 * np.nanmax(dev)


def test_pose_stream_csv_round_trip(tmp_path, reference_model):
    ramp = PressureRamp(5.0, 6.0, 0.25)
    samples = simulate_free(reference_model, ramp)
    path = tmp_path / "stream.csv"
    write_pose_stream(path, samples)
    back = read_pose_stream(path)
    assert len(back.t) == len(samples.t)
    assert np.array_equal(back.t, samples.t) and np.array_equal(back.q, samples.q)
    assert np.array_equal(back.x, samples.x) and np.array_equal(back.z, samples.z)
    assert np.array_equal(back.theta, samples.theta)


def test_pose_stream_crlf_round_trip(tmp_path, reference_model):
    samples = simulate_free(reference_model, PressureRamp(5.0, 6.0, 0.25))
    path = tmp_path / "stream.csv"
    write_pose_stream(path, samples)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert_same_stream(read_pose_stream(path), samples)


def test_centrode_csv_round_trip(tmp_path):
    pts = CentrodeTrace(cx=np.array([1.25, np.nan]), cz=np.array([-3.5, np.nan]),
                        valid=np.array([True, False]))
    path = tmp_path / "centrode.csv"
    write_centrode(path, pts, [0, 1])
    t, back = read_centrode(path)
    assert back.valid[0] and back.cx[0] == 1.25 and back.cz[0] == -3.5
    assert not back.valid[1] and math.isnan(back.cx[1])
    assert list(t) == [0, 1]


@settings(max_examples=200)
@given(data=st.data(), n=st.integers(1, 40), window=st.integers(1, 5))
def test_fcd_matches_plain_loop(data, n, window):
    # deviations drawn around xi = 1, a few exactly at it; any validity
    levels = st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0])
    devs = data.draw(st.lists(levels, min_size=n, max_size=n))
    valid = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if not any(valid):
        valid[data.draw(st.integers(0, n - 1))] = True
    a, b = mk_trace(devs, valid)
    t = 7 + 3 * np.arange(n)
    res = fcd_detect(a, b, xi=1.0, window=window, t=t)
    onset = fcd_onset_loop(np.where(valid, devs, np.nan), 1.0, window)
    assert res.detected is (onset is not None)
    assert res.onset_t == (-1 if onset is None else t[onset])
    assert res.max_deviation == max(d for d, v in zip(devs, valid) if v)


@settings(max_examples=300)
@given(values=st.lists(st.one_of(st.floats(0.0, 1e6), st.just(math.nan),
                                 st.just(math.inf)), max_size=40),
       kept=st.floats(0.0, 1e3),
       p=st.one_of(st.just(95.0), st.floats(0.0, 100.0)))
def test_nan_percentile_is_numpys(values, kept, p):
    # the default threshold's percentile, bit for bit np.nanpercentile's
    # linear method, NaNs (dropped) and infinities included
    a = np.array(values + [kept])
    with np.errstate(invalid="ignore"):
        want = np.nanpercentile(a, p)
    got = _nan_percentile(a, p)
    assert type(got) is float
    assert np.array_equal(got, want, equal_nan=True)
    if not math.isnan(want):
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
