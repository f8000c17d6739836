import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellowkin.centrode import (
    CentrodePoint,
    PoseSample,
    centrode_from_stream,
    default_threshold,
    fcd_detect,
    fixed_centrode,
    isa_difference,
    read_centrode,
    read_pose_stream,
    write_centrode,
    write_pose_stream,
)
from bellowkin.kinematics import PlanarPose, PlanarTwist, wrap_angle
from bellowkin.pipeline import PressureRamp, model_centrode, simulate_free


def rotation_samples(center, r, phi0, omega, n, theta0=0.0):
    """Rigid rotation of a body point about `center`, one step per sample."""
    a, b = center
    out = []
    for k in range(n):
        phi = phi0 + omega * k
        pose = PlanarPose(x=a + r * math.cos(phi), z=b + r * math.sin(phi),
                          theta=wrap_angle(theta0 + omega * k))
        out.append(PoseSample(t=k, q=float(k), pose=pose))
    return out


def test_centrode_rotation_about_origin():
    r, phi, om = 50.0, 0.7, 0.3
    P = PlanarPose(x=r * math.cos(phi), z=r * math.sin(phi), theta=0.0)
    V = PlanarTwist(vx=-om * P.z, vz=om * P.x, omega=om)
    c = fixed_centrode(P, V)
    assert c.valid
    assert abs(c.x) <= 1e-12 and abs(c.z) <= 1e-12


def test_centrode_rotation_about_point():
    a, b, r, phi, om = 12.0, -7.0, 30.0, 1.1, -0.2
    P = PlanarPose(x=a + r * math.cos(phi), z=b + r * math.sin(phi), theta=0.0)
    V = PlanarTwist(vx=-om * r * math.sin(phi), vz=om * r * math.cos(phi),
                    omega=om)
    c = fixed_centrode(P, V)
    assert c.valid
    assert c.x == pytest.approx(a, abs=1e-12)
    assert c.z == pytest.approx(b, abs=1e-12)


def test_centrode_translation_invalid():
    c = fixed_centrode(PlanarPose(x=1.0, z=2.0, theta=0.3),
                       PlanarTwist(vx=5.0, vz=-2.0, omega=0.0))
    assert not c.valid
    assert math.isnan(c.x) and math.isnan(c.z)


@given(k=st.floats(-10, 10).filter(lambda v: abs(v) > 1e-3))
def test_centrode_homogeneous_in_twist(k):
    P = PlanarPose(x=3.0, z=4.0, theta=0.1)
    V1 = PlanarTwist(vx=1.5, vz=-0.5, omega=0.25)
    Vk = PlanarTwist(vx=k * V1.vx, vz=k * V1.vz, omega=k * V1.omega)
    c1 = fixed_centrode(P, V1)
    ck = fixed_centrode(P, Vk)
    assert ck.valid
    assert ck.x == pytest.approx(c1.x, rel=1e-12, abs=1e-12)
    assert ck.z == pytest.approx(c1.z, rel=1e-12, abs=1e-12)


@settings(max_examples=25)
@given(phi1=st.floats(0, 6.2), phi2=st.floats(0, 6.2),
       r1=st.floats(0.5, 40), r2=st.floats(0.5, 40))
def test_centrode_same_for_any_body_point(phi1, phi2, r1, r2):
    # two points of one rigid motion name the same instant center
    a, b, om = 5.0, 9.0, 0.4
    centers = []
    for r, phi in [(r1, phi1), (r2, phi2)]:
        P = PlanarPose(x=a + r * math.cos(phi), z=b + r * math.sin(phi), theta=0.0)
        V = PlanarTwist(vx=-om * r * math.sin(phi), vz=om * r * math.cos(phi),
                        omega=om)
        centers.append(fixed_centrode(P, V))
    assert centers[0].x == pytest.approx(centers[1].x, abs=1e-9)
    assert centers[0].z == pytest.approx(centers[1].z, abs=1e-9)


def test_stream_recovers_rigid_center():
    # differencing bias grows with the rotation arm (O(r h^2) interior,
    # double that at the one-sided ends); keep the arm short
    for r in [1.0, 2.0]:
        samples = rotation_samples((40.0, -15.0), r, 0.3, 0.01, 100)
        pts = centrode_from_stream(samples)
        assert all(p.valid for p in pts)
        err = [math.hypot(p.x - 40.0, p.z + 15.0) for p in pts]
        assert max(err) <= 1e-4


def test_stream_stationary_all_invalid():
    pose = PlanarPose(x=3.0, z=1.0, theta=0.2)
    samples = [PoseSample(t=k, q=0.0, pose=pose) for k in range(10)]
    pts = centrode_from_stream(samples)
    assert all(not p.valid for p in pts)


def test_stream_input_validation():
    samples = rotation_samples((0.0, 0.0), 1.0, 0.0, 0.01, 2)
    with pytest.raises(ValueError, match="at least 3"):
        centrode_from_stream(samples)
    s3 = rotation_samples((0.0, 0.0), 1.0, 0.0, 0.01, 4)
    jagged = [s3[0], s3[1], s3[3]]
    with pytest.raises(ValueError, match="uniformly"):
        centrode_from_stream(jagged)


def test_stream_handles_wrap_seam():
    # theta samples cross +pi; unwrapping keeps omega near its true value
    samples = rotation_samples((10.0, 5.0), 1.5, 0.0, 0.01, 60,
                               theta0=math.pi - 0.2)
    pts = centrode_from_stream(samples)
    err = [math.hypot(p.x - 10.0, p.z - 5.0) for p in pts if p.valid]
    assert all(p.valid for p in pts)
    assert max(err) <= 1e-4


def test_stream_converges_to_model_centrode(reference_model):
    # sensed-vs-analytic gap shrinks at least linearly in the ramp step
    errs = []
    for h in [0.2, 0.1, 0.05]:
        ramp = PressureRamp(5.0, 20.0, h)
        sensed = centrode_from_stream(simulate_free(reference_model, ramp))
        model_side = model_centrode(reference_model, ramp)
        dev = isa_difference(sensed, model_side)
        errs.append(float(np.nanmax(dev)))
    assert errs[-1] <= 0.5
    assert errs[0] / errs[1] >= 1.8
    assert errs[1] / errs[2] >= 1.8


def mk_trace(devs, valid=None):
    base = [CentrodePoint(x=0.0, z=0.0, valid=True, t_index=k)
            for k in range(len(devs))]
    off = []
    for k, d in enumerate(devs):
        ok = True if valid is None else valid[k]
        off.append(CentrodePoint(x=d if ok else float("nan"),
                                 z=0.0, valid=ok, t_index=k))
    return off, base


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
    with pytest.raises(ValueError):
        fcd_detect(a, b, xi=0.0)
    with pytest.raises(ValueError):
        fcd_detect(a, b, xi=0.5, window=0)
    with pytest.raises(ValueError, match="length"):
        fcd_detect(a[:1], b, xi=0.5)


def test_isa_difference_zero_for_identical():
    a, b = mk_trace([0.0] * 5)
    series = isa_difference(a, b)
    assert np.nanmax(series) == 0.0


def test_default_threshold_from_free_run(reference_model):
    ramp = PressureRamp(5.0, 20.0, 0.05)
    sensed = centrode_from_stream(simulate_free(reference_model, ramp))
    modeled = model_centrode(reference_model, ramp)
    xi = default_threshold(sensed, modeled)
    dev = isa_difference(sensed, modeled)
    assert xi > 0
    assert xi >= np.nanpercentile(dev, 95.0)  # factor 3 sits above the floor
    assert xi <= 3.0 * np.nanmax(dev)


def test_pose_stream_csv_round_trip(tmp_path, reference_model):
    ramp = PressureRamp(5.0, 6.0, 0.25)
    samples = simulate_free(reference_model, ramp)
    path = tmp_path / "stream.csv"
    write_pose_stream(path, samples)
    back = read_pose_stream(path)
    assert len(back) == len(samples)
    for a, b in zip(samples, back):
        assert (a.t, a.q) == (b.t, b.q)
        assert a.pose.x == b.pose.x and a.pose.z == b.pose.z
        assert a.pose.theta == b.pose.theta


def test_pose_stream_crlf_round_trip(tmp_path, reference_model):
    samples = simulate_free(reference_model, PressureRamp(5.0, 6.0, 0.25))
    path = tmp_path / "stream.csv"
    write_pose_stream(path, samples)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert read_pose_stream(path) == samples


def test_centrode_csv_round_trip(tmp_path):
    pts = [CentrodePoint(x=1.25, z=-3.5, valid=True, t_index=0),
           CentrodePoint(x=float("nan"), z=float("nan"), valid=False, t_index=1)]
    path = tmp_path / "centrode.csv"
    write_centrode(path, pts)
    back = read_centrode(path)
    assert back[0].valid and back[0].x == 1.25 and back[0].z == -3.5
    assert not back[1].valid and math.isnan(back[1].x)
    assert [p.t_index for p in back] == [0, 1]
