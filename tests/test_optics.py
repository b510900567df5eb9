"""Thin-lens and projection math against hand-computed values.

Expected numbers were evaluated independently with exact rational
arithmetic (fractions.Fraction) before being frozen here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cinedrone.optics import (BehindCameraError, CameraSensorSpec,
                              DepthOfField, IntrinsicState, INFINITE_FAR,
                              SingularDofError, back_project,
                              depth_of_field, hyperfocal, pixel_coordinates)

SIM_SPEC = CameraSensorSpec.from_sensor_size(
    image_width=960, image_height=540,
    sensor_width_mm=23.76, sensor_height_mm=13.365,
    principal_u=480.0, principal_v=270.0, circle_of_confusion=0.03)

# a sensor with skewed pixel axes
SKEWED_SPEC = CameraSensorSpec(
    image_width=960, image_height=540, beta_x=40.0, beta_y=41.0,
    principal_u=470.0, principal_v=265.0, skew=3.5)

# datasheet of the real camera gives the pixel-per-mm factors directly
REAL_SPEC = CameraSensorSpec(
    image_width=675, image_height=380, beta_x=107.3, beta_y=80.6,
    principal_u=337.0, principal_v=190.0, circle_of_confusion=0.001)


def intr(f=35.0, focus=10.0, aperture=1.2):
    return IntrinsicState(focal_length=f, focus_distance=focus,
                          aperture=aperture)


def project(point, f, spec=SIM_SPEC):
    """The pixel of one camera-frame point in front of the camera."""
    point = np.asarray(point, dtype=float)
    return np.array(pixel_coordinates(point, point[2], f, spec)[2:])


class TestSensorSpec:
    def test_beta_matches_dimensions_exactly(self):
        assert SIM_SPEC.beta_x * SIM_SPEC.sensor_width == pytest.approx(
            960, rel=1e-12)
        assert SIM_SPEC.beta_y * SIM_SPEC.sensor_height == pytest.approx(
            540, rel=1e-12)
        assert SIM_SPEC.beta_x == pytest.approx(40.404040404, rel=1e-9)

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            CameraSensorSpec(960, 540, beta_x=0.0, beta_y=40.0,
                             principal_u=480, principal_v=270)
        with pytest.raises(ValueError):
            CameraSensorSpec(960, 540, beta_x=40.0, beta_y=40.0,
                             principal_u=480, principal_v=270,
                             circle_of_confusion=-1.0)


class TestHyperfocal:
    def test_worked_value(self):
        # 35^2 / (1.2 * 0.03) + 35 = 34062.778 mm
        assert hyperfocal(intr(), SIM_SPEC) == pytest.approx(
            34.062777778, abs=1e-6)

    def test_large_aperture_limit(self):
        # first term vanishes when A*c >> f^2
        value = hyperfocal(intr(f=35.0, aperture=1e10), SIM_SPEC)
        assert value == pytest.approx(0.035, rel=1e-6)

    def test_short_lens_max_aperture(self):
        assert hyperfocal(intr(f=15.0, aperture=22.0),
                          SIM_SPEC) == pytest.approx(0.3559091, abs=1e-6)


class TestDepthOfField:
    def test_worked_values(self):
        dof = depth_of_field(intr(f=35.0, focus=10.0, aperture=1.2),
                             SIM_SPEC)
        assert dof.near_distance == pytest.approx(7.734855, abs=1e-3)
        assert dof.far_distance == pytest.approx(14.141251, abs=1e-3)

    def test_focus_at_hyperfocal(self):
        h = hyperfocal(intr(), SIM_SPEC)
        dof = depth_of_field(intr(focus=h), SIM_SPEC)
        assert dof.near_distance == pytest.approx(h / 2.0, rel=1e-9)
        assert dof.far_distance == INFINITE_FAR
        assert dof.far_is_infinite

    def test_long_lens_far_limit_is_finite(self):
        # H = 6944.944 m here, so focusing at 2000 m stays below the
        # hyperfocal distance and the far limit must stay finite
        dof = depth_of_field(intr(f=500.0, focus=2000.0, aperture=1.2),
                             SIM_SPEC)
        assert not dof.far_is_infinite
        assert dof.hyperfocal == pytest.approx(6944.944444, abs=1e-3)
        assert dof.near_distance == pytest.approx(1552.881838, abs=1e-3)
        assert dof.far_distance == pytest.approx(2808.704738, abs=1e-3)

    def test_singular_configuration(self):
        # H + F - 2f <= 0 requires an absurd lens; must fail loudly
        weird = CameraSensorSpec(960, 540, beta_x=40.0, beta_y=40.0,
                                 principal_u=480, principal_v=270,
                                 circle_of_confusion=1.0)
        with pytest.raises(SingularDofError):
            depth_of_field(IntrinsicState(1.0, 5e-4, 10.0), weird)

    @settings(max_examples=200, deadline=None)
    @given(f=st.floats(15.0, 500.0), aperture=st.floats(1.2, 22.0),
           focus=st.floats(4.0, 2000.0))
    def test_ordering(self, f, aperture, focus):
        dof = depth_of_field(IntrinsicState(f, focus, aperture), SIM_SPEC)
        assert 0.0 < dof.near_distance <= focus + 1e-9
        if not dof.far_is_infinite:
            assert dof.near_distance < focus < dof.far_distance

    @settings(max_examples=200, deadline=None)
    @given(f=st.floats(15.0, 500.0), aperture=st.floats(1.2, 22.0))
    def test_hyperfocal_identity(self, f, aperture):
        h = hyperfocal(IntrinsicState(f, 1.0, aperture), SIM_SPEC)
        dof = depth_of_field(IntrinsicState(f, h, aperture), SIM_SPEC)
        assert dof.near_distance == pytest.approx(h / 2.0, rel=1e-9)
        assert dof.far_is_infinite

    def test_monotonicity(self):
        apertures = np.linspace(1.2, 22.0, 20)
        values = [hyperfocal(intr(aperture=a), SIM_SPEC) for a in apertures]
        assert all(a > b for a, b in zip(values, values[1:]))
        focals = np.linspace(15.0, 500.0, 20)
        values = [hyperfocal(intr(f=f), SIM_SPEC) for f in focals]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestCalibrationMatrix:
    """The pinhole's pixel scales and principal point, read off the pixels
    of unit offsets at unit depth."""

    def test_sim_camera(self):
        bxf, _, u, v = pixel_coordinates(np.array([1.0, 1.0, 1.0]), 1.0,
                                         35.0, SIM_SPEC)
        assert bxf == pytest.approx(1414.141414, abs=1e-3)
        assert u - 480.0 == pytest.approx(1414.141414, abs=1e-3)
        assert v - 270.0 == pytest.approx(1414.141414, abs=1e-3)
        assert np.array_equal(project([0.0, 0.0, 1.0], 35.0), [480.0, 270.0])
        # no skew: a vertical offset moves v alone
        assert project([0.0, 1.0, 1.0], 35.0)[0] == 480.0

    def test_zero_focal_rejected(self):
        with pytest.raises(ValueError):
            IntrinsicState(0.0, 10.0, 1.2)

    def test_real_camera(self):
        _, _, u, v = pixel_coordinates(np.array([1.0, 1.0, 1.0]), 1.0, 5.0,
                                       REAL_SPEC)
        assert u - 337.0 == pytest.approx(536.5, rel=1e-12)
        assert v - 190.0 == pytest.approx(403.0, rel=1e-12)
        assert np.array_equal(project([0.0, 0.0, 1.0], 5.0, REAL_SPEC),
                              [337.0, 190.0])


class TestProjection:
    def test_optical_axis_hits_principal_point(self):
        assert np.allclose(project([0.0, 0.0, 10.0], 35.0), [480.0, 270.0])

    def test_lateral_offset(self):
        pixel = project([1.0, 0.0, 10.0], 35.0)
        assert pixel[0] == pytest.approx(621.414141, abs=1e-3)
        assert pixel[1] == pytest.approx(270.0)

    def test_behind_camera(self):
        for depth in (-1.0, 0.0):
            with pytest.raises(BehindCameraError):
                back_project(np.array([480.0, 270.0]), depth, intr(),
                             SIM_SPEC)

    def test_back_project_examples(self):
        assert np.allclose(back_project(np.array([480.0, 270.0]), 10.0,
                                        intr(f=35.0), SIM_SPEC),
                           [0.0, 0.0, 10.0], atol=1e-12)
        point = back_project(np.array([621.4141414141415, 270.0]), 10.0,
                             intr(f=35.0), SIM_SPEC)
        assert np.allclose(point, [1.0, 0.0, 10.0], atol=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(u=st.floats(0.0, 960.0), v=st.floats(0.0, 540.0),
           depth=st.floats(0.1, 500.0), f=st.floats(15.0, 500.0))
    def test_round_trip(self, u, v, depth, f):
        for spec in (SIM_SPEC, SKEWED_SPEC):
            point = back_project(np.array([u, v]), depth, intr(f=f), spec)
            pixel = project(point, f, spec)
            assert abs(pixel[0] - u) < 1e-9 and abs(pixel[1] - v) < 1e-9


def test_depth_of_field_value_type():
    dof = DepthOfField(hyperfocal=10.0, near_distance=5.0,
                       far_distance=math.inf)
    assert dof.far_is_infinite
