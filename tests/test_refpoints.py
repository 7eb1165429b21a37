"""Tests for the bundled default reference points.

Bundled table values are frozen, reconstructed values follow the family
rules (linear 0.6/m, spherical 1.2/sqrt(m), degenerate curve 1.2 times
the center curve point), scaled variants multiply coordinate i by
10^(i-1), and inverted variants reuse the base values; names outside the
problem registry have none.
"""
import math

import numpy as np
import pytest

from prefnorm.refpoints import SETTINGS, default_reference_point


class TestBundledValues:

    def test_settings(self):
        assert SETTINGS == ("balanced", "extreme")

    @pytest.mark.parametrize("name,m,expected", [
        ("dtlz1", 3, (0.24, 0.18, 0.18)),
        ("dtlz2", 3, (0.8, 0.6, 0.6)),
        ("dtlz5", 3, (0.65, 0.65, 0.74)),
        ("dtlz7", 3, (0.75, 0.15, 6.0)),
        ("dtlz1", 5, (0.134, 0.12, 0.16, 0.12, 0.134)),
        ("dtlz2", 8, (0.45, 0.45, 0.415, 0.45, 0.486, 0.415, 0.381,
                      0.381)),
        ("dtlz5", 10, (0.0, 0.0, 0.0, 0.0035, 0.01, 0.031, 0.0963, 0.29,
                       0.88, 0.7)),
    ])
    def test_balanced_table(self, name, m, expected):
        z = default_reference_point(name, m, "balanced")
        assert z.shape == (m,)
        assert np.array_equal(z, np.array(expected))

    @pytest.mark.parametrize("name,m,expected", [
        ("dtlz2", 3, (0.4, 1.2, 0.4)),
        ("dtlz1", 5, (0.03, 0.18, 0.33, 0.03, 0.03)),
        ("dtlz5", 8, (0.07, 0.07, 0.1, 0.1415, 0.2, 0.283, 0.4, 1.2)),
    ])
    def test_extreme_table(self, name, m, expected):
        z = default_reference_point(name, m, "extreme")
        assert np.array_equal(z, np.array(expected))

    def test_group_sharing(self):
        # DTLZ2, 3 and 4 share the spherical front, DTLZ5 and 6 the curve
        base = default_reference_point("dtlz2", 3)
        assert np.array_equal(default_reference_point("dtlz3", 3), base)
        assert np.array_equal(default_reference_point("dtlz4", 3), base)
        curve = default_reference_point("dtlz5", 3)
        assert np.array_equal(default_reference_point("dtlz6", 3), curve)

    def test_default_setting_is_balanced(self):
        assert np.array_equal(default_reference_point("dtlz2", 3),
                              default_reference_point("dtlz2", 3,
                                                      "balanced"))

    def test_takes_registry_spelling(self):
        with pytest.raises(KeyError, match="unknown problem 'DTLZ2'"):
            default_reference_point("DTLZ2", 3)


class TestReconstruction:

    def test_linear_family(self):
        assert np.allclose(default_reference_point("dtlz1", 2), 0.3)
        assert np.allclose(default_reference_point("dtlz1", 4), 0.15)
        assert np.allclose(default_reference_point("dtlz1", 6), 0.1)

    def test_spherical_family(self):
        for m in (2, 4, 6):
            z = default_reference_point("dtlz2", m)
            assert np.allclose(z, 1.2 / math.sqrt(m), rtol=1e-12)

    def test_curve_family_m2_equals_sphere(self):
        # at m=2 the degenerate curve is the whole circle arc
        assert np.allclose(default_reference_point("dtlz5", 2),
                           default_reference_point("dtlz2", 2), rtol=1e-12)

    def test_curve_family_m4(self):
        z = default_reference_point("dtlz5", 4)
        expected = 1.2 * np.array([2.0 ** -1.5, 2.0 ** -1.5, 0.5,
                                   2.0 ** -0.5])
        assert np.allclose(z, expected, rtol=1e-12)

    def test_disconnected_family(self):
        assert np.array_equal(default_reference_point("dtlz7", 2),
                              [0.5055, 3.9724])
        z6 = default_reference_point("dtlz7", 6)
        assert z6.shape == (6,)
        assert z6[-1] == 10.2809


VARIANT_MS = (2, 3, 4, 5, 6, 8, 10)


class TestVariants:

    def test_scaled_multiplies_by_powers_of_ten(self):
        for family in (1, 2, 3, 4):
            for m in VARIANT_MS:
                base = default_reference_point(f"dtlz{family}", m)
                scaled = default_reference_point(f"sdtlz{family}", m)
                assert np.array_equal(scaled, base * 10.0 ** np.arange(m)), (
                    family, m)

    def test_scaled_spherical_m2(self):
        z = default_reference_point("sdtlz2", 2)
        assert z[0] == pytest.approx(1.2 / math.sqrt(2), rel=1e-12)
        assert z[1] == pytest.approx(12.0 / math.sqrt(2), rel=1e-12)

    def test_inverted_reuses_base(self):
        for family in (1, 2, 3, 4):
            for m in VARIANT_MS:
                assert np.array_equal(
                    default_reference_point(f"idtlz{family}", m),
                    default_reference_point(f"dtlz{family}", m)), (family, m)


class TestMissingEntries:

    def test_unknown_setting(self):
        with pytest.raises(ValueError, match="unknown setting"):
            default_reference_point("dtlz2", 3, "midway")

    def test_unknown_problem(self):
        # only registered names have reference points, whatever they parse as
        for name in ("zdt1", "sdtlz5", "sdtlz7", "idtlz6", "dtlz9"):
            with pytest.raises(KeyError, match="known: dtlz1"):
                default_reference_point(name, 3)

    def test_extreme_has_no_reconstruction(self):
        with pytest.raises(KeyError, match="set one explicitly"):
            default_reference_point("dtlz2", 4, "extreme")

    def test_extreme_disconnected_never_bundled(self):
        with pytest.raises(KeyError, match="set one explicitly"):
            default_reference_point("dtlz7", 3, "extreme")

    def test_disconnected_unlisted_m(self):
        with pytest.raises(KeyError, match="set one explicitly"):
            default_reference_point("dtlz7", 8, "balanced")
