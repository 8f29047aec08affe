import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpid import checks, cli
from hpid.homogeneity import (
    CANONICAL_TOLERANCE,
    BracketError,
    CanonicalNorm,
    Dilation,
    SymMatrix,
    WeightedSumNorm,
    canonical_norm_gradient,
    check_strict_monotonicity,
    dilation_apply,
    error_pair_dilation,
    extended_state_dilation,
    norm_evaluator,
)

RNG = np.random.default_rng(1234)

DILATIONS = [
    Dilation((1.0, 1.0)),
    error_pair_dilation(0.2),
    error_pair_dilation(-0.3),
    extended_state_dilation(0.1),
    Dilation((0.5, 1.0, 2.0)),
]


def _norm_specs(mu=0.2):
    dil = error_pair_dilation(mu)
    return [
        (WeightedSumNorm((1.0, 1.0)), dil),
        (WeightedSumNorm((2.0, 0.5)), dil),
        (CanonicalNorm(SymMatrix([[2.0, 0.3], [0.3, 1.0]])), dil),
        (WeightedSumNorm((1 / 1.5, 0.7)), dil),  # norm = experimental at zeta1_max = 1.5, norm_gamma = 0.7
    ]


class TestDilation:
    def test_identity(self):
        assert np.allclose(dilation_apply(Dilation((1.0, 1.0)), 0.0, [3.0, -7.0]), [3.0, -7.0])

    def test_uniform_scaling(self):
        assert np.allclose(dilation_apply(Dilation((1.0, 1.0)), math.log(2.0), [1.0, 2.0]), [2.0, 4.0])

    def test_weighted_scaling(self):
        out = dilation_apply(Dilation((0.5, 1.0)), math.log(4.0), [1.0, 1.0])
        assert np.allclose(out, [2.0, 4.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dilation_apply(Dilation((1.0, 1.0)), 1.0, [1.0, 2.0, 3.0])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            Dilation((1.0, -1.0))
        with pytest.raises(ValueError):
            Dilation((0.0, 1.0))

    def test_generator_is_anti_hurwitz(self):
        for dil in DILATIONS:
            assert np.linalg.eigvalsh(dil.generator()).min() > 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        s=st.floats(-5, 5),
        t=st.floats(-5, 5),
        x1=st.floats(-10, 10),
        x2=st.floats(-10, 10),
        x3=st.floats(-10, 10),
        idx=st.integers(0, len(DILATIONS) - 1),
    )
    def test_group_law(self, s, t, x1, x2, x3, idx):
        dil = DILATIONS[idx]
        x = np.array([x1, x2, x3])[: dil.n]
        once = dilation_apply(dil, s + t, x)
        twice = dilation_apply(dil, s, dilation_apply(dil, t, x))
        # tolerance scales with the output too: e^{r(s+t)} is evaluated with
        # relative rounding, so huge dilations cannot meet an absolute bound
        scale = 1.0 + max(np.linalg.norm(x), np.linalg.norm(once))
        assert np.linalg.norm(twice - once) <= 1e-10 * scale


class TestSymMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SymMatrix([[1.0, 2.0], [0.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SymMatrix([[1.0, 2.0, 3.0], [2.0, 1.0, 0.0]])

    def test_positive_definite_check(self):
        assert SymMatrix(np.eye(2)).is_positive_definite()
        assert not SymMatrix([[1.0, 0.0], [0.0, -1.0]]).is_positive_definite()

    def test_content_equality_and_hash(self):
        a = SymMatrix(np.eye(2))
        b = SymMatrix(np.eye(2))
        assert a == b and hash(a) == hash(b)

    def test_signed_zeros_hash_equal(self):
        a = SymMatrix([[1.0, 0.0], [0.0, 1.0]])
        b = SymMatrix([[1.0, -0.0], [-0.0, 1.0]])
        assert a == b and hash(a) == hash(b)
        assert len({CanonicalNorm(a), CanonicalNorm(b)}) == 1


class TestStrictMonotonicity:
    def test_identity_standard(self):
        assert check_strict_monotonicity(Dilation((1.0, 1.0)), SymMatrix(np.eye(2)))

    def test_indefinite_p_fails(self):
        assert not check_strict_monotonicity(Dilation((1.0, 1.0)), SymMatrix([[1.0, 0.0], [0.0, -1.0]]))

    def test_weighted_identity(self):
        assert check_strict_monotonicity(Dilation((0.8, 1.0, 1.2)), SymMatrix(np.eye(3)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_strict_monotonicity(Dilation((1.0, 1.0, 1.0)), SymMatrix(np.eye(2)))


class TestWeightedSumNorm:
    def test_reduces_to_l1(self):
        assert norm_evaluator(WeightedSumNorm((1.0, 1.0)), Dilation((1.0, 1.0)))(3.0, 4.0) == 7.0

    def test_fractional_weight(self):
        assert norm_evaluator(WeightedSumNorm((1.0, 1.0)), Dilation((2.0, 1.0)))(9.0, 0.0) == 3.0

    def test_origin(self):
        assert norm_evaluator(WeightedSumNorm((2.0, 1.0)), Dilation((1.0, 1.0)))(0.0, 0.0) == 0.0

    def test_rejects_nonpositive_coefficients(self):
        with pytest.raises(ValueError):
            WeightedSumNorm((1.0, 0.0))

    def test_needs_two_coefficients(self):
        for coefficients in ((1.0,), (1.0, 1.0, 1.0)):
            with pytest.raises(ValueError, match="exactly two coefficients"):
                WeightedSumNorm(coefficients)

    def test_requires_error_pair_dilation(self):
        # the error-rate weight must be 1: the closure does not raise |de| to 1/r2
        for weights in ((0.8, 1.2), (0.8, 0.5), (1.0, 1.0, 1.0)):
            with pytest.raises(ValueError, match=r"weights \(r, 1\)"):
                norm_evaluator(WeightedSumNorm((1.0, 1.0)), Dilation(weights))


class TestCanonicalNorm:
    def test_standard_dilation_is_euclidean(self):
        spec = CanonicalNorm(SymMatrix(np.eye(2)))
        assert norm_evaluator(spec, Dilation((1.0, 1.0)))(3.0, 4.0) == pytest.approx(5.0, abs=1e-11)

    def test_origin(self):
        spec = CanonicalNorm(SymMatrix(np.eye(2)))
        assert norm_evaluator(spec, error_pair_dilation(0.3))(0.0, 0.0) == 0.0

    def test_quadratic_weight(self):
        spec = CanonicalNorm(SymMatrix(np.eye(2)))
        val = norm_evaluator(spec, Dilation((2.0, 1.0)))(4.0, 0.0)
        assert val == pytest.approx(2.0, abs=1e-11)

    def test_defining_identity(self):
        spec = CanonicalNorm(SymMatrix([[2.0, 0.3], [0.3, 1.0]]))
        dil = error_pair_dilation(-0.2)
        norm = norm_evaluator(spec, dil)
        for _ in range(200):
            x = RNG.uniform(-5, 5, size=2)
            if np.linalg.norm(x) < 1e-6:
                continue
            lam = norm(*x)
            z = dilation_apply(dil, -math.log(lam), x)
            assert abs(math.sqrt(z @ spec.P.entries @ z) - 1.0) <= CANONICAL_TOLERANCE

    @pytest.mark.parametrize("mu", [-0.2, 0.2])
    def test_defining_identity_on_extended_state(self, mu):
        # the decrease check's norm: three coordinates under the extended dilation
        spec = CanonicalNorm(SymMatrix([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]]))
        dil = extended_state_dilation(mu)
        norm = norm_evaluator(spec, dil)
        rng = np.random.default_rng(2024)
        for _ in range(200):
            x = rng.uniform(-5, 5, size=3)
            lam = norm(*x)
            z = dilation_apply(dil, -math.log(lam), x)
            assert abs(math.sqrt(z @ spec.P.entries @ z) - 1.0) <= CANONICAL_TOLERANCE
        with pytest.raises(ValueError):
            norm(1.0, 1.0)

    def test_requires_monotone_p(self):
        spec = CanonicalNorm(SymMatrix([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(ValueError):
            norm_evaluator(spec, Dilation((1.0, 1.0)))(1.0, 1.0)

    def test_overflow_scale_input_raises(self):
        spec = CanonicalNorm(SymMatrix(np.eye(2)))
        with pytest.raises(BracketError):
            norm_evaluator(spec, Dilation((1.0, 1.0)))(1e300, 1e300)


class TestCanonicalGradient:
    def test_euclidean_case(self):
        spec = CanonicalNorm(SymMatrix(np.eye(2)))
        grad = canonical_norm_gradient(spec, Dilation((1.0, 1.0)), [3.0, 4.0])
        assert np.allclose(grad, [0.6, 0.8], atol=1e-12)

    def test_matches_finite_differences(self):
        result = checks._check_gradient(RNG, Dilation((2.0, 1.0)), points=100, min_norm=1e-2, min_coord=1e-2)
        assert result.passed, result.line()

    def test_specific_points_against_differences(self):
        spec = CanonicalNorm(SymMatrix(np.eye(2)))
        dil = Dilation((2.0, 1.0))
        norm = norm_evaluator(spec, dil)
        for x in ([4.0, 0.0], [1.0, 1.0]):
            x = np.asarray(x)
            grad = canonical_norm_gradient(spec, dil, x)
            step = 1e-6 * np.linalg.norm(x)
            fd = np.zeros(2)
            for k in range(2):
                e = np.zeros(2)
                e[k] = step
                fd[k] = (norm(*(x + e)) - norm(*(x - e))) / (2 * step)
            assert np.abs(grad - fd).max() <= 1e-5 * np.abs(grad).max()

    def test_origin_raises(self):
        spec = CanonicalNorm(SymMatrix(np.eye(2)))
        with pytest.raises(ValueError):
            canonical_norm_gradient(spec, Dilation((1.0, 1.0)), [0.0, 0.0])


class TestExperimentalNorm:
    """The paper's |e|^{1/(1-mu)} / zeta1_max + gamma |de|, as `norm = experimental` builds it."""

    @staticmethod
    def _spec(mu, keys=""):
        text = f"[scenario s]\ncontroller = hpid\nmu = {mu}\nnorm = experimental\n{keys}"
        return cli.parse_config(text).scenario("s").norm

    def test_reduces_to_l1(self):
        # zeta1_max and norm_gamma default to 1, so at mu = 0 the norm is |e| + |de|
        assert norm_evaluator(self._spec(0.0), error_pair_dilation(0.0))(3.0, 4.0) == 7.0

    def test_power(self):
        z, g = 1.7, 0.6
        rng = np.random.default_rng(5)
        for mu in (-0.3, 0.2):
            spec = self._spec(mu, f"zeta1_max = {z}\nnorm_gamma = {g}\n")
            assert spec == WeightedSumNorm((1 / z, g))
            norm = norm_evaluator(spec, error_pair_dilation(mu))
            for e, de in rng.uniform(-5, 5, size=(200, 2)):
                paper = abs(e) ** (1 / (1 - mu)) / z + g * abs(de)
                assert abs(norm(e, de) - paper) <= 1e-15 * paper
        # at mu = 0.5 the exponent would be exactly 2; the admissible range is open
        with pytest.raises(cli.ConfigError):
            self._spec(0.5)

    def test_origin(self):
        spec = self._spec(-0.2, "zeta1_max = 0.5\nnorm_gamma = 3\n")
        assert norm_evaluator(spec, error_pair_dilation(-0.2))(0.0, 0.0) == 0.0


class TestNormHomogeneity:
    """||d(s) x||_d = e^s ||x||_d for every implemented variant."""

    @pytest.mark.parametrize("mu", [-0.3, 0.0, 0.2])
    def test_scaling_identity(self, mu):
        specs = [spec for spec, _ in _norm_specs(mu)]
        result = checks._check_norm_scaling(RNG, error_pair_dilation(mu), specs, draws=100)
        assert result.passed, result.line()

    def test_norm_equivalence_on_unit_sphere(self):
        # any two homogeneous norms for one dilation stay within fixed ratios
        mu = 0.2
        dil = error_pair_dilation(mu)
        specs = [spec for spec, _ in _norm_specs(mu)]
        P = SymMatrix([[2.0, 0.3], [0.3, 1.0]]).entries
        ratios = {(i, j): [] for i in range(len(specs)) for j in range(len(specs)) if i < j}
        for _ in range(400):
            z = RNG.normal(size=2)
            z /= math.sqrt(z @ P @ z)  # unit P-sphere
            values = [norm_evaluator(spec, dil)(*z) for spec in specs]
            assert all(v > 0.0 for v in values)
            for (i, j), acc in ratios.items():
                acc.append(values[i] / values[j])
        for acc in ratios.values():
            assert 0.0 < min(acc) and max(acc) / min(acc) < 1e3
