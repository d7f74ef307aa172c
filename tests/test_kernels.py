"""Pure-vs-compiled kernel agreement and the backend selection contract."""

import os
import subprocess
import sys
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, strategies as st

from root_enclose._kernels import _pure, load_backend

try:
    _speedup = load_backend("compiled")
    BACKENDS = [_pure, _speedup]
except ImportError:
    _speedup = None
    BACKENDS = [_pure]

needs_speedup = pytest.mark.skipif(_speedup is None,
                                   reason="compiled kernels not built")

pairs = st.builds(lambda a, b: (F(a, b).numerator, F(a, b).denominator),
                  st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))
positive_pairs = st.builds(lambda a, b: (F(a, b).numerator, F(a, b).denominator),
                           st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))


@pytest.mark.parametrize("impl", BACKENDS, ids=lambda b: b.BACKEND_NAME)
class TestKernelContracts:
    def test_norm_pair_reduces(self, impl):
        assert impl.norm_pair(6, -4) == (-3, 2)
        assert impl.norm_pair(0, 7) == (0, 1)
        with pytest.raises(ZeroDivisionError):
            impl.norm_pair(1, 0)

    def test_pow_pair(self, impl):
        assert impl.pow_pair(3, 2, 3) == (27, 8)
        assert impl.pow_pair(0, 1, 0) == (1, 1)
        with pytest.raises(ValueError):
            impl.pow_pair(2, 1, -1)

    def test_geom_sum_pair(self, impl):
        assert impl.geom_sum_pair(1, 1, 2, 1, 3) == (7, 1)
        assert impl.geom_sum_pair(1, 2, 2, 1, 2) == (5, 2)

    def test_outputs_reduced(self, impl):
        for num, den in (impl.geom_sum_pair(6, 4, -10, 15, 5),
                         impl.pow_pair(-3, 2, 4),
                         impl.form_pair([1, 2], [3, 5], 6, 4, 10, 15)):
            assert den > 0
            assert gcd(abs(num), den) == 1

    def test_map_outputs_reduced(self, impl):
        # the scans compare endpoints by cross-multiplication and test them
        # for equality structurally; both need this contract.  The tails
        # make the denominator forms negative at (L, U) = (2/3, 5/4).
        tail_n, tail_d = [-3, 1], [2, 6]
        pairs = (2, 3, 5, 4, 7, 5)
        head_n, head_d = [-1, 0, 0], [1, 1, 1]
        results = (
            impl.apply_reduced_pairs(2, tail_n, tail_d, tail_n, tail_d, *pairs),
            impl.apply_pairs(2, head_n + tail_n, head_d + tail_d,
                             head_n + tail_n, head_d + tail_d, *pairs),
        )
        for status, a, b, c, d in results:
            assert status == 0
            for num, den in ((a, b), (c, d)):
                assert den > 0
                assert gcd(abs(num), den) == 1
        assert results[0] == results[1]


@needs_speedup
class TestBackendAgreement:
    @given(pairs, st.integers(0, 9))
    def test_pow_pair(self, p, k):
        assert _pure.pow_pair(*p, k) == _speedup.pow_pair(*p, k)

    @given(pairs, pairs, st.integers(1, 8))
    def test_geom_sum_pair(self, a, b, k):
        assert (_pure.geom_sum_pair(*a, *b, k)
                == _speedup.geom_sum_pair(*a, *b, k))

    @given(st.lists(pairs, min_size=1, max_size=6), positive_pairs, positive_pairs)
    def test_form_pair(self, coeffs, a, b):
        cn = [c[0] for c in coeffs]
        cd = [c[1] for c in coeffs]
        assert (_pure.form_pair(cn, cd, *a, *b)
                == _speedup.form_pair(cn, cd, *a, *b))

    @given(st.integers(2, 5), st.data())
    def test_apply_pairs(self, n, data):
        coeffs = data.draw(st.lists(pairs, min_size=2 * (2 * n + 1),
                                    max_size=2 * (2 * n + 1)))
        half = 2 * n + 1
        pn = [c[0] for c in coeffs[:half]]
        pd = [c[1] for c in coeffs[:half]]
        qn = [c[0] for c in coeffs[half:]]
        qd = [c[1] for c in coeffs[half:]]
        vals = sorted(F(*data.draw(positive_pairs)) for _ in range(3))
        L, r, U = vals
        x = r ** n
        args = (n, pn, pd, qn, qd, L.numerator, L.denominator,
                U.numerator, U.denominator, x.numerator, x.denominator)
        assert _pure.apply_pairs(*args) == _speedup.apply_pairs(*args)

    @given(st.integers(2, 5), st.data())
    def test_apply_reduced_pairs(self, n, data):
        coeffs = data.draw(st.lists(pairs, min_size=2 * n, max_size=2 * n))
        ptn = [c[0] for c in coeffs[:n]]
        ptd = [c[1] for c in coeffs[:n]]
        qtn = [c[0] for c in coeffs[n:]]
        qtd = [c[1] for c in coeffs[n:]]
        vals = sorted(F(*data.draw(positive_pairs)) for _ in range(3))
        L, r, U = vals
        x = r ** n
        args = (n, ptn, ptd, qtn, qtd, L.numerator, L.denominator,
                U.numerator, U.denominator, x.numerator, x.denominator)
        assert (_pure.apply_reduced_pairs(*args)
                == _speedup.apply_reduced_pairs(*args))

    @given(st.floats(0.01, 100.0), st.integers(2, 6),
           st.sampled_from([1e-3, 1e-9, 1e-15]))
    def test_float_loop_bitwise_identical(self, x, n, eps):
        from root_enclose.maps import secant_newton
        m = secant_newton(n)
        p = [float(c) for c in m.p]
        q = [float(c) for c in m.q]
        a = _pure.refine_float_loop(x, n, p, q, eps, 200)
        b = _speedup.refine_float_loop(x, n, p, q, eps, 200)
        assert a == b  # including bit-identical endpoint floats


def _backend_in_subprocess(env_value):
    env = dict(os.environ)
    if env_value is None:
        env.pop("ROOT_ENCLOSE_KERNEL", None)
    else:
        env["ROOT_ENCLOSE_KERNEL"] = env_value
    out = subprocess.run(
        [sys.executable, "-c",
         "from root_enclose._kernels import BACKEND_NAME; print(BACKEND_NAME)"],
        capture_output=True, text=True, env=env)
    return out.returncode, out.stdout.strip(), out.stderr


def test_env_var_forces_pure_backend():
    code, name, _ = _backend_in_subprocess("pure")
    assert code == 0
    assert name == "pure"


@needs_speedup
def test_env_var_forces_compiled_backend():
    code, name, _ = _backend_in_subprocess("compiled")
    assert code == 0
    assert name == "compiled"


def test_env_var_rejects_unknown_backend():
    code, _, err = _backend_in_subprocess("fastest")
    assert code != 0
    assert "ROOT_ENCLOSE_KERNEL" in err


def test_default_backend_prefers_compiled_when_available():
    code, name, _ = _backend_in_subprocess(None)
    assert code == 0
    if _speedup is not None:
        assert name == "compiled"
    else:
        assert name == "pure"


def test_verdicts_identical_across_backends():
    # kernel choice must never change any result, only the speed
    script = (
        "import json\n"
        "from fractions import Fraction as F\n"
        "from root_enclose.analysis import SampleConfig, falsify_contraction, "
        "check_dominance\n"
        "from root_enclose.maps import counterexample_map\n"
        "from root_enclose.solver import refine_to_eps\n"
        "cfg = SampleConfig(seed=11, count=150)\n"
        "m = counterexample_map()\n"
        "v = falsify_contraction(m, cfg)\n"
        "d = check_dominance(m, cfg)\n"
        "t = refine_to_eps(F(2), 2, F(1, 10**6))\n"
        "print(json.dumps([v.to_json(), d.to_json(), t.to_json(True)]))\n"
    )
    results = {}
    for backend in ("pure", "compiled" if _speedup else "pure"):
        env = dict(os.environ, ROOT_ENCLOSE_KERNEL=backend)
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        results[backend] = out.stdout
    assert len(set(results.values())) == 1
