"""Contracts of the arithmetic kernels and the names the tracer wraps."""

import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path


from root_enclose._kernels import _pure

REPO = Path(__file__).resolve().parents[1]


class TestKernelContracts:
    # the kernels return unreduced pairs: the scans compare them by
    # cross-multiplication and the evaluator's Fractions reduce them, so the
    # contract is a positive denominator and the exact value.  A coefficient
    # vector is given as integer numerators over one common denominator.

    def test_form_pair_value(self):
        a, b = F(6, 4), F(10, 15)
        # the tail (1/2, 1/3) over 6, and (1/2, 1/3, -3/4) over 12
        for c, den, coeffs in (([3, 2], 6, (F(1, 2), F(1, 3))),
                               ([6, 4, -9], 12, (F(1, 2), F(1, 3), F(-3, 4)))):
            num, d = _pure.form_pair(c, den, 6, 4, 10, 15)
            assert d > 0
            k = len(coeffs)
            assert F(num, d) == sum(ci * a ** (k - 1 - i) * b ** i
                                    for i, ci in enumerate(coeffs))

    def test_form_pair_trailing_zeros(self):
        # the loop stops at the last nonzero coefficient and multiplies by
        # a power of a for the zeros after it: Secant-Newton's Newton tail
        # (n, 0, ..., 0), a zero in the last place only, and the zero form
        a, b = F(-6, 4), F(10, 15)
        for c in ([3, 0, 0], [5, 0, 0, 0, 0], [1, 2, 0], [2, 0, 3, 0, 0], [2, 0],
                  [0, 0, 0], [7]):
            num, d = _pure.form_pair(c, 3, -6, 4, 10, 15)
            assert d > 0
            k = len(c)
            assert F(num, d) == sum(F(ci, 3) * a ** (k - 1 - i) * b ** i
                                    for i, ci in enumerate(c)), c

    def test_map_outputs_match_fraction_reference(self):
        # the tail (-3/2, 1/6), held as [-9, 1] over 6, makes both
        # denominator forms negative at (L, U) = (2/3, 5/4)
        tail, den = [-9, 1], 6
        L, U, x = F(2, 3), F(5, 4), F(7, 5)
        pairs = (2, 3, 5, 4, 7, 5)
        side = [-6, 0, 0] + tail  # the canonical head (-1, 0, 0) over 6
        a0, a1 = F(-3, 2), F(1, 6)
        dp, dq = a0 * L + a1 * U, a0 * U + a1 * L
        assert dp < 0 and dq < 0
        expected = (L + (x - L ** 2) / dp, U + (x - U ** 2) / dq)
        (dpn, dpd), (dqn, dqd) = (_pure.form_pair(tail, den, 2, 3, 5, 4),
                                  _pure.form_pair(tail, den, 5, 4, 2, 3))
        assert dpd > 0 and dqd > 0
        assert (F(dpn, dpd), F(dqn, dqd)) == (dp, dq)
        results = (
            _pure.apply_reduced_pairs(2, dpn, dpd, dqn, dqd, *pairs),
            _pure.apply_pairs(2, side, den, side, den, *pairs),
        )
        for status, a, b, c, d in results:
            assert status == 0
            assert b > 0 and d > 0
            assert (F(a, b), F(c, d)) == expected

    def test_zero_denominator_status(self):
        # status 1 or 2 names the side whose form is exactly zero
        assert _pure.apply_reduced_pairs(2, 0, 5, 1, 1, 1, 1, 2, 1, 2, 1)[0] == 1
        assert _pure.apply_reduced_pairs(2, 1, 1, 0, 5, 1, 1, 2, 1, 2, 1)[0] == 2


def test_tracer_wraps_the_kernels_at_their_lookup_names(tmp_path):
    # perfbench/tracing.py patches functions at the names their callers look
    # up; a renamed or removed name would silently drop its counts
    script = textwrap.dedent("""
        import json
        import os
        import sys
        import tracing
        import root_enclose
        from root_enclose import analysis, cli, maps
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.begin_pass()
        tracer.active = True
        cfg = analysis.SampleConfig(count=10)
        analysis.falsify_contraction(maps.secant_newton(2), cfg)
        # p-denominator (L + U)/2, below the secant form: endpoints are computed
        analysis.falsify_contraction(
            maps.MapCoefficients(2, (-1, 0, 0, "1/2", "1/2"), (-1, 0, 0, 2, 0)), cfg)
        tracer.begin_pass()
        cli.main(["root", "--x", "2", "--n", "2", "--eps", "1e-30", "--map", "bisection",
                  "--json", "--out", os.devnull])
        cli.main(["compare", sys.argv[1], "--samples", "200", "--json", "--out", os.devnull])
        tracer.active = False
        print(json.dumps([root_enclose.kernel_backend, tracer.per_pass()]))
    """)
    spec = tmp_path / "counterexample.json"
    spec.write_text(json.dumps({"n": 3, "p": ["-1", "0", "0", "0", "2", "1/2", "1"],
                                "q": ["-1", "0", "0", "0", "3", "0", "0"]}))
    path = os.pathsep.join([str(REPO / "src"), str(REPO / "perfbench")])
    out = subprocess.run([sys.executable, "-c", script, str(spec)], capture_output=True,
                         text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert out.returncode == 0, out.stderr
    backend, (metrics, cli_metrics) = json.loads(out.stdout)
    assert backend == "pure"
    # Secant-Newton's excess over itself is zero, so its check evaluates no
    # form; the second map's p excess is negative at every sample and its q
    # excess is zero, so each of its samples takes one excess form and the
    # map's own two, the first sample two more for the bounds witness, and
    # it first fails to contract at its 7th
    assert metrics["kernels.apply_reduced_pairs.calls"] == 7
    assert metrics["kernels.form_pair.calls"] == 3 * 7 + 2
    assert metrics["analysis.points_checked"] == 10 + 7
    # the tracer reads trace.iterations and stats.samples from the results;
    # a record that stopped answering either would lose these counts
    assert cli_metrics["cli.main.calls"] == 2
    assert cli_metrics["solver.bisect_to_eps.iterations"] == 100
    assert cli_metrics["analysis.points_checked"] == 200
    assert cli_metrics["analysis.equality_points"] == 53
