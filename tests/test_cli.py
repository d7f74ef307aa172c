import hashlib
import json
import subprocess
import sys

import pytest

SN3_SPEC = {
    "n": 3,
    "p": ["-1", "0", "0", "0", "1", "1", "1"],
    "q": ["-1", "0", "0", "0", "3", "0", "0"],
}
COUNTEREXAMPLE_SPEC = {
    "n": 3,
    "p": ["-1", "0", "0", "0", "2", "1/2", "1"],
    "q": ["-1", "0", "0", "0", "3", "0", "0"],
}
# a p head coefficient off its canonical value
NONCANONICAL_SPEC = {
    "n": 3,
    "p": ["-1", "1/2", "0", "0", "1", "1", "1"],
    "q": ["-1", "0", "0", "0", "3", "0", "0"],
}
# both denominator forms are negative or zero at sampled points
ZERO_DENOMINATOR_SPEC = {
    "n": 2,
    "p": ["-1", "0", "0", "1", "-1"],
    "q": ["-1", "0", "0", "2", "0"],
}
PERTURBED_SPEC = {
    "n": 3,
    "p": ["-1", "0", "0", "0", "2", "1", "1"],
    "q": ["-1", "0", "0", "0", "4", "0", "0"],
}
# passes at the fixed corner block, so check's witnesses (bounds at point 76,
# contraction at point 99, for seed 0 and 200 samples) depend on the seed
SEED_SENSITIVE_SPEC = {
    "n": 2,
    "p": ["-1", "0", "0", "5/2", "3/4"],
    "q": ["-1", "0", "0", "5/2", "5/3"],
}


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "root_enclose.cli", *argv],
        capture_output=True, text=True)


def test_root_contains_cube_root():
    out = run_cli("root", "--x", "27/8", "--n", "3", "--eps", "1/100", "--json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    lo, hi = data["final_interval"]
    from fractions import Fraction as F
    assert F(lo) <= F(3, 2) <= F(hi)
    assert data["terminated"] == "width-reached"


def test_root_exact_one_step():
    out = run_cli("root", "--x", "2", "--n", "2", "--eps", "1/6")
    assert out.returncode == 0
    assert "[4/3, 3/2]" in out.stdout
    assert "iterations: 1" in out.stdout


def test_root_rejects_nonpositive_x():
    out = run_cli("root", "--x", "0", "--n", "3", "--eps", "1")
    assert out.returncode == 2


def test_root_rejects_garbage_eps():
    out = run_cli("root", "--x", "2", "--n", "2", "--eps", "0.001")
    assert out.returncode == 2


def test_root_eps_shorthand_and_trace():
    out = run_cli("root", "--x", "2", "--n", "2", "--eps", "1e-3",
                  "--trace", "--json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["iterations"] == 3
    assert data["intervals"][2] == ["24/17", "17/12"]


def test_root_float_backend():
    out = run_cli("root", "--x", "2", "--n", "2", "--eps", "1e-12",
                  "--backend", "float", "--json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["backend"] == "float"
    lo = float(data["final_interval"][0])
    assert abs(lo - 1.4142135623730951) < 1e-11


def test_root_max_iter_exit_code():
    out = run_cli("root", "--x", "2", "--n", "2", "--eps", "1e-9",
                  "--max-iter", "1")
    assert out.returncode == 1
    assert "max-iterations" in out.stdout


def test_root_denominator_zero_is_a_failure(write_map):
    zero_den = {"n": 2, "p": ["-1", "0", "0", "2", "-1"],
                "q": ["-1", "0", "0", "2", "0"]}
    out = run_cli("root", "--x", "2", "--n", "2", "--eps", "1/10",
                  "--map", write_map(zero_den))
    assert out.returncode == 1
    assert "denominator" in out.stderr


def test_root_prints_endpoints_beyond_digit_guard():
    # a width of 10^-10000 needs endpoints of thousands of digits, whatever
    # the rounding (here 6,272-digit parts); printing them must not trip the
    # interpreter's int-to-str conversion limit
    out = run_cli("root", "--x", "2", "--n", "2", "--eps", "1e-10000")
    assert out.returncode == 0
    assert "iterations:" in out.stdout
    assert len(out.stdout) > 25_000


def test_check_secant_newton_passes(write_map):
    out = run_cli("check", write_map(SN3_SPEC), "--samples", "300")
    assert out.returncode == 0
    assert "canonical form: yes" in out.stdout
    assert "passed-on-samples" in out.stdout


def test_check_counterexample_witness(write_map):
    out = run_cli("check", write_map(COUNTEREXAMPLE_SPEC), "--samples", "300")
    assert out.returncode == 1
    assert "witness: L=1  r=4  U=4  x=64" in out.stdout
    assert "83/20" in out.stdout
    assert "L' <= r" in out.stdout


def test_check_prints_a_bounds_witness_where_the_map_is_undefined(write_map):
    # the p-denominator L + ... - U vanishes at L = U = 1, the first corner,
    # where the bounds witness compares 0 with the secant form 2; text
    # output prints that comparison, and the map's missing output nowhere
    zero_at_corner = {"n": 2, "p": ["-1", "0", "0", "1", "-1"],
                      "q": ["-1", "0", "0", "2", "0"]}
    out = run_cli("check", write_map(zero_at_corner), "--samples", "100")
    assert out.returncode == 1
    assert out.stderr == ""
    assert out.stdout == (
        "canonical form: yes\n"
        "denominator bounds: falsified (1 pairs)\n"
        "  witness: L=1  r=1  U=1  x=1\n"
        "    violated: p-denominator >= secant form  with lhs=0, rhs=2\n"
        "contraction: falsified (1 points)\n"
        "  witness: L=1  r=1  U=1  x=1\n"
        "    the lower denominator form is exactly 0 here\n")


def test_check_rejects_wrong_length(write_map):
    bad = {**SN3_SPEC, "p": ["-1", "0", "1"]}
    out = run_cli("check", write_map(bad))
    assert out.returncode == 2
    assert "7" in out.stderr


def test_check_json_schema(write_map):
    out = run_cli("check", write_map(COUNTEREXAMPLE_SPEC),
                  "--samples", "300", "--json")
    assert out.returncode == 1
    data = json.loads(out.stdout)
    assert data["canonical"]["is_canonical"] is True
    assert data["denominator_bounds"]["outcome"] == "falsified"
    assert data["contraction"]["witness"]["lhs"] == "83/20"


def test_compare_reflexive(write_map):
    out = run_cli("compare", write_map(SN3_SPEC), "--samples", "200")
    assert out.returncode == 0
    assert "200 (100.0%)" in out.stdout
    assert "proper subset: 0 (0.0%)" in out.stdout


def test_compare_certified_perturbed_map(write_map):
    out = run_cli("compare", write_map(PERTURBED_SPEC), "--samples", "200",
                  "--json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["subset_count"] == data["samples"] == 200
    assert data["violations"] == []
    assert data["proper_subset_count"] > 0


def test_compare_counterexample_reports_equality_point(write_map):
    out = run_cli("compare", write_map(COUNTEREXAMPLE_SPEC), "--samples", "200")
    assert out.returncode == 1  # not contracting, so dominance fails somewhere
    assert "(L, r, U) = (1, 3/2, 2)" in out.stdout


def test_locus_outputs(write_map):
    out = run_cli("locus", write_map(COUNTEREXAMPLE_SPEC))
    assert out.returncode == 0
    assert "f_p = L^2*x - 1/2*L*U*x - L^5 + 1/2*L^4*U" in out.stdout
    assert "f_q = 0" in out.stdout


def test_locus_evaluation(write_map):
    out = run_cli("locus", write_map(COUNTEREXAMPLE_SPEC),
                  "--L", "1", "--U", "3", "--x", "27")
    assert out.returncode == 0
    assert "f_p = -13" in out.stdout
    assert "outputs coincide with secant-newton: no" in out.stdout


def test_locus_requires_full_point(write_map):
    out = run_cli("locus", write_map(COUNTEREXAMPLE_SPEC), "--L", "1")
    assert out.returncode == 2


def test_locus_rejects_noncanonical(write_map):
    bad = {**SN3_SPEC, "p": ["0", "0", "0", "0", "1", "1", "1"]}
    out = run_cli("locus", write_map(bad))
    assert out.returncode == 2


def test_counterexample_reproduction():
    out = run_cli("counterexample")
    assert out.returncode == 0
    assert out.stdout.count("[75/56, 155/96]") == 2
    assert "equality locus value: (0, 0)" in out.stdout
    assert "identical: yes" in out.stdout


def test_counterexample_locus_flag():
    out = run_cli("counterexample", "--locus", "--json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["identical"] is True
    assert data["map_output"] == ["75/56", "155/96"]
    assert data["f_p"] == "L^2*x - 1/2*L*U*x - L^5 + 1/2*L^4*U"


def test_counterexample_unrepaired_q0():
    out = run_cli("counterexample", "--unrepaired-q0")
    assert out.returncode == 1
    assert "corner" in out.stdout
    assert "witness" in out.stdout


def test_bench_default_csv():
    out = run_cli("bench")
    assert out.returncode == 0
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "map,backend,n,x,eps,iterations,final_width,wall_time_ns"
    assert all(len(line.split(",")) == 8 for line in lines)
    sn_rows = [l for l in lines[1:] if l.startswith("secant-newton")]
    bi_rows = [l for l in lines[1:] if l.startswith("bisection")]
    assert all(row.split(",")[5] == "3" for row in sn_rows)
    assert all(row.split(",")[5] == "10" for row in bi_rows)


def test_bench_unknown_map(tmp_path):
    spec = tmp_path / "bench.json"
    spec.write_text(json.dumps({
        "maps": ["newton-raphson"], "xs": ["2"], "ns": [2],
        "epses": ["1/10"], "backend": "rational", "reps": 1}))
    out = run_cli("bench", str(spec))
    assert out.returncode == 2
    assert "unknown map name" in out.stderr


def test_bench_json_format_and_out_file(tmp_path):
    target = tmp_path / "rows.json"
    out = run_cli("bench", "--format", "json", "--out", str(target))
    assert out.returncode == 0
    assert out.stdout == ""
    rows = json.loads(target.read_text())
    assert {row["map"] for row in rows} == {"secant-newton", "bisection"}


@pytest.mark.parametrize("argv", [
    ("root", "--x", "2", "--n", "2", "--eps", "1/6", "--jobs", "2"),
    ("bench", "--json"),
    ("check", "m.json", "--jobs", "2"),
    ("compare", "m.json", "--jobs", "2"),
])
def test_options_a_subcommand_does_not_read_are_rejected(argv):
    out = run_cli(*argv)
    assert out.returncode == 2
    assert "unrecognized arguments" in out.stderr


_TOO_BIG_FOR_A_FLOAT = "1" + "0" * 400


@pytest.mark.parametrize("argv", [
    ("root", "--backend", "float", "--x", _TOO_BIG_FOR_A_FLOAT, "--n", "2",
     "--eps", "1e-3"),
    ("root", "--backend", "float", "--x", "2", "--n", "2",
     "--eps", _TOO_BIG_FOR_A_FLOAT),
    ("root", "--backend", "float", "--x", "2", "--n", "2", "--eps", "1e-3",
     "--trace"),
    ("root", "--backend", "float", "--map", "bisection", "--x", "2", "--n", "2",
     "--eps", "1e-3"),
    ("bench", "SPEC"),
])
def test_float_path_rejects_what_it_cannot_run(argv, tmp_path):
    spec = tmp_path / "float-spec.json"
    spec.write_text(json.dumps({
        "maps": ["secant-newton"], "xs": ["2", _TOO_BIG_FOR_A_FLOAT], "ns": [2],
        "epses": ["1/10"], "backend": "float", "reps": 1}))
    out = run_cli(*(str(spec) if arg == "SPEC" else arg for arg in argv))
    assert out.returncode == 2
    assert out.stderr.startswith("error:")
    assert "Traceback" not in out.stderr


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit on this interpreter")
def test_main_restores_the_digit_limit(capsys):
    # the endpoints have 6,272-digit parts; the text output prints them
    # through str, beyond the default limit of 4300
    from fractions import Fraction as F

    from root_enclose import cli
    from root_enclose.numeric import parse_rational
    from root_enclose.solver import refine_to_eps

    previous = sys.get_int_max_str_digits()
    try:
        default = sys.int_info.default_max_str_digits
        sys.set_int_max_str_digits(default)
        assert cli.main(["root", "--x", "2", "--n", "2", "--eps", "1e-10000"]) == 0
        assert sys.get_int_max_str_digits() == default
        sys.set_int_max_str_digits(0)
        interval, iterations, terminated = capsys.readouterr().out.splitlines()
        lo, hi = (parse_rational(v) for v in interval.strip("[]").split(", "))
        final = refine_to_eps(F(2), 2, F(1, 10 ** 10000)).final
    finally:
        sys.set_int_max_str_digits(previous)
    assert (lo, hi) == (final.lo, final.hi)
    assert len(interval) > 4 * 6_000
    assert (iterations, terminated) == ("iterations: 14", "terminated: width-reached")


def test_unknown_subcommand_exits_2():
    out = run_cli("frobnicate")
    assert out.returncode == 2


def test_json_output_byte_identical_for_same_seed(write_map):
    path = write_map(COUNTEREXAMPLE_SPEC)
    runs = [run_cli("check", path, "--samples", "150", "--seed", "9", "--json")
            for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].returncode == runs[1].returncode == 1


# sha256 of the stdout of outputs that must not change byte for byte
# (bench rows without their wall_time_ns); COUNTEREXAMPLE and SN3 stand for
# map-spec files, and so do NONCANONICAL, ZERO_DENOMINATOR and PERTURBED
PINNED_OUTPUTS = [
    (("check", "COUNTEREXAMPLE", "--samples", "300", "--json"), 1,
     "061c9e480fba2b2c824a0dcda9c1f32c29c353b939982fbfa32f839b267f0ae7"),
    (("check", "SN3", "--samples", "300", "--json"), 0,
     "2483d6144b03c03f20ef23f8f669d73db25b11c3c32afc58799dbc51722cc22e"),
    (("compare", "COUNTEREXAMPLE", "--samples", "300", "--json"), 1,
     "495dedb28a9a9f9bb029f8484c80ac9e0a986fa08099689d0baeb6da5fa678b1"),
    (("compare", "SN3", "--samples", "300", "--json"), 0,
     "f90098fda271491c339215f2d60372c1de96ad474727d04857e6ebc1bb1f64d7"),
    (("root", "--x", "2", "--n", "3", "--eps", "1e-50", "--json", "--trace"), 0,
     "806fc4c378df75af7f89c44e461c10c898787a15892b3309aaa0b4b92af27f42"),
    (("root", "--x", "2", "--n", "3", "--eps", "1e-50", "--map", "bisection",
      "--json", "--trace"), 0,
     "a2441c5c4a6326e3a5c13819e87f1b2faa8f1dc1e5320a79c39482c5f50f14d3"),
    (("locus", "COUNTEREXAMPLE", "--json"), 0,
     "62d5edd8a9c11343480a9108133c77fa7e834194c49e04f314edd0dc4eb72acc"),
    (("counterexample", "--json", "--locus"), 0,
     "b9e8738dbc157ee7285ed4fddbb030de2cb83c2608f456dac1adf94018d41e50"),
    (("locus", "COUNTEREXAMPLE", "--L", "1", "--U", "3", "--x", "27"), 0,
     "06df5a24d9cb170e0cc1fa30e01fb5cfdb793aa8149884714b1b0c037d6b3b4f"),
    (("counterexample", "--locus"), 0,
     "92401257973b958938e9d1151a8034b5325c48b69c808992cea15c2411c6b171"),
    # nonzero excess on both sides: also pins the order of the q-side terms
    (("locus", "PERTURBED", "--json"), 0,
     "9d1351bca7275228d68489ce652d64c70a5efd61e7aa43f3bd5e67b94cc683fc"),
    (("bench", "--format", "json"), 0,
     "fed76c6eb2affcfe5ecdb016218a9b50588352c6ef781e1e077e0b6280fe0299"),
    (("check", "NONCANONICAL", "--samples", "300", "--json"), 1,
     "263c8e582c375d61b959adb615e028fec197bf151ca4501a532d4c99f62e4f38"),
    (("check", "NONCANONICAL", "--samples", "300"), 1,
     "e345b1c557d54dcab7be1a86d3249ebec1ac4800d71219b71cb46f437bb54c27"),
    (("compare", "NONCANONICAL", "--samples", "300", "--json"), 1,
     "7897e0f1b4836c165a3937e47805e512926ad07f545d857960afa62daadabf54"),
    (("compare", "NONCANONICAL", "--samples", "300"), 1,
     "ce6e51dc7789a7b20d50a8d533099573bf6adfa578eb289c3f42bdb387fb8d3a"),
    (("check", "ZERO_DENOMINATOR", "--samples", "300", "--json"), 1,
     "41aa427d7bde4ae389d94fd839ead8a921917b121de4ab6ca30763ec9ae7c1a2"),
    (("check", "ZERO_DENOMINATOR", "--samples", "300"), 1,
     "2665ed7bad5175931a758fba5587e1d8a899dc3d15c56bd356476a79895ec451"),
    (("compare", "ZERO_DENOMINATOR", "--samples", "300", "--json"), 1,
     "28337853388434701c2a26893a3faa72cb2fc29e7c1f5529a07176652bccd8d9"),
    (("compare", "ZERO_DENOMINATOR", "--samples", "300"), 1,
     "83a03cf33c872e2d0dc8a2723434a0bca5df92e1cec59d8d73183893d7751439"),
]


@pytest.mark.parametrize("argv,code,digest", PINNED_OUTPUTS,
                         ids=[" ".join(argv) for argv, _, _ in PINNED_OUTPUTS])
def test_output_is_pinned(argv, code, digest, write_map, capsys):
    from root_enclose import cli

    specs = {"COUNTEREXAMPLE": COUNTEREXAMPLE_SPEC, "SN3": SN3_SPEC,
             "NONCANONICAL": NONCANONICAL_SPEC, "ZERO_DENOMINATOR": ZERO_DENOMINATOR_SPEC,
             "PERTURBED": PERTURBED_SPEC}
    argv = [write_map(specs[a]) if a in specs else a for a in argv]
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    if argv[0] == "bench":
        rows = json.loads(out)
        for row in rows:
            del row["wall_time_ns"]
        out = json.dumps(rows, indent=2) + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("spec,code,no_to_json", [
    pytest.param("NONCANONICAL", 1, False, id="NONCANONICAL-1"),
    pytest.param("SN3", 0, False, id="SN3-0"),
    pytest.param("NONCANONICAL", 1, True, id="NONCANONICAL-1-no-to_json"),
])
def test_compare_json_builds_no_witness(spec, code, no_to_json, write_map, capsys, monkeypatch):
    # compare --json writes the dominance rows' ints straight to text: with
    # Witness (and DominanceStats.to_json) unbuildable it still gives the
    # pinned output and exit code
    from root_enclose import analysis, cli

    def unbuildable(*args):
        raise AssertionError("compare --json built a Witness or a JSON dict")

    monkeypatch.setattr(analysis, "Witness", unbuildable)
    if no_to_json:
        monkeypatch.setattr(analysis.DominanceStats, "to_json", unbuildable)
    specs = {"NONCANONICAL": NONCANONICAL_SPEC, "SN3": SN3_SPEC}
    argv = ("compare", spec, "--samples", "300", "--json")
    digest = next(d for a, _, d in PINNED_OUTPUTS if a == argv)
    assert cli.main(["compare", write_map(specs[spec]), *argv[2:]]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_compare_text_builds_one_witness(write_map, capsys, monkeypatch):
    # the text form prints the first violation only, so of the 300 it builds
    # that one Witness
    from root_enclose import analysis, cli

    built = []
    witness = analysis.Witness

    def counting(*args):
        built.append(args)
        return witness(*args)

    monkeypatch.setattr(analysis, "Witness", counting)
    argv = ("compare", "NONCANONICAL", "--samples", "300")
    digest = next(d for a, _, d in PINNED_OUTPUTS if a == argv)
    assert cli.main(["compare", write_map(NONCANONICAL_SPEC), *argv[2:]]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert len(built) == 1


def test_root_json_builds_one_interval(capsys, monkeypatch):
    # root --json reads only the final interval of the 664 bisection steps
    from fractions import Fraction as F

    from root_enclose import cli
    from root_enclose.numeric import Interval
    from root_enclose.solver import bisect_to_eps

    expected = bisect_to_eps(F(1, 3), 3, F(1, 10 ** 200)).intervals[-1]
    built = []
    post_init = Interval.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Interval, "__post_init__", counting)
    argv = ["root", "--x", "1/3", "--n", "3", "--eps", "1e-200", "--map", "bisection", "--json"]
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["final_interval"] == [str(expected.lo), str(expected.hi)]
    assert out["iterations"] == 664
    assert len(built) <= 1


def test_main_builds_one_parser_per_process(write_map, capsys, monkeypatch):
    # the parser is built on the first call and reused; building it makes
    # 11 ArgumentParsers, the subcommands' included
    import argparse

    from root_enclose import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    path = write_map(SN3_SPEC)
    calls = [
        ["root", "--x", "2", "--n", "3", "--eps", "1e-20", "--json"],
        ["root", "--x", "2", "--n", "3", "--eps", "1e-20", "--map", "bisection"],
        ["check", path, "--samples", "50"],
        ["root", "--x", "0", "--n", "3", "--eps", "1"],
        ["compare", path, "--samples", "50", "--json"],
    ]
    codes, built_after = [], []
    for argv in calls:
        codes.append(cli.main(argv))
        built_after.append(len(built))
    capsys.readouterr()
    assert codes == [0, 0, 0, 2, 0]
    assert built.count("root-enclose") <= 1
    # the first call may build the parser; no later one builds any
    assert built_after == built_after[:1] * len(calls)


# in-process calls that follow one another, each to be byte-identical with a
# fresh process: an option set in one call, or a usage error, must not reach
# the next call through the shared parser
REUSE_SEQUENCES = [
    pytest.param([
        ("root", "--x", "2", "--n", "3", "--eps", "1e-50", "--json", "--trace"),
        ("root", "--x", "2", "--n", "3", "--eps", "1e-50"),
    ], id="json-trace-then-plain"),
    pytest.param([
        ("root", "--x", "0", "--n", "3", "--eps", "1"),
        ("root", "--x", "2", "--n", "2", "--eps", "1/6"),
        ("root", "--x", "2", "--n", "2", "--eps", "1/6", "--bogus"),
        ("root", "--x", "2", "--n", "2", "--eps", "1/6", "--json"),
        ("frobnicate",),
        ("root", "--x", "2", "--n", "2", "--eps", "1/6"),
    ], id="usage-errors-then-valid"),
    pytest.param([
        ("check", "MAP", "--samples", "200", "--seed", "3", "--json"),
        ("check", "MAP", "--samples", "200", "--json"),
        ("check", "MAP", "--samples", "200", "--seed", "3"),
        ("check", "MAP", "--samples", "200"),
        ("compare", "MAP", "--samples", "200", "--seed", "3", "--json"),
        ("compare", "MAP", "--samples", "200", "--json"),
    ], id="seeded-then-default-seed"),
]


@pytest.mark.parametrize("sequence", REUSE_SEQUENCES)
def test_parser_reuse_leaks_no_state(sequence, write_map, capsys, monkeypatch):
    from root_enclose import cli

    # usage messages are wrapped to the terminal width: fix it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    path = write_map(SEED_SENSITIVE_SPEC)
    for argv in sequence:
        argv = [path if arg == "MAP" else arg for arg in argv]
        code = cli.main(argv)
        out, err = capsys.readouterr()
        fresh = run_cli(*argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_an_omitted_seed_is_zero_after_a_seeded_call(write_map, capsys):
    from root_enclose import cli

    path = write_map(SEED_SENSITIVE_SPEC)
    outputs = []
    for seed in (["--seed", "3"], [], ["--seed", "0"]):
        assert cli.main(["check", path, "--samples", "200", "--json", *seed]) == 1
        outputs.append(capsys.readouterr().out)
    seeded, omitted, zero = outputs
    assert omitted == zero != seeded


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit on this interpreter")
def test_cli_works_at_the_default_digit_limit(capsys, monkeypatch):
    # a 4400-digit x is read and written exactly, in JSON and in the text
    # trace (whose first width has 4400 digits), without the CLI touching the
    # process-wide digit limit
    from root_enclose import cli
    from root_enclose.numeric import parse_rational

    x = "1" + "0" * 4399
    argv = ["root", "--x", x, "--n", "2", "--eps", "1", "--max-iter", "1"]
    set_limit = sys.set_int_max_str_digits
    previous = sys.get_int_max_str_digits()

    def untouchable(*args):
        raise AssertionError("the CLI changed the int-to-str digit limit")

    try:
        set_limit(sys.int_info.default_max_str_digits)
        monkeypatch.setattr(sys, "set_int_max_str_digits", untouchable)
        assert cli.main([*argv, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert cli.main([*argv, "--trace"]) == 1
        text = capsys.readouterr().out
        assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
    finally:
        set_limit(previous)
    assert payload["terminated"] == "max-iterations"
    assert payload["x"] == x
    lo, hi = (parse_rational(v) for v in payload["final_interval"])
    assert lo ** 2 <= parse_rational(x) <= hi ** 2
    assert f"  iter 0: [1, {x}] width={'9' * 4399}\n" in text


_HUGE = "1" + "0" * 5000


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit on this interpreter")
@pytest.mark.parametrize("text, message", [
    ('{"n": 2, "p": ["-1", "0", "0", HUGE, "1"], "q": ["-1", "0", "0", "2", "0"]}',
     "error: bad entry in p: not a rational literal: <int too long to print>"),
    ('{"n": HUGE, "p": [], "q": []}', "error: n must be an integer from 2 to "),
    ('{"n": -HUGE, "p": [], "q": []}', "error: n must be an integer from 2 to "),
], ids=["p-entry", "n", "minus-n"])
def test_map_spec_integers_past_the_digit_limit_are_input_errors(text, message, tmp_path,
                                                                   capsys):
    # a 5001-digit JSON integer is read, and the error naming its field is
    # written, at the default int-to-str digit limit
    from root_enclose import cli

    path = tmp_path / "map.json"
    path.write_text(text.replace("HUGE", _HUGE))
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        codes = [cli.main([cmd, str(path)]) for cmd in ("check", "compare", "locus")]
    finally:
        sys.set_int_max_str_digits(previous)
    assert codes == [2, 2, 2]
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 3 and all(line.startswith(message) for line in lines)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit on this interpreter")
@pytest.mark.parametrize("point,message", [
    ((_HUGE, "1", "1"), f"error: need 0 < L <= U, got ({_HUGE}, 1)\n"),
    (("1", "2", _HUGE), f"error: need L^n <= x <= U^n, got x={_HUGE}\n"),
], ids=["L", "x"])
def test_locus_points_past_the_digit_limit_are_input_errors(point, message, write_map,
                                                            capsys):
    from root_enclose import cli

    argv = ["locus", write_map(COUNTEREXAMPLE_SPEC), "--L", point[0], "--U", point[1],
            "--x", point[2]]
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        code = cli.main(argv)
        err = capsys.readouterr().err
    finally:
        sys.set_int_max_str_digits(previous)
    assert code == 2
    assert err == message


def test_a_degree_too_large_to_index_is_an_input_error(tmp_path, capsys):
    from root_enclose import cli

    huge = str(2 ** 64)
    spec = tmp_path / "spec.json"
    spec.write_text('{"maps": ["secant-newton"], "xs": ["2"], "ns": [%s], "epses": ["1/10"],'
                    ' "reps": 1}' % huge)
    for argv in (["root", "--x", "2", "--n", huge, "--eps", "1/10"],
                 ["root", "--x", "2", "--n", huge, "--eps", "1/10", "--backend", "float"],
                 ["bench", str(spec)]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: n must be an integer from 2 to {sys.maxsize}, got {huge}\n")
