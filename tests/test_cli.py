import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

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
# the bundled counterexample as it is sometimes quoted, with q0 = +1
UNREPAIRED_Q0_SPEC = {
    "n": 3,
    "p": ["-1", "0", "0", "0", "2", "1/2", "1"],
    "q": ["1", "0", "0", "0", "3", "0", "0"],
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
    # the exact step [4/3, 3/2] has width exactly eps = 1/6; rounded outward
    # onto the 2^-19 lattice it is wider than eps, so a second step follows
    out = run_cli("root", "--x", "2", "--n", "2", "--eps", "1/6")
    assert out.returncode == 0
    assert "[740171/524288, 371371/262144]" in out.stdout
    assert "iterations: 2" in out.stdout


def test_root_rejects_nonpositive_x():
    out = run_cli("root", "--x", "0", "--n", "3", "--eps", "1")
    assert out.returncode == 2


def test_root_rejects_garbage_eps():
    out = run_cli("root", "--x", "2", "--n", "2", "--eps", "0.001")
    assert out.returncode == 2


def test_root_eps_shorthand_and_trace():
    from fractions import Fraction as F

    out = run_cli("root", "--x", "2", "--n", "2", "--eps", "1e-3",
                  "--trace", "--json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["iterations"] == 3
    # the exact [24/17, 17/12] rounded outward onto the 2^-26 lattice
    lo, hi = (F(v) * 2 ** 26 for v in data["intervals"][2])
    assert lo.denominator == hi.denominator == 1
    assert lo <= F(24 * 2 ** 26, 17) < lo + 1 and hi - 1 < F(17 * 2 ** 26, 12) <= hi


def test_root_float_backend():
    out = run_cli("root", "--x", "2", "--n", "2", "--eps", "1e-12",
                  "--backend", "float", "--json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["backend"] == "float"
    lo = float(data["final_interval"][0])
    assert abs(lo - 1.4142135623730951) < 1e-11


# p3 = 1/10^310, a subnormal double: the first lower endpoint overflows to +inf
TINY_P3_SPEC = {"n": 2, "p": ["-1", "0", "0", "1/1" + "0" * 310, "0"],
                "q": ["-1", "0", "0", "2", "0"]}


def test_root_float_infinite_endpoint_is_non_finite(write_map):
    out = run_cli("root", "--x", "2", "--n", "2", "--eps", "1e-12",
                  "--backend", "float", "--map", write_map(TINY_P3_SPEC))
    assert out.returncode == 1
    assert out.stdout == "[1.0, 2.0]\niterations: 0\nterminated: non-finite\n"


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


@pytest.mark.parametrize("command", ["check", "compare"])
def test_the_bundled_counterexample_is_read_by_name(command, write_map, tmp_path, capsys,
                                                    monkeypatch):
    # the same bytes as the spec file, and the name shadows a spec file
    # named counterexample in the working directory
    from root_enclose import cli

    argv = ["--samples", "300", "--json"]
    code = cli.main([command, write_map(COUNTEREXAMPLE_SPEC), *argv])
    from_file = capsys.readouterr().out
    write_map(SN3_SPEC, name="counterexample")
    monkeypatch.chdir(tmp_path)
    assert cli.main([command, "counterexample", *argv]) == code == 1
    assert capsys.readouterr().out == from_file


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
    # the bundled map and Secant-Newton return the same interval at the
    # equality point ([1, 2], x = 27/8), where both locus polynomials vanish
    out = run_cli("locus", "counterexample", "--L", "1", "--U", "2", "--x", "27/8")
    assert out.returncode == 0
    assert out.stdout.count("[75/56, 155/96]") == 2
    assert "map output:           [75/56, 155/96]" in out.stdout
    assert "secant-newton output: [75/56, 155/96]" in out.stdout
    assert "at (L, U, x) = (1, 2, 27/8): f_p = 0, f_q = 0" in out.stdout
    assert "outputs coincide with secant-newton: yes" in out.stdout


def test_locus_of_the_bundled_counterexample():
    # locus reads the bundled map by name, as root --map does
    out = run_cli("locus", "counterexample", "--L", "1", "--U", "2", "--x", "27/8",
                  "--json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["f_p"] == "L^2*x - 1/2*L*U*x - L^5 + 1/2*L^4*U"
    assert data["f_q"] == "0"
    assert data["evaluation"] == {
        "L": "1", "U": "2", "x": "27/8", "f_p": "0", "f_q": "0",
        "map_output": ["75/56", "155/96"],
        "secant_newton_output": ["75/56", "155/96"],
        "outputs_coincide": True,
    }


def test_locus_at_a_zero_denominator(write_map):
    # the map has no output where its p denominator form is 0; Secant-Newton
    # still has one, and nothing is compared
    path = write_map(ZERO_DENOMINATOR_SPEC)
    argv = ("locus", path, "--L", "1", "--U", "1", "--x", "1")
    out = run_cli(*argv)
    assert out.returncode == 0
    assert "map output:           none, a denominator is zero here" in out.stdout
    assert "secant-newton output: [1, 1]" in out.stdout
    assert "outputs coincide" not in out.stdout
    out = run_cli(*argv, "--json")
    assert out.returncode == 0
    evaluation = json.loads(out.stdout)["evaluation"]
    assert evaluation["map_output"] is None
    assert evaluation["outputs_coincide"] is None
    assert evaluation["secant_newton_output"] == ["1", "1"]


def test_counterexample_unrepaired_q0(write_map):
    # the map sometimes quoted with q0 = +1 is not contracting: check
    # rejects it at the first head probe, (L, r, U) = (1, 1, 1), before any
    # seeded sample is drawn
    path = write_map(UNREPAIRED_Q0_SPEC)
    out = run_cli("check", path)
    assert out.returncode == 1
    assert "q0 must be -1, got 1" in out.stdout
    assert "witness: L=1  r=1  U=1  x=1" in out.stdout
    assert "violated: U' <= U  with lhs=5/3, rhs=1" in out.stdout
    out = run_cli("check", path, "--json")
    assert out.returncode == 1
    verdict = json.loads(out.stdout)["contraction"]
    assert verdict == {
        "outcome": "falsified", "samples_checked": 1,
        "witness": {"L": "1", "U": "1", "lhs": "5/3", "r": "1", "rhs": "1",
                    "violated": "U' <= U", "x": "1"},
    }


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
    # any name but a method's or "counterexample" is a map-spec path
    spec = tmp_path / "bench.json"
    missing = tmp_path / "newton-raphson"
    spec.write_text(json.dumps({
        "maps": [str(missing)], "xs": ["2"], "ns": [2],
        "epses": ["1/10"], "backend": "rational", "reps": 1}))
    out = run_cli("bench", str(spec))
    assert out.returncode == 2
    assert out.stderr.startswith(f"error: cannot read map spec {missing}: ")


def test_every_command_reads_a_map_file_of_any_name(tmp_path, capsys):
    # root --map, check, compare, locus and bench read a map argument by one
    # rule: "counterexample" is the bundled map, any other text a map-spec
    # path, here one without the .json suffix
    from fractions import Fraction as F

    from root_enclose import analysis, cli
    from root_enclose.maps import check_canonical, counterexample_map, load_map
    from root_enclose.solver import refine_to_eps

    path = str(tmp_path / "perturbed-3")
    (tmp_path / "perturbed-3").write_text(json.dumps(PERTURBED_SPEC))
    m = load_map(path)
    cfg = analysis.SampleConfig(0, 50)

    def run(*argv):
        assert cli.main(list(argv)) == 0
        return capsys.readouterr().out

    root = json.loads(run("root", "--map", path, "--x", "2", "--n", "3", "--eps", "1/10000",
                          "--json"))
    assert root["map"] == path
    assert root["final_interval"] == refine_to_eps(2, 3, F(1, 10000), m).to_json()[
        "final_interval"]
    check = json.loads(run("check", path, "--samples", "50", "--json"))
    assert check["canonical"] == check_canonical(m).to_json()
    assert check["contraction"] == analysis.check_map(m, cfg)[1].to_json()
    compare = json.loads(run("compare", path, "--samples", "50", "--json"))
    assert compare == json.loads(analysis.check_dominance(m, cfg).to_json_text())
    assert run("locus", path).startswith(
        f"f_p = {analysis.locus_text(analysis.equality_locus(m)[0])}\n")
    spec = tmp_path / "bench.json"
    spec.write_text(json.dumps({"maps": [path, "counterexample"], "xs": ["2"], "ns": [3],
                                "epses": ["1/10000"], "reps": 1}))
    rows = json.loads(run("bench", str(spec), "--format", "json"))
    widths = [refine_to_eps(2, 3, F(1, 10000), mm).to_json()["final_width"]
              for mm in (m, counterexample_map())]
    assert [(r["map"], r["final_width"]) for r in rows] == list(zip([path, "counterexample"],
                                                                    widths))
    assert rows[0]["final_width"] == root["final_width"]
    assert widths[0] != widths[1]


def test_bench_json_format_and_out_file(tmp_path):
    target = tmp_path / "rows.json"
    out = run_cli("bench", "--format", "json", "--out", str(target))
    assert out.returncode == 0
    assert out.stdout == ""
    rows = json.loads(target.read_text())
    assert {row["map"] for row in rows} == {"secant-newton", "bisection"}


@pytest.mark.parametrize("argv", [
    ["root", "--x", "2", "--n", "2", "--eps", "1/10"],
    ["check", "MAP", "--samples", "50"],
    ["compare", "MAP", "--samples", "50"],
    ["bench"],
], ids=["root", "check", "compare", "bench"])
@pytest.mark.parametrize("target", ["missing-directory", "directory", "under-a-file"])
def test_an_unwritable_out_is_an_input_error(argv, target, tmp_path, write_map, capsys,
                                             monkeypatch):
    # exit 1 is kept for a falsified property: an --out that cannot be
    # written exits 2 with one error line, as an unreadable spec does, and
    # before the command's work, which creates nothing
    from root_enclose import analysis, bench, cli

    def work(*args, **kwargs):
        raise AssertionError("the command ran before its --out was checked")

    for module, name in ((cli, "refine_to_eps"), (analysis, "check_map"),
                         (analysis, "check_dominance"), (bench, "run_bench")):
        monkeypatch.setattr(module, name, work)
    spec = write_map(SN3_SPEC)
    out = {"missing-directory": tmp_path / "missing" / "o.txt", "directory": tmp_path,
           "under-a-file": tmp_path / "map.json" / "o.txt"}[target]
    argv = [spec if a == "MAP" else a for a in argv]
    before = sorted(tmp_path.rglob("*"))
    assert cli.main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the reason is the one opening the file gives
    with pytest.raises(OSError) as opened:
        open(out, "w")
    assert captured.err == f"error: cannot write {out}: {opened.value}\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.skipif(not os.access("/dev/full", os.W_OK), reason="no /dev/full to write to")
@pytest.mark.parametrize("argv", [
    ["root", "--x", "2", "--n", "2", "--eps", "1/1000", "--json"],
    ["compare", "MAP", "--samples", "2000", "--json"],
], ids=["root", "compare"])
def test_a_full_stdout_is_an_input_error(argv, write_map):
    # exit 1 is kept for a falsified property: a standard output that
    # cannot be written exits 2 with one error line, as an --out does
    argv = [write_map(NONCANONICAL_SPEC) if a == "MAP" else a for a in argv]
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "root_enclose.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, text=True)
    assert done.returncode == 2
    assert done.stderr.startswith("error: cannot write standard output: ")
    assert done.stderr.count("\n") == 1


@pytest.mark.skipif(not os.access("/dev/full", os.W_OK), reason="no /dev/full to write to")
def test_a_failed_stdout_write_in_process_keeps_stdout(write_map):
    # main run in process: after the failed write its host still writes to
    # the same fd 1, no fd is left open, and the exit flush prints nothing
    child = (
        "import os, sys\n"
        "from root_enclose import cli\n"
        "fds = len(os.listdir('/proc/self/fd'))\n"
        "rc = cli.main(['compare', sys.argv[1], '--samples', '2000', '--json'])\n"
        "same = os.fstat(1).st_rdev == os.stat('/dev/full').st_rdev\n"
        "sys.stderr.write(f'{rc} {same} {len(os.listdir(\"/proc/self/fd\")) - fds}\\n')\n"
    )
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-c", child, write_map(NONCANONICAL_SPEC)],
                              stdout=full, stderr=subprocess.PIPE, text=True)
    assert done.returncode == 0
    assert done.stderr.splitlines() == [
        "error: cannot write standard output: [Errno 28] No space left on device",
        "2 True 0",
    ]


def test_a_failed_stdout_write_leaves_nothing_for_the_exit_flush(tmp_path, monkeypatch):
    # a stdout that keeps its bytes after a failed flush, as some CPython
    # versions do: the interpreter's flush at exit must find nothing to write
    from types import SimpleNamespace

    from root_enclose import cli

    class KeepsBytes:
        def __init__(self, fd):
            self.fd, self.held, self.failed = fd, [], False

        def fileno(self):
            return self.fd

        def write(self, text):
            self.held.append(text)

        def flush(self):
            if not self.failed:
                self.failed = True
                raise OSError(28, "No space left on device")
            os.write(self.fd, "".join(self.held).encode())
            self.held.clear()

    target = tmp_path / "stdout"
    with open(target, "w") as fh:
        fake = KeepsBytes(fh.fileno())
        monkeypatch.setattr(sys, "stdout", fake)
        with pytest.raises(ValueError, match="^cannot write standard output: "):
            cli._write(SimpleNamespace(out=None), ["{", "}"])
        fake.flush()
        os.write(fake.fd, b"after")
    assert target.read_bytes() == b"after"


def test_a_reader_that_leaves_is_an_input_error(write_map):
    # compare --json | head -c 50: the text left when the pipe closes goes
    # nowhere, and no traceback or exit-time flush error is printed
    proc = subprocess.Popen(
        [sys.executable, "-m", "root_enclose.cli", "compare", write_map(NONCANONICAL_SPEC),
         "--samples", "2000", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert len(proc.stdout.read(50)) == 50
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == "error: cannot write standard output: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("content", [b"[" * 100_000, b'{"n": \xff}'],
                         ids=["nested", "not-utf-8"])
@pytest.mark.parametrize("command,kind", [
    ("check", "map"), ("compare", "map"), ("locus", "map"), ("bench", "bench"),
])
def test_a_spec_that_is_not_json_text_is_an_input_error(content, command, kind, tmp_path,
                                                         capsys):
    # nested past the parser's recursion limit, or not UTF-8: exit 2 with
    # one error line that names the spec
    from root_enclose import cli

    path = tmp_path / "spec.json"
    path.write_bytes(content)
    assert cli.main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind} spec {path} is not valid JSON: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("root", "--x", "2", "--n", "2", "--eps", "1/6", "--jobs", "2"),
    ("bench", "--json"),
    ("check", "m.json", "--jobs", "2"),
    ("compare", "m.json", "--jobs", "2"),
    # removed: locus counterexample --L 1 --U 2 --x 27/8 prints what it
    # printed, so argparse rejects its name
    ("counterexample",),
])
def test_options_a_subcommand_does_not_read_are_rejected(argv):
    out = run_cli(*argv)
    assert out.returncode == 2
    reason = "invalid choice" if argv[0] == "counterexample" else "unrecognized arguments"
    assert reason in out.stderr


_TOO_BIG_FOR_A_FLOAT = "1" + "0" * 400


_TOO_SMALL_FOR_A_FLOAT = "1/1" + "0" * 400


@pytest.mark.parametrize("argv,error", [
    (("root", "--backend", "float", "--x", _TOO_BIG_FOR_A_FLOAT, "--n", "2",
      "--eps", "1e-3"), f"x does not fit in a double, got {_TOO_BIG_FOR_A_FLOAT}\n"),
    (("root", "--backend", "float", "--x", "2", "--n", "2",
      "--eps", _TOO_BIG_FOR_A_FLOAT),
     f"eps does not fit in a double, got {_TOO_BIG_FOR_A_FLOAT}\n"),
    (("root", "--backend", "float", "--x", "2", "--n", "2", "--eps", "1e-3",
      "--trace"), "the float backend keeps no interval sequence for --trace\n"),
    (("root", "--backend", "float", "--map", "bisection", "--x", "2", "--n", "2",
      "--eps", "1e-3"), "the float backend supports refinement maps only\n"),
    (("bench", "SPEC"), f"x does not fit in a double, got {_TOO_BIG_FOR_A_FLOAT}\n"),
    # a map coefficient beyond the float range
    (("root", "--backend", "float", "--map", "BIG_MAP", "--x", "2", "--n", "2",
      "--eps", "1e-3"), "map coefficients must fit in a float: "),
    (("bench", "BIG_MAP_SPEC"),
     "float backend: map BIG_MAP: map coefficients must fit in a float: "),
    # a bench spec's eps is checked as root checks it, before any row runs
    (("bench", "TINY_EPS_SPEC"),
     f"eps rounds to 0.0 as a double, got {_TOO_SMALL_FOR_A_FLOAT}\n"),
], ids=[f"argv{i}" for i in range(8)])
def test_float_path_rejects_what_it_cannot_run(argv, error, tmp_path, capsys, monkeypatch):
    from root_enclose import bench, cli

    def run(*args):
        raise AssertionError("a bench row ran")

    monkeypatch.setattr(bench, "_run", run)
    big_map = tmp_path / "big-map.json"
    big_map.write_text(json.dumps({
        "n": 2, "p": ["-1", "0", "0", _TOO_BIG_FOR_A_FLOAT, "1"],
        "q": ["-1", "0", "0", "2", "0"]}))
    files = {"BIG_MAP": big_map}
    for name, spec in (("SPEC", {"maps": ["secant-newton"],
                                 "xs": ["2", _TOO_BIG_FOR_A_FLOAT]}),
                       ("TINY_EPS_SPEC", {"maps": ["secant-newton"], "xs": ["2"],
                                          "epses": ["1/10", _TOO_SMALL_FOR_A_FLOAT]}),
                       ("BIG_MAP_SPEC", {"maps": [str(big_map)], "xs": ["2"]})):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps({
            "ns": [2], "epses": ["1/10"], **spec, "backend": "float", "reps": 1}))
    assert cli.main([str(files[arg]) if arg in files else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + error.replace("BIG_MAP", str(big_map)))


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
     "c60ef52c15d5f0f08c208c9cfb31ad3d640088b1fb09ea4b921f57bb541f746d"),
    (("root", "--x", "2", "--n", "3", "--eps", "1e-50", "--map", "bisection",
      "--json", "--trace"), 0,
     "a2441c5c4a6326e3a5c13819e87f1b2faa8f1dc1e5320a79c39482c5f50f14d3"),
    (("locus", "COUNTEREXAMPLE", "--json"), 0,
     "62d5edd8a9c11343480a9108133c77fa7e834194c49e04f314edd0dc4eb72acc"),
    (("locus", "counterexample", "--json"), 0,
     "62d5edd8a9c11343480a9108133c77fa7e834194c49e04f314edd0dc4eb72acc"),
    (("locus", "COUNTEREXAMPLE", "--L", "1", "--U", "3", "--x", "27"), 0,
     "c7a4ee8892a0b3dcb8cd623dbc0dbbc5e3bcb110637421ab947d6707bd0d38d5"),
    (("locus", "counterexample", "--L", "1", "--U", "2", "--x", "27/8"), 0,
     "a7652b85235421bcc41f5ea5b93724329b1f1ec5e7421bcf118b1fa979b676bc"),
    (("locus", "counterexample", "--L", "1", "--U", "2", "--x", "27/8", "--json"), 0,
     "69a94245c1b0c2b574adbb0bef15de8eecead65e9e401023fe26520fa8f3a850"),
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


@pytest.mark.parametrize("spec", ["SN3", "NONCANONICAL", "COUNTEREXAMPLE", "NO_ROWS"])
def test_compare_json_pieces_are_the_joined_text(spec, write_map, tmp_path, capsys,
                                                 monkeypatch):
    # compare --json writes DominanceStats.json_pieces one by one (600
    # samples give more than JSON_PIECE_ROWS rows): stdout and --out each
    # hold to_json_text and a final newline, byte for byte
    from root_enclose import analysis, cli
    from root_enclose.maps import map_argument

    if spec == "NO_ROWS":
        # no map has both lists empty: at the corner samples with L = U
        # every canonical map's output is Secant-Newton's
        monkeypatch.setattr(analysis, "check_dominance",
                            lambda m, cfg: analysis.DominanceStats(cfg.count, (), ()))
    specs = {"SN3": SN3_SPEC, "NONCANONICAL": NONCANONICAL_SPEC,
             "COUNTEREXAMPLE": COUNTEREXAMPLE_SPEC, "NO_ROWS": SN3_SPEC}
    path = write_map(specs[spec])
    stats = analysis.check_dominance(map_argument(path), analysis.SampleConfig(0, 600))
    expected = stats.to_json_text() + "\n"
    code = 1 if stats.violation_rows else 0
    argv = ["compare", path, "--samples", "600", "--json"]
    assert cli.main(argv) == code
    assert capsys.readouterr().out == expected
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--out", str(out)]) == code
    assert out.read_bytes() == expected.encode()


def test_compare_json_writes_in_memory_that_does_not_grow_with_samples(write_map, tmp_path):
    # a non-canonical map's rows grow with --samples, but writing their text
    # takes a fixed amount above check_dominance's own peak, a few pieces of
    # rows; the whole text of 3000 such violations is about 1 MB
    from root_enclose import analysis, cli
    from root_enclose.maps import map_argument

    path = write_map(NONCANONICAL_SPEC)
    out = str(tmp_path / "out.json")
    m = map_argument(path)
    cli.main(["compare", path, "--samples", "100", "--json", "--out", out])

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    extra = {}
    for samples in (3000, 12_000):
        rows = peak(lambda: analysis.check_dominance(m, analysis.SampleConfig(0, samples)))
        written = peak(lambda: cli.main(["compare", path, "--samples", str(samples),
                                         "--json", "--out", out]))
        extra[samples] = written - rows
    assert abs(extra[12_000] - extra[3000]) < 2 ** 20, extra


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


def test_a_degree_too_large_to_index_is_an_input_error(tmp_path, capsys, monkeypatch):
    # the degree is checked against MAX_DEGREE before any map is built
    from root_enclose import cli, solver
    from root_enclose.maps import MAX_DEGREE

    def build(n):
        raise AssertionError("a map was built before its degree was checked")

    monkeypatch.setattr(solver, "secant_newton", build)
    for huge in (str(2 ** 64), str(10 ** 9), "10001"):
        spec = tmp_path / "spec.json"
        spec.write_text('{"maps": ["secant-newton"], "xs": ["2"], "ns": [%s],'
                        ' "epses": ["1/10"], "reps": 1}' % huge)
        for argv in (["root", "--x", "2", "--n", huge, "--eps", "1/10"],
                     ["root", "--x", "2", "--n", huge, "--eps", "1/10", "--map", "bisection"],
                     ["root", "--x", "2", "--n", huge, "--eps", "1/10", "--backend", "float"],
                     ["bench", str(spec)]):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err == (
                f"error: n must be an integer from 2 to {MAX_DEGREE}, got {huge}\n")


def test_the_eps_shorthand_is_capped_before_its_power_is_built(capsys, monkeypatch):
    # 10**k for a k of ten digits would take days; k is checked first
    from fractions import Fraction as F

    from root_enclose import cli

    def solve(*args, **kwargs):
        raise AssertionError("the solver ran on an eps past the cap")

    monkeypatch.setattr(cli, "refine_to_eps", solve)
    for k in (cli.MAX_EPS_EXPONENT + 1, 10 ** 20 - 1):
        assert cli.main(["root", "--x", "2", "--n", "2", "--eps", f"1e-{k}"]) == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --eps: the shorthand 1e-k takes k up to "
            f"{cli.MAX_EPS_EXPONENT}, got '1e-{k}'\n")
    # a literal that does not parse is the parser's error; a value that
    # parses but is not positive is the solver's; the last --x or --eps
    # given is the one parsed
    monkeypatch.undo()
    for option, value, message in (("--eps", "0", "eps must be positive, got 0"),
                                   ("--x", "0", "x must be positive, got 0"),
                                   ("--eps", "1/0", "argument --eps: zero denominator: '1/0'")):
        argv = ["root", "--x", "2", "--n", "2", "--eps", "1/10", option, value]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
    monkeypatch.setattr(cli, "MAX_EPS_EXPONENT", 5)
    assert cli._parse_eps("1e-5") == F(1, 10 ** 5)
    with pytest.raises(ValueError, match="the shorthand 1e-k takes k up to 5"):
        cli._parse_eps("1e-6")
