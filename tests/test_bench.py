import json
import sys
from fractions import Fraction as F

import pytest

from root_enclose.bench import (
    BenchSpec,
    BenchSpecError,
    CSV_HEADER,
    default_spec,
    emit,
    load_spec,
    run_bench,
    spec_from_dict,
)
from root_enclose.maps import MapSpecError, load_map
from root_enclose.numeric import Interval, parse_rational
from root_enclose.solver import refine_to_eps

DOMINATED_SPEC = {
    "n": 2,
    "p": ["-1", "0", "0", "2", "1"],
    "q": ["-1", "0", "0", "3", "0"],
}

ZERO_DEN_SPEC = {
    # p-denominator 2L - U vanishes on the initial interval of x = 2
    "n": 2,
    "p": ["-1", "0", "0", "2", "-1"],
    "q": ["-1", "0", "0", "2", "0"],
}


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit on this interpreter")
def test_deep_row_at_the_default_digit_limit():
    # a width of 10^-10000 needs thousands of digits, whatever the rounding:
    # here the final width has a 10,006-digit denominator, beyond the
    # default limit of 4300
    spec = BenchSpec(("secant-newton",), (F(2),), (2,), (F(1, 10 ** 10000),),
                     "rational", 1)
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        rows = run_bench(spec)
        limited = emit(rows, "csv"), emit(rows, "json")
        sys.set_int_max_str_digits(0)
        (row,) = rows
        assert F(row.final_width) == refine_to_eps(F(2), 2, F(1, 10 ** 10000)).widths[-1]
        assert limited == (emit(rows, "csv"), emit(rows, "json"))
    finally:
        sys.set_int_max_str_digits(previous)
    assert len(row.final_width) > sys.int_info.default_max_str_digits
    assert json.loads(limited[1])[0]["eps"] == "1/1" + "0" * 10000


def test_default_spec_iteration_counts():
    rows = run_bench(default_spec())
    assert len(rows) == 10  # 2 maps x 5 reps
    by_map = {}
    for row in rows:
        by_map.setdefault(row.map_name, set()).add(row.iterations)
    assert by_map["secant-newton"] == {3}
    assert by_map["bisection"] == {10}


def test_default_secant_newton_rows_end_on_the_exact_map_output():
    # the kernel's unreduced denominators stay within the lattice of every
    # step, so the third step is the map's exact [816/577, 577/408], not a
    # rounding of it onto the 2^-26 lattice
    trace = refine_to_eps(F(2), 2, F(1, 1000))
    assert (trace.iterations, trace.final) == (3, Interval(F(816, 577), F(577, 408)))
    widths = {row.final_width for row in run_bench(default_spec())
              if row.map_name == "secant-newton"}
    assert widths == {"1/235416"}


def test_zero_iterations_on_degenerate_x():
    spec = BenchSpec(("secant-newton",), (F(1),), (2, 5), (F(1, 10),), "rational", 1)
    for row in run_bench(spec):
        assert row.iterations == 0
        assert row.final_width == "0"


def test_rows_cover_the_full_grid_in_spec_order():
    spec = BenchSpec(("secant-newton", "bisection"), (F(2), F(3)), (2,),
                     (F(1, 10), F(1, 100)), "rational", 2)
    rows = run_bench(spec)
    assert len(rows) == 2 * 2 * 1 * 2 * 2
    names = [row.map_name for row in rows]
    assert names == ["secant-newton"] * 8 + ["bisection"] * 8


def test_iteration_counts_deterministic_across_runs():
    spec = BenchSpec(("secant-newton",), (F(7),), (3,), (F(1, 50),), "rational", 3)
    first = [row.iterations for row in run_bench(spec)]
    second = [row.iterations for row in run_bench(spec)]
    assert first == second
    assert len(set(first)) == 1


def test_dominated_map_never_beats_secant_newton(write_map):
    path = write_map(DOMINATED_SPEC, "dominated.json")
    spec = BenchSpec(("secant-newton", path), (F(2), F(5), F(3, 2)), (2,),
                     (F(1, 10), F(1, 30)), "rational", 1)
    rows = run_bench(spec)
    sn = {(r.x, r.eps): r.iterations for r in rows if r.map_name == "secant-newton"}
    dom = {(r.x, r.eps): r.iterations for r in rows if r.map_name == path}
    assert set(sn) == set(dom)
    for key in sn:
        assert sn[key] <= dom[key]


def test_float_backend_rows():
    spec = BenchSpec(("secant-newton", "bisection"), (F(2),), (2,),
                     (F(1, 1000),), "float", 1)
    rows = run_bench(spec)
    assert [r.iterations for r in rows] == [3, 10]
    for r in rows:
        assert float(r.final_width) <= 1e-3


def test_failure_rows_do_not_abort(write_map):
    path = write_map(ZERO_DEN_SPEC, "zeroden.json")
    for backend, failure in (("rational", "denominator-zero"), ("float", "non-finite")):
        spec = BenchSpec((path, "secant-newton"), (F(2),), (2,), (F(1, 10),), backend, 1)
        rows = run_bench(spec)
        assert rows[0].final_width == failure
        assert rows[1].iterations == 2


def test_a_map_that_leaves_the_root_gives_not_contracting_rows(write_map):
    # p-denominator (L + U)/2, below the secant form: the first step
    # already misses the root
    path = write_map({"n": 2, "p": ["-1", "0", "0", "1/2", "1/2"],
                      "q": ["-1", "0", "0", "2", "0"]}, "half-secant-2.json")
    rows = run_bench(BenchSpec((path,), (F(2), F(3)), (2,), (F(1, 1000),), "rational", 1))
    assert [(r.x, r.iterations, r.final_width) for r in rows] == [
        (F(2), 0, "not-contracting"), (F(3), 0, "not-contracting")]


def test_float_bisection_overflow_is_a_row():
    spec = spec_from_dict({"maps": ["bisection"], "xs": [str(10 ** 100)], "ns": [7],
                           "epses": ["1/1000000000000"], "backend": "float", "reps": 1})
    [row] = run_bench(spec)
    assert (row.iterations, row.final_width) == (0, "non-finite")


def test_degree_mismatch_is_recorded_per_row():
    for backend in ("rational", "float"):
        spec = BenchSpec(("counterexample",), (F(2),), (2, 3), (F(1, 10),), backend, 1)
        rows = run_bench(spec)
        assert rows[0].final_width == "n-mismatch"
        assert rows[1].final_width != "n-mismatch"


def test_unknown_map_name_rejected(tmp_path, monkeypatch):
    # a name that is not a method or "counterexample" is a map-spec path,
    # read as root --map reads it
    monkeypatch.chdir(tmp_path)
    spec = BenchSpec(("no-such-map",), (F(2),), (2,), (F(1, 10),), "rational", 1)
    with pytest.raises(MapSpecError, match="^cannot read map spec no-such-map: "):
        run_bench(spec)


def test_emit_csv_header_and_shape():
    assert emit([], "csv") == CSV_HEADER + "\n"
    rows = run_bench(default_spec())
    lines = emit(rows, "csv").strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(rows)
    for line in lines[1:]:
        assert len(line.split(",")) == 8


def test_emit_json_round_trips():
    rows = run_bench(BenchSpec(("secant-newton",), (F(2),), (2,),
                               (F(1, 6),), "rational", 1))
    decoded = json.loads(emit(rows, "json"))
    assert decoded == [row.to_json() for row in rows]
    for obj, row in zip(decoded, rows):
        assert parse_rational(obj["x"]) == row.x
        assert parse_rational(obj["eps"]) == row.eps


def test_spec_from_dict_validation():
    good = {"maps": ["secant-newton"], "xs": ["2"], "ns": [2],
            "epses": ["1/1000"], "backend": "rational", "reps": 2}
    spec = spec_from_dict(good)
    assert spec.xs == (F(2),)
    with pytest.raises(BenchSpecError, match="unknown fields"):
        spec_from_dict({**good, "extra": 1})
    with pytest.raises(BenchSpecError):
        spec_from_dict({**good, "ns": [1]})
    with pytest.raises(BenchSpecError):
        spec_from_dict({**good, "backend": "decimal"})
    with pytest.raises(BenchSpecError):
        spec_from_dict({**good, "reps": 0})
    with pytest.raises(BenchSpecError):
        spec_from_dict({**good, "xs": []})
    with pytest.raises(BenchSpecError):
        spec_from_dict({**good, "epses": ["0"]})
    # the float backend checks each x and eps as refine_float does
    huge, tiny = "1" + "0" * 400, "1/1" + "0" * 400
    for bad, message in (({"xs": ["2", huge]}, f"x does not fit in a double, got {huge}"),
                         ({"xs": [tiny]}, f"x rounds to 0.0 as a double, got {tiny}"),
                         ({"epses": [huge]}, f"eps does not fit in a double, got {huge}"),
                         ({"epses": [tiny]}, f"eps rounds to 0.0 as a double, got {tiny}")):
        spec_from_dict({**good, **bad})
        with pytest.raises(BenchSpecError) as exc:
            spec_from_dict({**good, **bad, "backend": "float"})
        assert str(exc.value) == message


_GOOD_SPEC = {"maps": ["secant-newton"], "xs": ["2"], "ns": [2], "epses": ["1/1000"]}


@pytest.mark.parametrize("data,message", [
    ([_GOOD_SPEC], "bench spec must be a JSON object"),
    ({**_GOOD_SPEC, "xs": ["2", "0"]}, "x must be positive, got 0"),
    ({**_GOOD_SPEC, "xs": ["-1/2"]}, "x must be positive, got -1/2"),
    ({**_GOOD_SPEC, "maps": ["secant-newton", 2]}, "maps must be names or file paths"),
], ids=["not-an-object", "zero-x", "negative-x", "non-string-map"])
def test_spec_from_dict_rejects_with_its_message(data, message):
    with pytest.raises(BenchSpecError) as exc:
        spec_from_dict(data)
    assert str(exc.value) == message


def test_emit_rejects_an_unknown_format():
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        emit([], "xml")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit on this interpreter")
def test_spec_file_numbers_at_the_default_digit_limit(tmp_path):
    # xs and epses may be JSON integers; a 5001-digit one is read exactly
    huge = "1" + "0" * 5000
    path = tmp_path / "spec.json"
    path.write_text('{"maps": ["secant-newton"], "xs": [%s, "%s"], "ns": [2],'
                    ' "epses": [%s]}' % (huge, huge, huge))
    # and a 5001-digit reps, backend or degree is an error naming its field
    bad = tmp_path / "bad.json"
    previous = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        spec = load_spec(str(path))
        for field, text in (("reps", '"ns": [2], "reps": -%s' % huge),
                            ("backend", '"ns": [2], "backend": %s' % huge),
                            ("n", '"ns": [%s]' % huge)):
            bad.write_text('{"maps": ["secant-newton"], "xs": ["2"], "epses": ["1"], %s}' % text)
            with pytest.raises(BenchSpecError, match=f"^{field} must be .*, got <int too long"):
                load_spec(str(bad))
    finally:
        sys.set_int_max_str_digits(previous)
    assert spec.xs == (10 ** 5000, 10 ** 5000)
    assert spec.epses == (10 ** 5000,)


def test_float_spec_with_an_out_of_range_map_runs_no_row(tmp_path, monkeypatch, capsys):
    # a map coefficient beyond the float range is rejected with the spec,
    # before the rows of the maps listed ahead of it run
    from root_enclose import bench, cli

    big_map = tmp_path / "big-map.json"
    big_map.write_text(json.dumps({"n": 2, "p": ["-1", "0", "0", "1" + "0" * 400, "1"],
                                   "q": ["-1", "0", "0", "2", "0"]}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"maps": ["secant-newton", "bisection", str(big_map)],
                                "xs": ["2", "3"], "ns": [2], "epses": ["1/1000"],
                                "backend": "float", "reps": 2}))
    calls = []
    for name in ("refine_float", "bisect_float", "refine_to_eps", "bisect_to_eps"):
        monkeypatch.setattr(bench, name, lambda *args, name=name: calls.append(name))
    assert cli.main(["bench", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: float backend: map ") and "fit in a float" in err
    assert calls == []


@pytest.mark.parametrize("load,error,kind", [
    (load_map, MapSpecError, "map"), (load_spec, BenchSpecError, "bench"),
])
def test_spec_readers_name_a_missing_or_invalid_file(tmp_path, load, error, kind):
    missing = tmp_path / "missing.json"
    with pytest.raises(OSError) as cause:
        open(missing, encoding="utf-8")
    with pytest.raises(error) as exc:
        load(missing)
    assert str(exc.value) == f"cannot read {kind} spec {missing}: {cause.value}"
    invalid = tmp_path / "invalid.json"
    invalid.write_text('{"n": 2,', encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as cause:
        json.loads('{"n": 2,')
    with pytest.raises(error) as exc:
        load(invalid)
    assert str(exc.value) == f"{kind} spec {invalid} is not valid JSON: {cause.value}"
    # not JSON text either: nested past the parser's recursion limit, or not
    # UTF-8
    for content in (b"[" * 100_000, b'{"n": \xff}'):
        invalid.write_bytes(content)
        with pytest.raises(error, match=f"^{kind} spec .* is not valid JSON: "):
            load(invalid)
