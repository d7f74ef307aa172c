"""Seeded inputs and operations of each benchmark workload.

Everything here is derived from the workload seed with the benchmark's own
generators, so a later change to the package's map generators cannot change
what is measured.  The program only ever receives the generated map files,
x values and CLI arguments.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("check", "root-deep", "float-loop")
# passes over the operation list a measuring run makes at least, whatever
# --seconds says; a `check` pass takes about 17 s on 2 shared cores, and
# two of them halve the weight of a burst of load from elsewhere
MIN_PASSES = {"check": 2, "root-deep": 1, "float-loop": 1}

SAMPLES = 10_000          # the CLI default of `check` and `compare`
CHECK_DEGREES = (2, 3, 5)
DEEP_DEGREES = (2, 3)
DEEP_EPSES = ("1e-50", "1e-200")
DEEP_METHODS = ("secant-newton", "bisection")
FLOAT_COUNT = 3000
FLOAT_DEGREES = (2, 3, 5)
FLOAT_EPS = 1e-12

# Every x = a/b in (0, 2] \ {1} with b <= 5; there are 19.  All of them run
# on every seed (the seed orders them): the deep secant-newton cost per x
# spans 10 ms to 0.85 s, so a seeded subset would make a pass's cost depend
# on which x values were dropped.
DEEP_XS = tuple(sorted(
    {Fraction(a, b) for b in range(1, 6) for a in range(1, 2 * b + 1)} - {Fraction(1)}
))


@dataclass(frozen=True)
class MapInput:
    """One generated map-spec file of the check workloads."""

    name: str
    kind: str  # secant-newton | contracting | noncanonical | counterexample
    spec: dict


@dataclass(frozen=True)
class Op:
    """One timed operation: a CLI command or one refine_float call."""

    kind: str   # check | compare | root | bench | float
    args: tuple = ()
    map_input: MapInput | None = None


@dataclass
class Workload:
    ops: list = field(default_factory=list)
    maps: list = field(default_factory=list)
    cli_seed: int = 0


def _small_positive(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 6), rng.randint(1, 6))


def _secant_newton_spec(n: int) -> tuple[list, list]:
    p = [Fraction(-1)] + [Fraction(0)] * n + [Fraction(1)] * n
    q = [Fraction(-1)] + [Fraction(0)] * n + [Fraction(n)] + [Fraction(0)] * (n - 1)
    return p, q


def _spec(n, p, q) -> dict:
    return {"n": n, "p": [str(c) for c in p], "q": [str(c) for c in q]}


def contracting_spec(n: int, rng: random.Random) -> dict:
    """Secant-Newton with non-negative bumps on both denominator tails.

    Denominators that dominate Secant-Newton's coefficientwise keep the map
    contracting pointwise; each side gets at least one strictly positive bump.
    """
    p, q = _secant_newton_spec(n)
    for vec in (p, q):
        slots = rng.sample(range(n + 1, 2 * n + 1), rng.randint(1, n))
        for i in slots:
            vec[i] += _small_positive(rng)
    return _spec(n, p, q)


def noncanonical_spec(n: int, rng: random.Random) -> dict:
    """Secant-Newton with one head coefficient moved off its canonical value.

    The move raises a p head coefficient or lowers a q one, so the map's
    interval sticks out of Secant-Newton's at every sample: `compare` always
    takes its witness path, whatever the seed.
    """
    p, q = _secant_newton_spec(n)
    i = rng.randrange(n + 1)
    if rng.random() < 0.5:
        p[i] += _small_positive(rng)
    else:
        q[i] -= _small_positive(rng)
    return _spec(n, p, q)


COUNTEREXAMPLE_SPEC = {"n": 3, "p": ["-1", "0", "0", "0", "2", "1/2", "1"],
                       "q": ["-1", "0", "0", "0", "3", "0", "0"]}


def build(name: str, seed: int) -> Workload:
    """The workload's inputs and operation list for one seed."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"{name}:{seed}")
    w = Workload()
    if name == "check":
        w.cli_seed = rng.randrange(2 ** 32)
        for n in CHECK_DEGREES:
            w.maps.append(MapInput(f"secant-newton-{n}", "secant-newton",
                                   _spec(n, *_secant_newton_spec(n))))
            w.maps.append(MapInput(f"contracting-{n}", "contracting",
                                   contracting_spec(n, rng)))
            w.maps.append(MapInput(f"noncanonical-{n}", "noncanonical",
                                   noncanonical_spec(n, rng)))
        w.maps.append(MapInput("counterexample-3", "counterexample", COUNTEREXAMPLE_SPEC))
        for m in w.maps:
            for cmd in ("check", "compare"):
                w.ops.append(Op(cmd, map_input=m))
    elif name == "root-deep":
        for method in DEEP_METHODS:
            for n in DEEP_DEGREES:
                for eps in DEEP_EPSES:
                    for x in DEEP_XS:
                        w.ops.append(Op("root", (method, n, eps, x)))
        rng.shuffle(w.ops)
        w.ops.append(Op("bench"))
    else:
        for i in range(FLOAT_COUNT):
            w.ops.append(Op("float", (rng.uniform(0.1, 100.0),
                                      FLOAT_DEGREES[i % len(FLOAT_DEGREES)])))
    return w


def output_path(workdir: Path, pass_no: int, op_no: int) -> Path:
    """Where the worker writes one operation's output in one pass."""
    return workdir / "out" / f"p{pass_no}-o{op_no}.txt"


def pass_path(workdir: Path, pass_no: int) -> Path:
    """Where the worker writes the timings and results of one pass."""
    return workdir / "out" / f"p{pass_no}.json"


def map_path(workdir: Path, m: MapInput) -> Path:
    return workdir / f"{m.name}.json"


def write_inputs(w: Workload, workdir: Path) -> None:
    """Write the generated map-spec files the CLI commands read."""
    for m in w.maps:
        map_path(workdir, m).write_text(json.dumps(m.spec), encoding="utf-8")


def cli_argv(w: Workload, op: Op, workdir: Path, out: Path) -> list[str]:
    """The argument list of one CLI operation."""
    if op.kind in ("check", "compare"):
        return [op.kind, str(map_path(workdir, op.map_input)), "--json",
                "--seed", str(w.cli_seed), "--out", str(out)]
    if op.kind == "root":
        method, n, eps, x = op.args
        return ["root", "--x", str(x), "--n", str(n), "--eps", eps,
                "--map", method, "--json", "--out", str(out)]
    if op.kind == "bench":
        return ["bench", "--out", str(out)]
    raise ValueError(f"{op.kind} is not a CLI operation")
