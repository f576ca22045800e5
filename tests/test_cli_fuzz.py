"""Fuzz the exit-code contract: malformed input exits 2 with one stderr line.

Every example runs `cli.main` in-process on a config or report that is wrong
in exactly one place.  A malformed one must fail validation before any
experiment runs; a well-typed but numerically extreme one fails a range check
or stops where the computation leaves floating-point reach, and still exits 2.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axiscone.cli import main
from axiscone.harness import ExperimentConfig, run
from axiscone.positivity import VerdictStatus

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)

NOT_A_NUMBER = st.one_of(st.none(), st.booleans(), st.text(max_size=5),
                         st.lists(st.integers(), max_size=2),
                         st.dictionaries(st.text(max_size=3), st.integers(), max_size=1))
NOT_POSITIVE = st.one_of(st.integers(max_value=0),
                         st.floats(max_value=0.0, allow_nan=False, allow_infinity=False))
NUMBERS = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
# JSON integers beyond float range: no float conversion may see them
BEYOND_FLOAT = st.integers(min_value=2**1024, max_value=10**400).flatmap(
    lambda n: st.sampled_from([n, -n]))


def _uneven(values):
    return values[:-1] + [values[0] + 1.0]


def _profiles():
    """Wrong lengths (the default grid has 2N+1 = 17 points), cells or presets."""
    wrong_length = st.lists(NUMBERS, max_size=30).filter(lambda v: len(v) != 17)
    bad_cell = st.lists(NUMBERS, min_size=16, max_size=16).flatmap(
        lambda v: NOT_A_NUMBER.filter(lambda x: not isinstance(x, list)).map(
            lambda x: v + [x]))
    uneven = st.lists(NUMBERS, min_size=17, max_size=17).map(_uneven)
    unknown_preset = st.text(max_size=8).filter(
        lambda name: name not in ("harmonic", "gaussian_well", "gaussian", "zero"))
    return st.one_of(wrong_length, bad_cell, uneven, unknown_preset,
                     st.none(), st.booleans(), NUMBERS)


def _grids():
    return st.one_of(
        st.just([]),
        st.lists(NOT_A_NUMBER, min_size=1, max_size=3),
        st.fixed_dictionaries({"start": NUMBERS, "stop": NUMBERS}),
        st.fixed_dictionaries({"start": NUMBERS, "stop": NUMBERS,
                               "num": st.integers(max_value=-1)}),
        st.text(max_size=5), st.none(), NUMBERS,
    )


BAD_SCHRODINGER = st.one_of(
    st.tuples(st.just("N"), st.one_of(NOT_POSITIVE, NOT_A_NUMBER,
                                      st.floats(min_value=0.5, max_value=9.5))),
    st.tuples(st.sampled_from(["h", "s0", "demo_s"]), st.one_of(NOT_POSITIVE, NOT_A_NUMBER)),
    st.tuples(st.just("demo_e"), NOT_A_NUMBER),
    st.tuples(st.sampled_from(["potential", "vector_potential"]), _profiles()),
    st.tuples(st.sampled_from(["e_grid", "s_samples"]), _grids()),
    st.tuples(st.just("s_samples"), st.lists(st.one_of(NOT_POSITIVE, st.floats(
        min_value=1.5, max_value=1e6)), min_size=1, max_size=3)),
    st.tuples(st.sampled_from(["model_path", "n", "V"]), st.text(max_size=5)),
    st.tuples(st.sampled_from(["h", "s0", "demo_e", "demo_s"]), BEYOND_FLOAT),
    st.tuples(st.sampled_from(["e_grid", "s_samples", "potential"]),
              BEYOND_FLOAT.map(lambda n: [0.0, n])),
)


def _magnitudes(lo, hi):
    """Positive floats from 10**lo to 10**hi, spread evenly over the exponent."""
    return st.floats(min_value=lo, max_value=hi).map(lambda p: math.pow(10.0, p))


def _signed(values):
    return st.tuples(values, st.booleans()).map(lambda vs: -vs[0] if vs[1] else vs[0])


# Well-typed values the default config cannot compute with.  A tiny or huge h
# or a long s0 makes alpha = 1 - exp(-s0 delta) round to 1 (or leaves the
# h range); a large |demo_e| or demo_s damps the orthant demo's bump below
# the witness tolerance, and a tiny one moves it too little to see.
EXTREME_SCHRODINGER = st.one_of(
    st.tuples(st.just("h"), st.one_of(_magnitudes(-300, -3), _magnitudes(3, 300))),
    st.tuples(st.just("s0"), _magnitudes(3, 300)),
    st.tuples(st.just("demo_e"), _signed(st.one_of(_magnitudes(10, 300),
                                                   _magnitudes(-300, -12)))),
    st.tuples(st.just("demo_s"), st.one_of(_magnitudes(3, 300), _magnitudes(-300, -12))),
)
# A gap of 100 or more, or s0 of 100 or more, saturates alpha the same way;
# t or s entries above SCALE_LIMIT are rejected before any norm is taken.
EXTREME_PERTURB = st.one_of(
    _magnitudes(2, 308).map(lambda x: {"t": [[0, 0], [0, x]], "s": [[0, 1], [1, 0]]}),
    _signed(_magnitudes(76, 308)).map(lambda x: {"t": [[0, 0], [0, 1]],
                                                 "s": [[0, x], [x, 0]]}),
    _magnitudes(2, 300).map(lambda s0: {"s0": s0}),
)
# Integers beyond float range in every numeric perturb field: (field, params).
BEYOND_FLOAT_PERTURB = st.one_of(
    BEYOND_FLOAT.map(lambda n: ("t", {"t": [[0, 0], [0, n]], "s": [[0, 1], [1, 0]]})),
    BEYOND_FLOAT.map(lambda n: ("s", {"t": [[0, 0], [0, 1]], "s": [[0, n], [n, 0]]})),
    st.tuples(st.sampled_from(["s0", "kappa0", "a", "b"]), BEYOND_FLOAT).map(
        lambda kv: (kv[0], {kv[0]: kv[1]})),
    st.tuples(st.sampled_from(["kappa_grid", "s_samples", "kappas"]), BEYOND_FLOAT).map(
        lambda kv: (kv[0], {kv[0]: [0.0, kv[1]]})),
)


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_bad_input(code, err):
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@FUZZ
@given(BAD_SCHRODINGER)
def test_malformed_schrodinger_params_exit_2(key_value):
    key, value = key_value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "bad.json"
        cfg.write_text(json.dumps({"kind": "schrodinger", "seed": 0,
                                   "params": {key: value}}))
        code, out, err = _main(["schrodinger", "--config", str(cfg),
                                "--out", str(Path(tmp) / "r.csv")])
    _assert_bad_input(code, err)
    assert out == ""


@pytest.mark.filterwarnings("error")   # a numpy warning would be a second stderr line
@FUZZ
@given(st.one_of(EXTREME_SCHRODINGER.map(lambda kv: ("schrodinger", {kv[0]: kv[1]})),
                 EXTREME_PERTURB.map(lambda params: ("perturb_sweep", params))))
def test_extreme_numeric_params_exit_2(kind_params):
    kind, params = kind_params
    command = "perturb" if kind == "perturb_sweep" else "schrodinger"
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "extreme.json"
        cfg.write_text(json.dumps({"kind": kind, "seed": 0, "params": params}))
        code, out, err = _main([command, "--config", str(cfg),
                                "--out", str(Path(tmp) / "r.csv")])
        assert not (Path(tmp) / "r.csv").exists()
    _assert_bad_input(code, err)
    assert err.startswith("config error")
    assert out == ""


@FUZZ
@given(BEYOND_FLOAT_PERTURB)
def test_integers_beyond_float_range_exit_2(field_params):
    field, params = field_params
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "huge.json"
        cfg.write_text(json.dumps({"kind": "perturb_sweep", "seed": 0, "params": params}))
        code, out, err = _main(["perturb", "--config", str(cfg),
                                "--out", str(Path(tmp) / "r.csv")])
    _assert_bad_input(code, err)
    assert err.startswith(f"config error: config field '{field}'")
    assert out == ""


PF_TEXT = run(ExperimentConfig(kind="pf_verify", seed=31,
                               params={"dims": [3], "instances_per_flavor": 2})
              ).render(timestamp=False)
PF_LINES = PF_TEXT.splitlines()
CSV_START = next(i for i, line in enumerate(PF_LINES) if not line.startswith("#"))
CSV_STOP = next(i for i in range(CSV_START, len(PF_LINES)) if PF_LINES[i].startswith("#"))
CERTIFIED_FALSE = [i for i in range(CSV_START + 1, CSV_STOP)
                   if PF_LINES[i].split(",")[3] == VerdictStatus.CERTIFIED_FALSE.value]
# no digits: such a cell parses as no integer, and as a float at most to inf or nan
NON_NUMERIC = st.text(alphabet="abefinxy.+-_ ", max_size=6)


def _drop_column(index):
    def mutate(lines):
        for i in range(CSV_START, CSV_STOP):
            cells = lines[i].split(",")
            lines[i] = ",".join(cells[:index] + cells[index + 1:])
    return mutate


def _truncate_row(row, keep):
    def mutate(lines):
        lines[row] = ",".join(lines[row].split(",")[:keep])
    return mutate


def _replace_cell(row, column, text):
    def mutate(lines):
        cells = lines[row].split(",")
        cells[column] = text
        lines[row] = ",".join(cells)
    return mutate


MUTATIONS = st.one_of(
    st.integers(0, 7).map(_drop_column),
    st.builds(_truncate_row, st.integers(CSV_START + 1, CSV_STOP - 1), st.integers(1, 7)),
    st.builds(_replace_cell, st.sampled_from(CERTIFIED_FALSE),
              st.sampled_from([1, 5, 6]), NON_NUMERIC),
)


@FUZZ
@given(MUTATIONS)
def test_mutated_pf_verify_report_replay_exits_2(mutate):
    lines = list(PF_LINES)
    mutate(lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = _main(["replay", str(path)])
    _assert_bad_input(code, err)
    assert err.startswith("config error")
    assert out == ""


def test_unmutated_report_replays():
    assert CERTIFIED_FALSE
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.csv"
        path.write_text(PF_TEXT)
        code, out, _ = _main(["replay", str(path)])
    assert code == 0
    assert out.count("reproduced") == len(CERTIFIED_FALSE)
