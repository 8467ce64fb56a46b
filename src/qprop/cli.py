"""
Command-line surface: one subcommand per model plus a config-file runner.

Every command is deterministic given its flags and seed. Stochastic
commands (equivalence, sample) take --seed or fall back to the QPROP_SEED
environment variable; the flag wins. Prices are entered in currency units
and converted to log-price internally; angles are radians unless --degrees
is given. Output is a JSON run record (default) or plot-ready CSV, with
numbers formatted to 12 significant digits either way. The run record's
wall_time_ms field is the one part of the output that varies between
otherwise identical runs.

Exit codes: 0 success; 1 a model failure, reported after the output (an
equivalence sweep with pairs beyond its tolerance); 2 a usage or validation
error (a non-positive tolerance, a request too large for the memory
available, or output that cannot be written, included).

A call imports only what it computes with: every usage error is decided
before a model module is loaded, and a command loads its own model module
(decision or propensity) alone, and json only to write JSON; no call loads
numpy. A --grid is computed with math into array('d') columns, a chunk's
rows at a time where they are written (see _Column), and equivalence draws
its gates and sample its normal draws from qprop._draws, numpy's PCG64
stream and ziggurat on the standard library.

Output is formatted and written at most CHUNK_ROWS rows at a time. Before
anything is formatted, a grid is checked for values beyond the float range
at the few rows that hold each column's least and greatest values (see
_grid and _write). An output of more than CHUNK_ROWS rows is then cut into
an even number of equal chunks and computed and formatted on two cores:
_forked starts one child, which evaluates and formats every second chunk
and sends the texts back, while this process opens the output and writes
the chunks in order, formatting the others itself, the bytes a single
process writes. This process places the child on its CPUs but its own, and
where it may run on one CPU only, no child starts (see _forked).

main is the request path, one stage after another: parse the flags or read
the config, resolve the seed, check each value and then their combinations,
load the model module, compute, write (which first checks a grid's extreme
rows and scans the results for values beyond the float range; see _write),
and last report a model failure. Text for stdout, a record or that of
--help and --version, is written and flushed by _output alone. run is the
process entry: it leaves by os._exit, or dies by SIGINT on an interrupt.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import importlib
import io
import math
import os
import re
import sys
import time
import warnings
from array import array
from itertools import chain
from typing import TYPE_CHECKING, Callable, NoReturn

from . import __version__
from ._record import record

if TYPE_CHECKING:
    from . import decision, propensity

# Largest grid (N of LO:HI:N) and largest posint: sample's draws and
# equivalence's gate pairs. Grid points and draws are output rows, written in
# chunks, so what grows is a sample's drawn columns and a grid's log-prices,
# which each process keeps for its own chunks: a 1e6-row force or joint grid
# peaks at about 22-31 MB, a sample at 35 MB. Gate pairs hold no memory but
# CPU time.
MAX_ROWS = 2_000_000

# Rows (or array values) formatted and written at a time: one chunk's text is
# all the output a call holds.
CHUNK_ROWS = 8192


class UsageError(Exception):
    """Bad flags, config, or parameter values; exits with code 2."""


# ============================================================
# Parameter schema shared by command-line flags and config files
# ============================================================

@record
class Param:
    name: str                      # canonical underscore name
    kind: str                      # float | posfloat | int | posint | choice | grid | flag
    required: bool = False
    default: object = None
    choices: tuple = ()
    help: str = ""

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    @property
    def config_key(self) -> str:
        return self.name.replace("_", "-")

    @property
    def convert(self) -> Callable[[str], object]:
        """Text to value: the flag's argparse type and the config key's parser."""
        return {"float": float, "posfloat": float, "int": int, "posint": int}.get(self.kind, str)


_ANGLES = (Param("theta", "float", required=True, help="basis angle of question A (radians)"),
           Param("phi", "float", required=True, help="basis offset of question B (radians)"))
_DEGREES = Param("degrees", "flag", help="interpret angles as degrees")
_CURVE = (Param("mean_price", "posfloat", required=True, help="curve mean in currency units"),
          Param("sigma", "posfloat", required=True, help="curve width in log-price units"))
_SCALE = (Param("gamma", "posfloat", help="energy scale used directly"),
          Param("omega", "posfloat", help="oscillator frequency (gamma = hbar*omega/2)"),
          Param("hbar", "posfloat", help="action quantum, defaults to 1"))
_PAIR = tuple(param for side in ("buyer", "seller") for param in (
    Param(f"{side}_mean_price", "posfloat", help=f"{side} mean price in currency units"),
    Param(f"{side}_sigma", "posfloat", help=f"{side} curve width in log-price units"),
    Param(f"{side}_fixed_price", "posfloat", help=f"fixed, non-negotiable {side} price")))
_GRID = Param("grid", "grid", help="LO:HI:N price grid for curve output")
_SEED = Param("seed", "int", help="RNG seed; falls back to QPROP_SEED")


# ============================================================
# Output formatting
# ============================================================

def _fmt(value) -> str:
    """One CSV cell, floats at 12 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(int(value))
    if isinstance(value, float):
        return format(float(value) + 0.0, ".12g")
    return str(value)


def _column_format(column) -> str:
    """The %-format of a column's cells: %.12g for a float column (a
    sample's array('d') or a grid's _Column), %d for a row index (a range),
    and %s for any other column, whose cells _write has turned into _fmt
    text."""
    if isinstance(column, (array, _Column)):
        return "%.12g"
    return "%d" if isinstance(column, range) else "%s"


def _csv_rows(row: str, columns: list) -> str:
    """The CSV lines of equal-length columns, row a %-template of one line
    (see _column_format): one %-format over their interleaved values gives
    _fmt's text."""
    columns = [[value + 0.0 for value in column]   # -0.0 == 0.0, and _fmt prints it as 0
               if isinstance(column, array) and 0.0 in column else column
               for column in columns]
    return row * len(columns[0]) % tuple(chain.from_iterable(zip(*columns)))


# json's words for the %.12g cells of nan and the infinities.
_JSON_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_cell(cell: str) -> str:
    """json.dumps of the float a %.12g cell reads, plus 0.0 so that -0 prints
    as 0.0: a finite float's repr, as json prints it, or json's word."""
    return _JSON_WORDS.get(cell) or repr(float(cell) + 0.0)


def _json_numbers(values, sep: str) -> str:
    """json.dumps of each float at 12 digits, joined by sep.

    One %-format over the chunk gives the tokens. A cell with a decimal point
    and no exponent, as all but a few cells of a grid or a sample are, is
    already its float's shortest repr, as json prints a finite float. Each
    other cell goes through _json_cell, alone: a cell with a letter (an
    exponent, inf or nan) is found by str.find, and only a chunk that also
    holds an integer cell, which has no letter to find, is read cell by cell.
    """
    text = (("%.12g" + sep) * len(values))[:-len(sep)] % tuple(values)
    bare = len(values) - text.count(".")          # cells without a point
    if not bare and "e" not in text:
        return text
    spans = []
    for letter in "en":
        at = text.find(letter)
        while at >= 0:
            start, stop = text.rfind(sep[-1], 0, at) + 1, text.find(",", at)
            stop = len(text) if stop < 0 else stop
            spans.append((start, stop))
            at = text.find(letter, stop)
    if bare == sum("." not in text[start:stop] for start, stop in spans):
        pieces, last = [], 0
        for start, stop in sorted(spans):
            pieces += text[last:start], _json_cell(text[start:stop])
            last = stop
        return "".join(pieces) + text[last:]
    return sep.join(cell if "." in cell and "e" not in cell else _json_cell(cell)
                    for cell in text.split(sep))


def _is_finite(value) -> bool:
    """False for a float, or a float column, holding a nan or an infinity."""
    if not isinstance(value, array):
        return not isinstance(value, float) or math.isfinite(value)
    # A finite sum holds no nan or inf; a sum that overflows is read value
    # by value.
    return math.isfinite(sum(value)) or all(map(math.isfinite, value))


def _quantities(results: dict, prefix: str = ""):
    """(name, value) pairs of a results listing; nested dicts flatten to
    parent_key names, and a curve's kind label is left out."""
    for key, value in results.items():
        if isinstance(value, dict):
            yield from _quantities(value, f"{prefix}{key}_")
        elif key != "kind":
            yield prefix + key, value


@record
class CommandResult:
    results: dict                # numbers, strings, nested dicts and float arrays
    table: dict | None = None    # CSV columns by header; None: results as quantity,value
    message: str | None = None   # a model failure, written after the output; exit status 1


# ============================================================
# Model executors (shared by direct flags and config files)
# ============================================================

def _resolve_scale(params: dict) -> propensity.EntropicScale:
    from . import propensity

    if params.get("gamma") is not None:
        return propensity.EntropicScale(params["gamma"])
    return propensity.EntropicScale.from_oscillator(
        **{name: params[name] for name in ("omega", "hbar") if params.get(name) is not None})


def _grid_bounds(spec: str) -> tuple[float, float, int]:
    """Parse LO:HI:N in currency units, checking it without building it."""
    parts = str(spec).split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be LO:HI:N, got {spec!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise UsageError(f"grid must be LO:HI:N with numeric bounds, got {spec!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError("grid bounds must be finite")
    if lo <= 0 or hi <= lo:
        raise UsageError("grid needs 0 < LO < HI")
    if n < 2:
        raise UsageError("grid needs at least 2 points")
    if n > MAX_ROWS:
        raise UsageError(f"grid needs at most {MAX_ROWS} points")
    return lo, hi, n


@record(eq=False)
class _Column:
    """One column of a --grid, evaluated a span of rows at a time where it is
    formatted, and kept nowhere: column[start:stop] is at(x(start, stop)), its
    values at rows [start, stop), where x gives the grid's log-prices at those
    rows (see _grid). extremes are the rows that hold the least and the
    greatest value of every column of the grid; _write checks them alone."""
    rows: int
    x: Callable[[int, int], array]
    at: Callable[[array], array]
    extremes: tuple

    def __len__(self) -> int:
        return self.rows

    def __getitem__(self, rows: slice) -> array:
        return self.at(self.x(rows.start, rows.stop))


def _grid(spec: str, columns: dict, means: tuple) -> dict:
    """The _Columns x, price and those of columns of a checked LO:HI:N grid,
    by name: columns maps a name to the function that gives its values at
    log-prices, an array('d'), and means holds each curve's mean log-price.

    x_j = j * step + log(LO), with the last row log(HI): the points of
    np.linspace(log(LO), log(HI), N), bit for bit, whatever span holds them.
    A span's points are evaluated once and kept, 8 bytes a row, since JSON
    formats a grid column after column.

    x, price and every force (-k (x - mu)) rise or fall with the row, and a
    density, or the joint density times its scale, falls away from its
    curve's mean: each column's least and greatest values lie at the
    extremes, the first row, the last row and the two rows around each mean.
    Basic IEEE operations are monotone, so the computed values keep that
    order; tests/test_cli.py checks that math.exp keeps it too.
    """
    lo, hi, n = _grid_bounds(spec)
    start, stop = math.log(lo), math.log(hi)
    step = (stop - start) / (n - 1)

    @functools.cache
    def x(first: int, last: int) -> array:
        points = array("d")
        for i in range(first, last, CHUNK_ROWS):
            points.fromlist([j * step + start for j in range(i, min(i + CHUNK_ROWS, last))])
        if last == n:
            points[-1] = stop
        return points

    # The rows around each mean: the first row above it (or the last), and the one before.
    above = [bisect.bisect_right(range(n - 1), mu, key=lambda j: j * step + start)
             for mu in means]
    extremes = tuple(sorted({0, n - 1, *(max(i - 1, 0) for i in above), *above}))
    columns = {"x": lambda points: points,
               "price": lambda points: array("d", map(math.exp, points)), **columns}
    return {name: _Column(n, x, at, extremes) for name, at in columns.items()}


def _exp(value: float) -> float:
    """math.exp, inf where the result overflows: main's finiteness scan
    refuses it by name."""
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


def _marginals_dict(m: decision.EventDistribution) -> dict[str, float]:
    return {"A_yes": m.a_yes, "A_no": m.a_no, "B_yes": m.b_yes, "B_no": m.b_no}


def _exec_order_effect(params: dict) -> CommandResult:
    from . import decision

    theta, phi, order = params["theta"], params["phi"], params["order"]
    summary = decision.order_effect_summary(theta, phi)
    joint = (summary.a_then_b if order == "ab" else summary.b_then_a).as_dict()
    marginals = {"a_then_b": _marginals_dict(summary.a_then_b),
                 "b_then_a": _marginals_dict(summary.b_then_a)}
    results = {
        "theta": theta,
        "phi": phi,
        "order": order,
        "joint": joint,
        "marginals": marginals,
        "order_effect_magnitude": decision.order_effect_magnitude(theta, phi),
    }
    rows = [["joint", order, label, p] for label, p in joint.items()]
    for name, marg in zip(("ab", "ba"), marginals.values()):
        rows.extend(["marginal", name, key, value] for key, value in marg.items())
    return CommandResult(results, dict(zip(["kind", "order", "label", "value"], zip(*rows))))


def _exec_interference(params: dict) -> CommandResult:
    from . import decision

    theta, phi = params["theta"], params["phi"]
    results = {
        "theta": theta,
        "phi": phi,
        "b_yes_unmeasured": decision.unmeasured_b_yes(theta, phi),
        "b_yes_measured": decision.measured_b_yes(theta, phi),
        "interference": decision.interference_term(theta, phi),
        "order_effect_magnitude": decision.order_effect_magnitude(theta, phi),
    }
    return CommandResult(results)


def _exec_equivalence(params: dict) -> CommandResult:
    from . import decision
    from ._draws import PCG64

    trials, tol = params["trials"], params["tol"]
    sweep = decision.equivalence_sweep(PCG64(params["seed"]), trials, tol)
    max_dev, failures = sweep.max_abs_deviation, sweep.failures
    results = {
        "trials": trials,
        "tol": tol,
        "max_abs_deviation": max_dev,
        "moduli_identity_max_deviation": sweep.moduli_identity_max_deviation,
        "failures": failures,
        "all_passed": failures == 0,
    }
    return CommandResult(results, {key: [value] for key, value in results.items()},
                         message=None if failures == 0 else
                         f"{failures} of {trials} gate pairs deviated beyond {tol:g} "
                         f"(max deviation {max_dev:.3e})")


def _exec_reversal(params: dict) -> CommandResult:
    from . import decision

    outcome = decision.preference_reversal_switch(params["x1"], params["x2"])
    results = {"x1": outcome.x1, "x2": outcome.x2,
               "ratio": outcome.ratio, "switches": outcome.switches}
    return CommandResult(results)


def _exec_force(params: dict) -> CommandResult:
    from . import propensity

    curve = propensity.GaussianCurve(math.log(params["mean_price"]), params["sigma"])
    scale = _resolve_scale(params)
    results = {
        "mu": curve.mu,
        "sigma": curve.sigma,
        "gamma": scale.gamma,
        "force_constant": propensity.force_constant(curve.sigma, scale.gamma),
    }
    if params.get("grid") is None:
        x = math.log(params["price"])
        results.update(x=x, price=params["price"], density=propensity.density(curve, x),
                       force=propensity.entropic_force(curve, x, scale))
        return CommandResult(results)
    results["columns"] = _grid(params["grid"], {
        "density": lambda x: propensity.density(curve, x),
        "force": lambda x: propensity.entropic_force(curve, x, scale)}, (curve.mu,))
    return CommandResult(results, results["columns"])


def _exec_oscillator(params: dict) -> CommandResult:
    from . import propensity

    p = propensity.OscillatorParams(omega=params["omega"], sigma=params["sigma"],
                                    hbar=params["hbar"])
    results = {"sigma": p.sigma, "omega": p.omega, "hbar": p.hbar,
               "mass": p.mass, "gamma": p.gamma, "force_constant": p.force_constant}
    return CommandResult(results)


def _build_pair(params: dict) -> propensity.JointPropensity:
    """The joint of a pair that _check_combinations has accepted: a curve for
    each side that fixes no price, joined, or the price fixed on the side
    without a curve."""
    from . import propensity

    curves = {side: propensity.GaussianCurve(math.log(params[f"{side}_mean_price"]),
                                             params[f"{side}_sigma"])
              for side in ("buyer", "seller") if params.get(f"{side}_fixed_price") is None}
    if len(curves) == 2:
        return propensity.joint_propensity(curves["buyer"], curves["seller"])
    fixed = "seller" if "buyer" in curves else "buyer"
    return propensity.fixed_price_joint(*curves.values(),
                                        math.log(params[f"{fixed}_fixed_price"]), fixed_side=fixed)


def _curve_dict(curve: propensity.PropensityCurve) -> dict:
    from . import propensity

    if isinstance(curve, propensity.GaussianCurve):
        return {"kind": "gaussian", "mu": curve.mu, "sigma": curve.sigma,
                "mean_price": math.exp(curve.mu)}
    return {"kind": "point_mass", "x": curve.point, "price": math.exp(curve.point)}


def _exec_joint(params: dict) -> CommandResult:
    from . import propensity

    pair = _build_pair(params)
    columns = None
    if params.get("grid") is not None:
        scale = _resolve_scale(params)
        curves = {side: getattr(pair, side) for side in ("buyer", "seller", "joint")}
        columns = _grid(params["grid"], {
            "buyer_density": lambda x: propensity.density(pair.buyer, x),
            "seller_density": lambda x: propensity.density(pair.seller, x),
            "joint_density": lambda x: array(
                "d", [pair.scale * value for value in propensity.density(pair.joint, x)]),
            **{f"{side}_force": lambda x, curve=curve: propensity.entropic_force(curve, x, scale)
               for side, curve in curves.items()}},
            tuple(curve.mu for curve in curves.values()))
    results = {
        "buyer": _curve_dict(pair.buyer),
        "seller": _curve_dict(pair.seller),
        "joint": _curve_dict(pair.joint),
        "scale": pair.scale,
        "log_scale": pair.log_scale,
    }
    if columns is not None:
        results.update(gamma=scale.gamma, columns=columns)
    return CommandResult(results, columns)


def _exec_work(params: dict) -> CommandResult:
    from . import propensity

    curve = propensity.GaussianCurve(math.log(params["mean_price"]), params["sigma"])
    scale = _resolve_scale(params)
    x1, x2 = math.log(params["price1"]), math.log(params["price2"])
    delta_e = propensity.work(curve, x1, x2, scale)
    results = {
        "mu": curve.mu,
        "sigma": curve.sigma,
        "gamma": scale.gamma,
        "x1": x1,
        "x2": x2,
        "price1": params["price1"],
        "price2": params["price2"],
        "delta_e": delta_e,
        "density_ratio": _exp(delta_e / scale.gamma),
    }
    return CommandResult(results)


def _exec_sample(params: dict) -> CommandResult:
    from . import propensity

    pair = _build_pair(params)
    curve, trials = pair.joint, params["trials"]
    if isinstance(curve, propensity.GaussianCurve):
        from ._draws import PCG64         # a fixed price draws nothing

        x = PCG64(params["seed"]).normals(trials, curve.mu, curve.sigma)
    else:
        x = array("d", [curve.point]) * trials
    try:                                  # math.exp alone, unless a price overflows
        prices = array("d", map(math.exp, x))
    except OverflowError:
        prices = array("d", map(_exp, x))
    results = {
        "trials": trials,
        "joint": _curve_dict(curve),
        "scale": pair.scale,
        "log_scale": pair.log_scale,
        "log_prices": x,
        "prices": prices,
    }
    return CommandResult(results, {"index": range(len(x)), "x": x, "price": prices})


@record
class Command:
    help: str
    params: tuple                  # of Param, in flag order
    run: Callable[[dict], CommandResult]
    modules: tuple                 # imported before the timer starts


COMMANDS = {
    "order-effect": Command(
        "joint answer probabilities and marginals for both question orders",
        (*_ANGLES, Param("order", "choice", choices=("ab", "ba"), default="ab",
                         help="which question is asked first"), _DEGREES),
        _exec_order_effect, (".decision",)),
    "interference": Command(
        "gap between deciding B with and without settling A first",
        (*_ANGLES, _DEGREES), _exec_interference, (".decision",)),
    "equivalence": Command(
        "sequential versus entangled circuit check over random gate pairs",
        (Param("trials", "posint", required=True, help="number of random gate pairs"),
         Param("tol", "posfloat", default=1e-12, help="per-event tolerance"), _SEED),
        _exec_equivalence, (".decision", "._draws")),
    "reversal": Command(
        "cost-ratio rule for preference reversal",
        (Param("x1", "posfloat", required=True, help="cost of the less attractive option"),
         Param("x2", "posfloat", required=True, help="cost of the more attractive option")),
        _exec_reversal, (".decision",)),
    "force": Command(
        "entropic force of a propensity curve",
        (*_CURVE, Param("price", "posfloat", help="evaluation price in currency units"),
         *_SCALE, _GRID),
        _exec_force, (".propensity",)),
    "oscillator": Command(
        "oscillator parameters derived from a curve width",
        (_CURVE[1], Param("omega", "posfloat", default=1.0, help="oscillator frequency"),
         Param("hbar", "posfloat", default=1.0, help="action quantum")),
        _exec_oscillator, (".propensity",)),
    "joint": Command(
        "product of buyer and seller propensity curves",
        (*_PAIR, *_SCALE, _GRID), _exec_joint, (".propensity",)),
    "work": Command(
        "energy to move a mental price state between two prices",
        (*_CURVE, Param("price1", "posfloat", required=True, help="starting price"),
         Param("price2", "posfloat", required=True, help="ending price"), *_SCALE),
        _exec_work, (".propensity",)),
    "sample": Command(
        "seeded price draws from a joint propensity",
        (Param("trials", "posint", required=True, help="number of price draws"),
         *_PAIR, _SEED),
        _exec_sample, (".propensity",)),
}


# ============================================================
# Validation and config files
# ============================================================

def _validate_params(model: str, params: dict) -> None:
    for spec in COMMANDS[model].params:
        value = params.get(spec.name)
        if value is None:
            if spec is _SEED and "seed" in params:
                raise UsageError(f"model {model!r} is stochastic; pass --seed or set QPROP_SEED")
        elif spec is _SEED:
            if value < 0:
                raise UsageError("seed must be a nonnegative integer")
        elif spec.kind in ("float", "posfloat"):
            if not math.isfinite(value):
                raise UsageError(f"{spec.config_key} must be finite")
            if spec.kind == "posfloat" and value <= 0:
                raise UsageError(f"{spec.config_key} must be positive")
        elif spec.kind == "posint":
            if value < 1:
                raise UsageError(f"{spec.config_key} must be at least 1")
            if value > MAX_ROWS:
                raise UsageError(f"{spec.config_key} must be at most {MAX_ROWS}")
        elif spec.kind == "choice":
            if value not in spec.choices:
                raise UsageError(f"{spec.config_key} must be one of {spec.choices}")


def _check_combinations(model: str, params: dict) -> None:
    """Usage rules that tie parameters to each other, in the order the
    executors would meet them, so that no model module is loaded for a call
    that cannot run. A buyer/seller pair has each side a mean-price and sigma
    curve, or at most one side a fixed price."""
    grid = params.get("grid")
    if model in ("joint", "sample"):
        fixed = {side: params.get(f"{side}_fixed_price") for side in ("buyer", "seller")}
        if None not in fixed.values():
            raise UsageError("at most one side can fix its price")
        curves = {side: (params.get(f"{side}_mean_price"), params.get(f"{side}_sigma"))
                  for side in fixed}
        for side in fixed:
            if fixed[side] is not None and curves[side] != (None, None):
                raise UsageError(f"{side}-fixed-price excludes the {side} curve parameters")
        for side in fixed:
            if fixed[side] is None and None in curves[side]:
                raise UsageError(f"the {side} needs {side}-mean-price and {side}-sigma, "
                                 f"or a {side}-fixed-price")
        if model == "joint" and grid is not None and any(
                price is not None for price in fixed.values()):
            raise UsageError("curve output needs two Gaussian curves, not a fixed price")
    if ((model in ("force", "work") or grid is not None)
            and params.get("gamma") is not None
            and (params.get("omega") is not None or params.get("hbar") is not None)):
        raise UsageError("pass either gamma or omega/hbar, not both")
    if model == "force" and (grid is None) == (params.get("price") is None):
        raise UsageError("pass exactly one of price or grid")
    if grid is not None:
        _grid_bounds(grid)


def _where(path: str, text: str, key: str) -> str:
    """path:N of the config line that sets key, worked out for an error only."""
    pattern = re.compile(rf"^\s*{re.escape(key)}\s*[=:]", re.IGNORECASE)
    for i, line in enumerate(text.splitlines(), start=1):
        if pattern.match(line):
            return f"{path}:{i}"
    return f"{path}:?"


def load_config(path: str) -> tuple[str, dict, str]:
    """Parse a key = value config file into (model, params, output).

    The [run] section names the model and output format; the model's own
    section holds its parameters under the flag names (angles in radians,
    prices in currency units). Unknown sections or keys are fatal.
    """
    import configparser

    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        parser.read_string(text, source=path)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config: {exc}")
    except configparser.Error as exc:
        raise UsageError(f"config parse error: {exc}")
    if not parser.has_section("run"):
        raise UsageError(f"{path}: missing [run] section")
    run = parser["run"]
    for key in run:
        if key not in ("model", "output"):
            raise UsageError(f"{_where(path, text, key)}: unknown key {key!r} in [run]")
    model = run.get("model")
    if not model:
        raise UsageError(f"{path}: [run] must name a model")
    if model not in COMMANDS:
        raise UsageError(f"{path}: unknown model {model!r}; choose from "
                         f"{', '.join(sorted(COMMANDS))}")
    output = run.get("output", "json")
    if output not in ("json", "csv"):
        raise UsageError(f"{path}: output must be json or csv, got {output!r}")
    extras = set(parser.sections()) - {"run", model}
    if extras:
        raise UsageError(f"{path}: unexpected section(s): {', '.join(sorted(extras))}")
    if not parser.has_section(model):
        raise UsageError(f"{path}: missing [{model}] section")
    specs = {s.config_key: s for s in COMMANDS[model].params if s.kind != "flag"}
    given: dict = {}
    for key in parser[model]:
        raw = parser[model][key]
        if key not in specs:
            raise UsageError(f"{_where(path, text, key)}: unknown key {key!r} "
                             f"for model {model!r}")
        try:
            given[key] = specs[key].convert(raw.strip())
        except ValueError:
            number = "an integer" if specs[key].convert is int else "a number"
            raise UsageError(f"{_where(path, text, key)}: {key} must be {number}, "
                             f"got {raw!r}")
    for key, spec in specs.items():
        if spec.required and key not in given:
            raise UsageError(f"{path}: [{model}] is missing required key {key!r}")
    # In table order, as the flag route has them, so both echo the same JSON.
    params = {spec.name: given.get(key, spec.default) for key, spec in specs.items()}
    return model, params, output


def _spans(rows: int) -> list[tuple[int, int]]:
    """(start, stop) of each chunk of rows: one chunk up to CHUNK_ROWS rows,
    and above it an even number of chunks of at most CHUNK_ROWS rows, equal to
    a row, so that _emit's two processes format as many rows each."""
    count = -(-rows // CHUNK_ROWS)
    count += count % 2 if count > 1 else 0
    return [(rows * i // count, rows * (i + 1) // count) for i in range(count)]


def _json_pieces(value, indent: str = "\n"):
    """The pieces of json.dumps(value, indent=2), floats at 12 digits, for _emit.

    Every float, alone or in a column, is printed by _json_numbers, and each
    float column as a list, in the chunks of _spans. Columns are never
    empty: grids have two points or more, samples one draw. json is imported
    here, so only a call that writes JSON loads it.
    """
    import json

    inner = indent + "  "
    if isinstance(value, dict) and value:
        opening = "{"
        for key, item in value.items():
            yield opening + inner + json.dumps(key) + ": "
            yield from _json_pieces(item, inner)
            opening = ","
        yield indent + "}"
    elif isinstance(value, float):
        yield _json_numbers([value], ",")
    elif isinstance(value, (array, _Column)):
        for start, stop in _spans(len(value)):
            yield lambda start=start, stop=stop: (
                ("," if start else "[") + inner + _json_numbers(value[start:stop], "," + inner))
        yield indent + "]"
    else:
        yield json.dumps(value)


@contextlib.contextmanager
def _forked(calls):
    """Run calls, an iterable of callables, in order in a forked child, and
    yield an iterator over the texts they return, each sent down a pipe after
    its length in 8 bytes and flushed at once; it ends at a short read. calls
    is iterated in the child only. Where calls is an empty tuple or list, the
    platform has no fork, the calling thread may run on one CPU only, or the
    pipe or the fork fails, nothing starts and the iterator is empty: one CPU
    cannot run two processes at once.

    Right after the fork, this process binds the child to every CPU of the
    calling thread's set but the one this thread last ran on (field 39 of
    /proc/thread-self/stat); this thread keeps its own set. Left alone, the
    kernel of a 2-vCPU x86-64 VM kept a new child on its parent's CPU for
    its first few hundred ms, so the two shared one core; and a fixed half
    of the set may hold the parent's own CPU: there, a call spawned by
    another process ran on the upper half's CPU in 12 of 12 tries. The six
    large calls of perfbench's grid_render took 770 ms with the child placed
    off this thread's CPU, against 960 ms with it bound to the upper half
    and 898 ms in one process (summed, mean of 24 alternating os.wait4
    rounds). Where the platform has no sched_setaffinity (macOS) or no
    /proc/thread-self, the child starts unplaced.

    The child touches no output handle and leaves by os._exit on every path,
    so no buffer is flushed and no atexit hook runs twice; a write to a
    parent that is gone fails with EPIPE and ends it. However the with block
    ends, the child is killed if it still runs, and reaped. SIGINT is blocked
    across the fork, and in the child for good: a Ctrl-C to the process group
    as the output starts interrupts this process alone, not the child in its
    fork hooks, before its own try.
    """
    fds, pid, cpus = (), -1, []
    if calls and hasattr(os, "sched_setaffinity"):
        with contextlib.suppress(OSError):
            cpus = sorted(os.sched_getaffinity(0))
    if calls and hasattr(os, "fork") and len(cpus) != 1:
        import signal

        mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGINT])
        try:
            fds = read_fd, write_fd = os.pipe()
            with warnings.catch_warnings():    # Python 3.12+ warns of a caller's threads
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            for fd in fds:
                os.close(fd)
    if pid < 0:
        yield iter(())
        return
    if pid == 0:
        try:
            import gc

            gc.disable()                   # no finalizer of the parent's garbage runs here
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                for call in calls:
                    data = call().encode()
                    pipe.write(len(data).to_bytes(8, "big") + data)
                    pipe.flush()
        finally:
            os._exit(0)

    def texts(stream):
        while len(head := stream.read(8)) == 8:
            size = int.from_bytes(head, "big")
            if len(data := stream.read(size)) < size:
                return
            yield data.decode()

    try:
        if cpus:                           # a hint: the bytes are the same wherever it runs
            with contextlib.suppress(OSError), open("/proc/thread-self/stat", "rb") as stat:
                here = int(stat.read().rsplit(b")", 1)[1].split()[36])   # field 39: its CPU
                os.sched_setaffinity(pid, [cpu for cpu in cpus if cpu != here])
        os.close(write_fd)
        with open(read_fd, "rb") as stream:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)   # a SIGINT of the fork comes here
            yield texts(stream)
    finally:
        os.kill(pid, 9)                    # SIGKILL: an exited child is a zombie until reaped
        os.waitpid(pid, 0)


def _emit(pieces: list, write: Callable[[str], object], texts) -> None:
    """Write pieces in order: a str as it is, a chunk (a callable) as the text
    it returns. texts, an iterator, holds the text of every second chunk, from
    the second on, as the child of _forked formats them; once they end, at
    once where no child runs, early or not, this process formats the rest, so
    the bytes are the same whatever happens to the child.
    """
    theirs = False
    for piece in pieces:
        if not isinstance(piece, str):
            text = next(texts, None) if theirs else None
            piece = piece() if text is None else text
            theirs = not theirs
        write(piece)


def _output(pieces: list, out_path: str | None, texts) -> None:
    """Write pieces and texts (see _emit) into out_path or stdout and flush
    them. Any failure to open or write is a usage error; what was written
    before it stays written."""
    try:
        if out_path is None and sys.stdout is None:
            raise OSError("standard output is closed")
        with (contextlib.nullcontext(sys.stdout) if out_path is None
              else open(out_path, "w", encoding="utf-8", newline="")) as handle:
            _emit(pieces, handle.write, texts)
            handle.flush()
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}")


def _computed(function: Callable, *args):
    """function(*args), a ValueError or an ArithmeticError (a result beyond
    the range of a float) raised as a usage error."""
    try:
        return function(*args)
    except ValueError as exc:
        raise UsageError(str(exc))
    except ArithmeticError as exc:
        raise UsageError(f"parameters out of floating-point range: {exc}")


def _fits(grid: list) -> bool:
    """Whether the _Columns of a grid raise no error and hold no nan or
    infinity at their extreme rows (see _grid), each a span of one row."""
    try:
        return all(_is_finite(column[j:j + 1]) for column in grid for j in column.extremes)
    except (ValueError, ArithmeticError):
        return False


def _write(result: CommandResult, model: str, params: dict, output: str, start: float,
           out_path: str | None) -> None:
    """Check the results, then format them straight into out_path or stdout,
    at most CHUNK_ROWS rows at a time, so the whole text is never held.

    A grid is checked first, at its extreme rows alone (see _fits). Where
    that check fails, the whole grid is evaluated by the serial route, column
    after column in results order, which raises the error a single process
    meets first or leaves the value for the scan of every result to name.
    Only then is the output opened. A grid's rows are evaluated where they
    are formatted (see _Column): above CHUNK_ROWS rows, the child of _forked
    evaluates and formats every second chunk, and this process the others.
    wall_time_ms times the executor, from start, the check and the scan.
    Each process keeps the log-prices of its own chunks of a grid and holds
    about two chunks of text.
    """
    results = result.results
    quantities = list(_quantities(results))
    table = result.table or dict(zip(("quantity", "value"), zip(*quantities)))
    rows = len(next(iter(table.values())))
    if not _fits([value for _, value in quantities if isinstance(value, _Column)]):
        quantities = _computed(lambda: [
            (name, value[0:value.rows] if isinstance(value, _Column) else value)
            for name, value in quantities])
    for name, value in quantities:
        if not _is_finite(value):
            raise UsageError(
                f"parameters out of floating-point range: {name} does not fit in a float")
    if output == "json":
        echo = {key: value for key, value in params.items()
                if value is not None and key != "seed"}
        pieces = [*_json_pieces({"command": model,
                                 "config": {"model": model, "parameters": echo, "output": output},
                                 "version": __version__, "seed": params.get("seed"),
                                 "wall_time_ms": round((time.perf_counter() - start) * 1000.0, 3),
                                 "results": results}), "\n"]
    else:                                  # a table shows no wall_time_ms
        columns = [column if isinstance(column, (array, range, _Column))
                   else list(map(_fmt, column)) for column in table.values()]
        row = ",".join(map(_column_format, columns)) + "\n"
        pieces = [",".join(table) + "\n", *(
            lambda start=start, stop=stop: _csv_rows(
                row, [column[start:stop] for column in columns])
            for start, stop in _spans(rows))]
    chunks = [piece for piece in pieces if not isinstance(piece, str)]
    with _forked(chunks[1::2] if rows > CHUNK_ROWS else ()) as texts:
        _output(pieces, out_path, texts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qprop",
        description="Decision circuits and propensity dynamics for economic choices.")
    parser.add_argument("--version", action="version", version=f"qprop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    # A value such as -1e3 is a number, not an option: argparse's own rule
    # takes -2 and -2.5 for numbers, but not an exponent form.
    negative_number = re.compile(r"^-\.?\d")
    for model, command in COMMANDS.items():
        p = sub.add_parser(model, help=command.help)
        p._negative_number_matcher = negative_number
        for spec in command.params:
            if spec.kind == "flag":
                p.add_argument(spec.flag, action="store_true", help=spec.help)
            else:
                p.add_argument(spec.flag, type=spec.convert, required=spec.required,
                               default=spec.default, choices=spec.choices or None,
                               help=spec.help)
        p.add_argument("--output", choices=("json", "csv"), default="json",
                       help="output format")
    runner = sub.add_parser("run", help="run a model described by a config file")
    runner.add_argument("config", help="path to the key = value config file")
    runner.add_argument("--out", default=None, help="write output to this path")
    return parser


def main(argv: list[str] | None = None) -> int:
    shown = io.StringIO()                 # the text of --help or --version
    try:
        try:
            with contextlib.redirect_stdout(shown):
                args = build_parser().parse_args(argv)
        except SystemExit as exc:         # argparse exits 0 (help, version) or 2
            if shown.getvalue():
                _output([shown.getvalue()], None, iter(()))
            return exc.code
        for name, value in vars(args).items():   # argparse stores --flag=-- as []
            if isinstance(value, list):
                raise UsageError(f"argument --{name.replace('_', '-')}: expected one argument")
        if args.command == "run":
            model, params, output = load_config(args.config)
        else:
            model, output = args.command, args.output
            params = {spec.name: getattr(args, spec.name) for spec in COMMANDS[model].params}
            if params.pop("degrees", False):
                for key in ("theta", "phi"):
                    params[key] = math.radians(params[key])
        if "seed" in params and params["seed"] is None and "QPROP_SEED" in os.environ:
            env_seed = os.environ["QPROP_SEED"]        # read only where --seed is not given
            try:
                params["seed"] = int(env_seed)
            except ValueError:
                raise UsageError(f"QPROP_SEED must be an integer, got {env_seed!r}")
        _validate_params(model, params)
        _check_combinations(model, params)
        command = COMMANDS[model]
        for name in command.modules:
            importlib.import_module(name, __package__)
        start = time.perf_counter()
        result = _computed(command.run, params)
        _write(result, model, params, output, start, getattr(args, "out", None))
        if result.message:
            print(f"qprop: {result.message}", file=sys.stderr)
            return 1
        return 0
    except UsageError as exc:
        print(f"qprop: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("qprop: error: not enough memory for this request", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """The entry of the qprop script, python -m qprop and python -m qprop.cli:
    run main, flush stdout and stderr, and leave by os._exit with main's code.

    os._exit skips the interpreter's teardown of every loaded module and its
    garbage collection at exit, so atexit hooks do not run: a tool that acts
    at interpreter exit should call main in process. main has flushed stdout
    through _output, or reported that it could not, so nothing is left to
    report here. An interrupt (Ctrl-C) prints the one line "qprop:
    interrupted" and the process dies by SIGINT, so that a calling shell loop
    stops too; main raises it to an in-process caller.
    """
    try:
        code = main()
    except KeyboardInterrupt:
        code = None
        print("qprop: interrupted", file=sys.stderr)
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(AttributeError, OSError):   # closed, or nowhere to tell
            stream.flush()
    if code is None:
        import signal

        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.raise_signal(signal.SIGINT)
    os._exit(130 if code is None else code)   # 128 + SIGINT, where the signal is blocked


if __name__ == "__main__":
    run()
