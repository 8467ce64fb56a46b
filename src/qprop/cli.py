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

Exit codes: 0 success, 1 model failure, 2 usage or validation error (a
request too large for the memory available, or output that cannot be
written, included).

A call imports only what it computes with: every usage error is decided
before a model module is loaded, and a command loads its own model module
(decision or propensity) alone, numpy only for a sample's price draws, and
json only to write JSON. A --grid is computed with math into array('d')
columns, and equivalence draws its gates from qprop._draws, numpy's PCG64
stream on the standard library.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import math
import os
import re
import sys
import time
from array import array
from itertools import chain
from typing import TYPE_CHECKING, Callable

from . import __version__
from ._record import record

if TYPE_CHECKING:
    from . import decision, propensity

# Largest grid (N of LO:HI:N) and largest posint: sample's draws and
# equivalence's gate pairs. Grid points and draws are output rows, written in
# chunks, so what grows is the computed columns: a 1e6-row force grid peaks at
# about 60 MB, a joint grid at 90 MB. Gate pairs hold no memory but CPU time.
MAX_ROWS = 2_000_000

# Rows (or array values) formatted and written at a time: one chunk's text is
# all the output a call holds.
CHUNK_ROWS = 8192


class UsageError(Exception):
    """Bad flags, config, or parameter values; exits with code 2."""


class ModelError(Exception):
    """The requested computation failed or did not pass; exits with code 1."""


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
    """The %-format of a column's cells: %.12g for a float column (an
    array('d'), as grids and samples are), %d for a row index (a range), and
    %s for any other column, whose cells _write has turned into _fmt text."""
    return "%.12g" if isinstance(column, array) else "%d" if isinstance(column, range) else "%s"


def _csv_rows(row: str, columns: list) -> str:
    """The CSV lines of equal-length columns, row a %-template of one line
    (see _column_format): one %-format over their interleaved values gives
    _fmt's text."""
    values = tuple(chain.from_iterable(zip(*columns)))
    if 0.0 in values:                     # -0.0 == 0.0, and _fmt prints it as 0
        values = tuple(0.0 if value == 0 else value for value in values)
    return row * len(columns[0]) % values


def _json_numbers(values, sep: str) -> str:
    """json.dumps of each float at 12 digits, joined by sep.

    One %-format over the chunk gives the tokens when each cell has a decimal
    point and no exponent: the cells of a grid all but always (a nan or an inf
    cell has no point). Such a cell is already its float's shortest repr, as
    json prints a finite float. Any other cell becomes json.dumps of the float
    it reads, plus 0.0 so that -0 prints as 0.0.
    """
    text = (("%.12g" + sep) * len(values))[:-len(sep)] % tuple(values)
    if text.count(".") == len(values) and "e" not in text:
        return text
    import json

    return sep.join(cell if "." in cell and "e" not in cell else json.dumps(float(cell) + 0.0)
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

    gamma = params.get("gamma")
    omega = params.get("omega")
    hbar = params.get("hbar")
    if gamma is not None:
        return propensity.EntropicScale.direct(gamma)
    return propensity.EntropicScale.from_oscillator(
        omega if omega is not None else 1.0,
        hbar if hbar is not None else 1.0)


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


def _grid_columns(spec: str) -> tuple[array, array]:
    """The log-price and price columns of a checked LO:HI:N grid.

    x_i = i * step + log(LO), with the last point log(HI): the points of
    np.linspace(log(LO), log(HI), N), bit for bit.
    """
    lo, hi, n = _grid_bounds(spec)
    start, stop = math.log(lo), math.log(hi)
    step = (stop - start) / (n - 1)
    x = array("d")
    for i in range(0, n, CHUNK_ROWS):
        x.fromlist([j * step + start for j in range(i, min(i + CHUNK_ROWS, n))])
    x[-1] = stop
    return x, array("d", map(math.exp, x))


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
    if tol == 0.0:
        raise ModelError(
            "tolerance 0 demands exact floating-point equality, which the circuits "
            "do not promise; the routes agree to about 1e-15, so pass a positive tolerance")
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
    x, prices = _grid_columns(params["grid"])
    results["columns"] = {"x": x, "price": prices, "density": propensity.density(curve, x),
                          "force": propensity.entropic_force(curve, x, scale)}
    return CommandResult(results, results["columns"])


def _exec_oscillator(params: dict) -> CommandResult:
    from . import propensity

    p = propensity.OscillatorParams(omega=params["omega"], sigma=params["sigma"],
                                    hbar=params["hbar"])
    results = {"sigma": p.sigma, "omega": p.omega, "hbar": p.hbar,
               "mass": p.mass, "gamma": p.gamma, "force_constant": p.force_constant}
    return CommandResult(results)


def _gaussian_side(params: dict, side: str) -> propensity.GaussianCurve:
    from . import propensity

    return propensity.GaussianCurve(math.log(params[f"{side}_mean_price"]),
                                    params[f"{side}_sigma"])


def _build_pair(params: dict) -> propensity.JointPropensity:
    """The joint of a pair that _check_pair has accepted."""
    from . import propensity

    buyer_fixed = params.get("buyer_fixed_price")
    seller_fixed = params.get("seller_fixed_price")
    if seller_fixed is not None:
        return propensity.fixed_price_joint(_gaussian_side(params, "buyer"),
                                            math.log(seller_fixed), fixed_side="seller")
    if buyer_fixed is not None:
        return propensity.fixed_price_joint(_gaussian_side(params, "seller"),
                                            math.log(buyer_fixed), fixed_side="buyer")
    return propensity.joint_propensity(_gaussian_side(params, "buyer"),
                                       _gaussian_side(params, "seller"))


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
        x, prices = _grid_columns(params["grid"])
        columns = {
            "x": x,
            "price": prices,
            "buyer_density": propensity.density(pair.buyer, x),
            "seller_density": propensity.density(pair.seller, x),
            "joint_density": array("d", (pair.scale * value for value in
                                         propensity.density(pair.joint, x))),
            "buyer_force": propensity.entropic_force(pair.buyer, x, scale),
            "seller_force": propensity.entropic_force(pair.seller, x, scale),
            "joint_force": propensity.entropic_force(pair.joint, x, scale),
        }
    results = {
        "buyer": _curve_dict(pair.buyer),
        "seller": _curve_dict(pair.seller),
        "joint": _curve_dict(pair.joint),
        "scale": pair.scale,
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
    try:
        density_ratio = math.exp(delta_e / scale.gamma)
    except OverflowError:                # refused by _run_model's finiteness scan
        density_ratio = math.inf
    results = {
        "mu": curve.mu,
        "sigma": curve.sigma,
        "gamma": scale.gamma,
        "x1": x1,
        "x2": x2,
        "price1": params["price1"],
        "price2": params["price2"],
        "delta_e": delta_e,
        "density_ratio": density_ratio,
    }
    return CommandResult(results)


def _exec_sample(params: dict) -> CommandResult:
    import numpy as np

    from . import propensity

    pair = _build_pair(params)
    rng = np.random.default_rng(params["seed"])
    draws = propensity.sample_prices(pair, params["trials"], rng)
    # The output columns are array('d'), as a grid's are; numpy fills them.
    x, prices = array("d", [0.0]) * len(draws), array("d", [0.0]) * len(draws)
    np.frombuffer(x)[:] = draws
    with np.errstate(over="ignore"):     # an infinite price is refused by _run_model
        np.exp(draws, out=np.frombuffer(prices))
    results = {
        "trials": params["trials"],
        "joint": _curve_dict(pair.joint),
        "scale": pair.scale,
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
         Param("tol", "float", default=1e-12, help="per-event tolerance"), _SEED),
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
        _exec_sample, (".propensity", "numpy")),
}


# ============================================================
# Validation, config files, dispatch
# ============================================================

def _validate_params(model: str, params: dict) -> None:
    for spec in COMMANDS[model].params:
        value = params.get(spec.name)
        if value is None:
            continue
        if spec.kind in ("float", "posfloat"):
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


def _check_pair(params: dict) -> None:
    """A buyer/seller pair: each side a mean-price and sigma curve, or at most
    one side a fixed price."""
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


def _check_combinations(model: str, params: dict) -> None:
    """Usage rules that tie parameters to each other, in the order the
    executors would meet them, so that no model module is loaded for a call
    that cannot run."""
    grid = params.get("grid")
    if model in ("joint", "sample"):
        _check_pair(params)
    if model == "joint" and grid is not None and (
            params.get("buyer_fixed_price") is not None
            or params.get("seller_fixed_price") is not None):
        raise UsageError("curve output needs two Gaussian curves, not a fixed price")
    if ((model in ("force", "work") or grid is not None)
            and params.get("gamma") is not None
            and (params.get("omega") is not None or params.get("hbar") is not None)):
        raise UsageError("pass either gamma or omega/hbar, not both")
    if model == "force" and (grid is None) == (params.get("price") is None):
        raise UsageError("pass exactly one of price or grid")
    if grid is not None:
        _grid_bounds(grid)
    if model == "equivalence" and params["tol"] < 0:
        raise UsageError("tolerance must not be negative")


def _resolve_seed(flag_seed: int | None) -> int | None:
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get("QPROP_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"QPROP_SEED must be an integer, got {env!r}")
    return None


def _line_of(text: str, key: str) -> str:
    pattern = re.compile(rf"^\s*{re.escape(key)}\s*[=:]", re.IGNORECASE)
    for i, line in enumerate(text.splitlines(), start=1):
        if pattern.match(line):
            return str(i)
    return "?"


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
            raise UsageError(f"{path}:{_line_of(text, key)}: unknown key {key!r} in [run]")
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
        where = f"{path}:{_line_of(text, key)}"
        if key not in specs:
            raise UsageError(f"{where}: unknown key {key!r} for model {model!r}")
        try:
            given[key] = specs[key].convert(raw.strip())
        except ValueError:
            number = "an integer" if specs[key].convert is int else "a number"
            raise UsageError(f"{where}: {key} must be {number}, got {raw!r}")
    for key, spec in specs.items():
        if spec.required and key not in given:
            raise UsageError(f"{path}: [{model}] is missing required key {key!r}")
    # In table order, as the flag route has them, so both echo the same JSON.
    params = {spec.name: given.get(key, spec.default) for key, spec in specs.items()}
    return model, params, output


def _json_pieces(value, write: Callable[[str], object], indent: str = "\n") -> None:
    """Write json.dumps(value, indent=2) in pieces, floats at 12 digits.

    Every float, alone or in a column, is printed by _json_numbers, and each
    float column as a list, CHUNK_ROWS values to a piece. Columns are never
    empty: grids have two points or more, samples one draw. json is imported
    here, so only a call that writes JSON loads it.
    """
    import json

    inner = indent + "  "
    if isinstance(value, dict) and value:
        opening = "{"
        for key, item in value.items():
            write(opening + inner + json.dumps(key) + ": ")
            _json_pieces(item, write, inner)
            opening = ","
        write(indent + "}")
    elif isinstance(value, float):
        write(_json_numbers([value], ","))
    elif isinstance(value, array):
        for i in range(0, len(value), CHUNK_ROWS):
            write(("," if i else "[") + inner
                  + _json_numbers(value[i:i + CHUNK_ROWS], "," + inner))
        write(indent + "]")
    else:
        write(json.dumps(value))


def _write(result: CommandResult, model: str, params: dict, output: str,
           elapsed_ms: float, out_path: str | None) -> None:
    """Format the output straight into out_path or stdout, CHUNK_ROWS rows at a
    time, so the whole text is never held. Any failure to open or write is a
    usage error; what was written before it stays written."""
    try:
        if out_path is None and sys.stdout is None:
            raise OSError("standard output is closed")
        with (contextlib.nullcontext(sys.stdout) if out_path is None
              else open(out_path, "w", encoding="utf-8", newline="")) as handle:
            if output == "json":
                echo = {key: value for key, value in params.items()
                        if value is not None and key != "seed"}
                _json_pieces({"command": model,
                              "config": {"model": model, "parameters": echo, "output": output},
                              "version": __version__, "seed": params.get("seed"),
                              "wall_time_ms": round(elapsed_ms, 3),
                              "results": result.results}, handle.write)
                handle.write("\n")
            else:
                table = result.table or dict(zip(("quantity", "value"),
                                                 zip(*_quantities(result.results))))
                handle.write(",".join(table) + "\n")
                columns = [column if isinstance(column, (array, range))
                           else list(map(_fmt, column)) for column in table.values()]
                row = ",".join(map(_column_format, columns)) + "\n"
                for i in range(0, len(columns[0]), CHUNK_ROWS):
                    handle.write(_csv_rows(row, [column[i:i + CHUNK_ROWS] for column in columns]))
            handle.flush()
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}")


def _run_model(model: str, params: dict, output: str, out_path: str | None) -> int:
    command = COMMANDS[model]
    _validate_params(model, params)
    if "seed" in params:
        if params["seed"] is None:
            raise UsageError(f"model {model!r} is stochastic; pass --seed or set QPROP_SEED")
        if params["seed"] < 0:
            raise UsageError("seed must be a nonnegative integer")
    _check_combinations(model, params)
    for name in command.modules:
        importlib.import_module(name, __package__)
    start = time.perf_counter()
    try:
        result = command.run(params)
    except ValueError as exc:
        raise UsageError(str(exc))
    except ArithmeticError as exc:        # a result beyond the range of a float
        raise UsageError(f"parameters out of floating-point range: {exc}")
    except RuntimeError as exc:           # a model's self-check failed
        raise ModelError(str(exc))
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    for name, value in _quantities(result.results):
        if not _is_finite(value):
            raise UsageError(
                f"parameters out of floating-point range: {name} does not fit in a float")
    _write(result, model, params, output, elapsed_ms, out_path)
    if result.message:
        print(f"qprop: {result.message}", file=sys.stderr)
        return 1
    return 0


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


def _dispatch(args: argparse.Namespace) -> int:
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
    if "seed" in params:
        params["seed"] = _resolve_seed(params["seed"])
    return _run_model(model, params, output, getattr(args, "out", None))


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return _dispatch(args)
    except UsageError as exc:
        print(f"qprop: error: {exc}", file=sys.stderr)
        return 2
    except ModelError as exc:
        print(f"qprop: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("qprop: error: not enough memory for this request", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
