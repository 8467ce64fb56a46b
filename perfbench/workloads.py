"""Seeded inputs of the three benchmark workloads.

``build(name, seed, size)`` returns the operations of one pass and the
config files they read. The same (name, seed, size) always gives the same
argv lists and file texts; the program sees nothing else. Every operation
carries the canonical parameter values its output is checked against, its
expected exit code, the work units it contributes to ``items_per_s`` and
the exact counts (gate pairs, circuits, sampled trials, RNG draws) its
inputs imply.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("grid_render", "circuit_sweep", "small_calls")

MODELS = ("order-effect", "interference", "equivalence", "reversal", "force",
          "oscillator", "joint", "work", "sample")

# Input sizes per pass. "full" is what `python3 perfbench/run.py` measures: each operation
# takes well under a second, so a run repeats every operation several times and its mean
# time covers the machine's fast and slow spells. "tiny" keeps the self-test fast while walking the same code paths.
SIZES = {
    "full": {"force": 50_000, "joint": 25_000, "draws": 50_000,
             "pairs": 1000, "side": 24, "trials": 12_500, "calls": 45},
    "tiny": {"force": 2000, "joint": 1000, "draws": 2000,
             "pairs": 40, "side": 6, "trials": 500, "calls": 27},
}

RNG_DRAWS_PER_UNITARY = 4      # u, then the three phases a, b, d
CIRCUITS_PER_ORDER_EFFECT = 3  # the asked order, then both orders for the summary


@dataclass
class Op:
    """One operation: a qprop invocation ("cli") or a library batch ("batch")."""

    kind: str
    argv: list
    model: str
    params: dict
    output: str = "json"
    seed: int | None = None
    expect_exit: int = 0
    out_file: str | None = None
    items: int = 1
    counts: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list
    files: dict

    @property
    def items(self) -> int:
        return sum(op.items for op in self.ops)

    def input_counts(self) -> dict:
        total = {"gate_pairs": 0, "circuits": 0, "sampled_trials": 0, "rng_draws": 0}
        for op in self.ops:
            for key, value in op.counts.items():
                total[key] += value
        return total


def build(name: str, seed: int, size: str = "full") -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    return {"grid_render": _grid_render, "circuit_sweep": _circuit_sweep,
            "small_calls": _small_calls}[name](rng, SIZES[size])


# ============================================================
# argv and config text
# ============================================================

def _text(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _flags(values: dict) -> list:
    argv = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            # "=" keeps negative numbers from reading as flags
            argv.append(f"{flag}={_text(value)}")
    return argv


def _ini(model: str, values: dict, output: str, seed: int | None) -> str:
    lines = ["[run]", f"model = {model}", f"output = {output}", "", f"[{model}]"]
    lines += [f"{key.replace('_', '-')} = {_text(value)}" for key, value in values.items()]
    if seed is not None:
        lines.append(f"seed = {seed}")
    return "\n".join(lines) + "\n"


def _cli(model, values, output, seed=None, **kw) -> Op:
    argv = [model, *_flags(values), f"--output={output}"]
    if seed is not None:
        argv.append(f"--seed={seed}")
    return Op("cli", argv, model, dict(values), output, seed, **kw)


def _seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


def _pair(rng: random.Random) -> dict:
    return {"buyer_mean_price": rng.uniform(0.85, 1.0), "buyer_sigma": rng.uniform(0.15, 0.4),
            "seller_mean_price": rng.uniform(1.0, 1.2), "seller_sigma": rng.uniform(0.15, 0.4)}


# ============================================================
# grid_render: bulk JSON/CSV rendering of vectorised curves
# ============================================================

def _grid_render(rng: random.Random, n: dict) -> Workload:
    ops, files = [], {}
    force = {"mean_price": rng.uniform(0.8, 1.25), "sigma": rng.uniform(0.25, 0.5),
             "gamma": rng.uniform(0.5, 2.0), "grid": f"0.5:2.0:{n['force']}"}
    for output in ("json", "csv"):
        ops.append(_cli("force", force, output, items=n["force"]))
    joint = {**_pair(rng), "omega": rng.uniform(0.5, 2.0), "grid": f"0.8:1.25:{n['joint']}"}
    ops.append(_cli("joint", joint, "json", items=n["joint"]))
    files["joint.ini"] = _ini("joint", joint, "csv", None)
    ops.append(Op("cli", ["run", "joint.ini", "--out", "joint.csv"], "joint", dict(joint),
                  "csv", out_file="joint.csv", items=n["joint"]))
    sample = {"trials": n["draws"], **_pair(rng)}
    seed = _seed(rng)
    for output in ("json", "csv"):
        ops.append(_cli("sample", sample, output, seed, items=n["draws"],
                        counts={"rng_draws": n["draws"]}))
    return Workload(ops, files)


# ============================================================
# circuit_sweep: many small circuits, tiny output
# ============================================================

def _circuit_sweep(rng: random.Random, n: dict) -> Workload:
    pairs, side, trials = n["pairs"], n["side"], n["trials"]
    ops = [_cli("equivalence", {"trials": pairs}, "json", _seed(rng), items=pairs,
                counts={"gate_pairs": pairs, "rng_draws": 2 * RNG_DRAWS_PER_UNITARY * pairs})]
    step = math.pi / side
    theta0, phi0 = rng.uniform(0.0, step), rng.uniform(0.0, step)
    batch = {"thetas": [theta0 + i * step for i in range(side)],
             "phis": [phi0 + i * step for i in range(side)],
             "unitary_seed": _seed(rng), "sample_seed": _seed(rng), "trials": trials}
    circuits = 2 * side * side
    ops.append(Op("batch", ["circuits.json"], "circuits", batch, items=circuits + trials,
                  counts={"circuits": circuits, "sampled_trials": trials,
                          "rng_draws": 2 * RNG_DRAWS_PER_UNITARY + 2 * trials}))
    return Workload(ops, {"circuits.json": json.dumps(batch)})


# ============================================================
# small_calls: start-up, parse and validation bound
# ============================================================

def _scale(rng: random.Random) -> dict:
    return rng.choice(({}, {"gamma": rng.uniform(0.5, 2.0)}, {"omega": rng.uniform(0.5, 3.0)},
                       {"omega": rng.uniform(0.5, 3.0), "hbar": rng.uniform(0.5, 2.0)}))


def _valid(model: str, rng: random.Random, via_run: bool):
    """(values as passed, values as the model sees them, seed) for one valid call."""
    seed = _seed(rng) if model in ("equivalence", "sample") else None
    if model in ("order-effect", "interference"):
        values = {"theta": rng.uniform(-math.pi, math.pi), "phi": rng.uniform(-math.pi, math.pi)}
        if model == "order-effect":
            values["order"] = rng.choice(("ab", "ba"))
        if not via_run and rng.random() < 0.3:
            passed = {key: math.degrees(v) if key in ("theta", "phi") else v
                      for key, v in values.items()}
            model_view = {key: math.radians(v) if key in ("theta", "phi") else v
                          for key, v in passed.items()}
            return {**passed, "degrees": True}, model_view, seed
        return values, values, seed
    if model == "equivalence":
        values = {"trials": rng.randint(5, 40)}
        if rng.random() < 0.3:
            values["tol"] = 1e-10
        return values, values, seed
    if model == "reversal":
        x1 = rng.uniform(1.0, 10.0)
        values = {"x1": x1, "x2": x1 * rng.uniform(1.0, 5.0)}
        return values, values, seed
    if model == "oscillator":
        values = {"sigma": rng.uniform(0.1, 1.0)}
        if rng.random() < 0.5:
            values.update(omega=rng.uniform(0.5, 3.0), hbar=rng.uniform(0.5, 2.0))
        return values, values, seed
    if model in ("force", "work"):
        mean, sigma = rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.5)
        values = {"mean_price": mean, "sigma": sigma}
        if model == "work":
            values["price1"] = mean * math.exp(rng.uniform(-2.0, 2.0) * sigma)
            values["price2"] = mean * math.exp(rng.uniform(-2.0, 2.0) * sigma)
        elif rng.random() < 0.5:
            values["price"] = mean * math.exp(rng.uniform(-2.0, 2.0) * sigma)
        else:
            lo, hi = mean * math.exp(-2.0 * sigma), mean * math.exp(2.0 * sigma)
            values["grid"] = f"{lo!r}:{hi!r}:{rng.randint(3, 30)}"
        values.update(_scale(rng))
        return values, values, seed
    if model == "joint":
        values = _pair(rng)
        roll = rng.random()
        if roll < 0.25:
            del values["seller_mean_price"], values["seller_sigma"]
            values["seller_fixed_price"] = values["buyer_mean_price"] * rng.uniform(0.9, 1.3)
        elif roll < 0.6:
            values["grid"] = f"0.7:1.4:{rng.randint(3, 30)}"
            values.update(_scale(rng))
        return values, values, seed
    values = {"trials": rng.randint(5, 50), **_pair(rng)}
    return values, values, seed


def _invalidate(model: str, values: dict, seed, rng: random.Random, unknown_key: bool):
    """Break a valid call in a way the CLI must reject with exit code 2."""
    values = dict(values)
    values.pop("degrees", None)
    if unknown_key:
        # an unknown flag, or an unknown key in the config file
        values["colour"] = "blue"
        return values, seed
    if model == "order-effect":
        values["order"] = "ca"
    elif model == "interference":
        del values["phi"]
    elif model in ("equivalence", "sample"):
        seed = None
    elif model == "reversal":
        values["x1"] = 0.0
    elif model == "force":
        values.pop("price", None)
        values["grid"] = "2.0:0.5:10"
    elif model == "oscillator":
        values["sigma"] = -rng.uniform(0.1, 1.0)
    elif model == "joint":
        values["grid"] = "0.8:1.25"
    elif model == "work":
        values.update(gamma=rng.uniform(0.5, 2.0), omega=rng.uniform(0.5, 3.0))
    return values, seed


def _small_calls(rng: random.Random, n: dict) -> Workload:
    ops, files = [], {}
    for i in range(n["calls"]):
        model = MODELS[i % len(MODELS)]
        via_run = rng.random() < 1 / 3
        output = rng.choice(("json", "csv"))
        passed, model_view, seed = _valid(model, rng, via_run)
        expect_exit = 0
        if i % 5 == 4:
            # 45 calls hold one invalid call of each subcommand; two of the nine get an
            # unknown key, the rest their subcommand's own kind of bad input
            passed, seed = _invalidate(model, passed, seed, rng, unknown_key=i // 5 % 4 == 3)
            model_view, expect_exit = {}, 2
        counts = {}
        if expect_exit == 0:
            if model == "equivalence":
                counts = {"gate_pairs": passed["trials"],
                          "rng_draws": 2 * RNG_DRAWS_PER_UNITARY * passed["trials"]}
            elif model == "order-effect":
                counts = {"circuits": CIRCUITS_PER_ORDER_EFFECT}
            elif model == "sample":
                counts = {"rng_draws": passed["trials"]}
        if via_run:
            name = f"call{i:03d}.ini"
            files[name] = _ini(model, passed, output, seed)
            ops.append(Op("cli", ["run", name], model, model_view, output, seed,
                          expect_exit, counts=counts))
        else:
            op = _cli(model, passed, output, seed, expect_exit=expect_exit, counts=counts)
            op.params = model_view
            ops.append(op)
    return Workload(ops, files)
