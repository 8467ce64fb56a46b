"""Regenerate or check the golden CLI outputs under tests/golden/.

Run from the repository root:

    python3 tests/make_goldens.py          # rewrite goldens whose output changed
    python3 tests/make_goldens.py --check  # report drift, write nothing

``--check`` also fails when a command of ``qprop.cli.COMMANDS`` has no JSON
or no CSV case.

Golden files freeze the exact bytes each command prints so the test suite
can detect any formatting or numerical drift. JSON goldens still contain a
wall_time_ms field; comparisons mask its value and nothing else.
"""
import argparse
import contextlib
import io
import json
import pathlib
import re

from qprop.cli import COMMANDS, main as qprop_main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

_WALL_TIME = re.compile(r'"wall_time_ms": [-+0-9.eE]+')

CASES = {
    "order_effect_ab.csv": [
        "order-effect", "--theta", "0.5236", "--phi", "0.7854",
        "--order", "ab", "--output", "csv",
    ],
    "order_effect_ab.json": [
        "order-effect", "--theta", "0.5236", "--phi", "0.7854",
        "--order", "ab", "--output", "json",
    ],
    "order_effect_ba.csv": [
        "order-effect", "--theta", "0.5236", "--phi", "0.7854",
        "--order", "ba", "--output", "csv",
    ],
    "order_effect_ba.json": [
        "order-effect", "--theta", "0.5236", "--phi", "0.7854",
        "--order", "ba", "--output", "json",
    ],
    "interference.csv": [
        "interference", "--theta", "0.5236", "--phi", "0.7854",
        "--output", "csv",
    ],
    "interference.json": [
        "interference", "--theta", "0.5236", "--phi", "0.7854",
        "--output", "json",
    ],
    "reversal.csv": [
        "reversal", "--x1", "1.5", "--x2", "4.0", "--output", "csv",
    ],
    "reversal.json": [
        "reversal", "--x1", "1.5", "--x2", "4.0", "--output", "json",
    ],
    "equivalence.csv": [
        "equivalence", "--trials", "5", "--seed", "7", "--output", "csv",
    ],
    "equivalence.json": [
        "equivalence", "--trials", "5", "--seed", "7", "--output", "json",
    ],
    "oscillator.csv": [
        "oscillator", "--sigma", "0.25", "--omega", "2.0", "--output", "csv",
    ],
    "oscillator.json": [
        "oscillator", "--sigma", "0.25", "--omega", "2.0", "--output", "json",
    ],
    "force_grid.csv": [
        "force", "--mean-price", "1.0", "--sigma", "0.25", "--gamma", "1.0",
        "--grid", "0.5:2.0:9", "--output", "csv",
    ],
    "joint_grid.csv": [
        "joint", "--buyer-mean-price", "1.05", "--buyer-sigma", "0.1",
        "--seller-mean-price", "0.95", "--seller-sigma", "0.1",
        "--gamma", "1.0", "--grid", "0.8:1.25:11", "--output", "csv",
    ],
    "force_grid.json": [
        "force", "--mean-price", "1.0", "--sigma", "0.25", "--gamma", "1.0",
        "--grid", "0.5:2.0:9", "--output", "json",
    ],
    "force_point.csv": [
        "force", "--mean-price", "1.0", "--sigma", "0.25", "--gamma", "1.0",
        "--price", "1.2", "--output", "csv",
    ],
    "force_point.json": [
        "force", "--mean-price", "1.0", "--sigma", "0.25", "--gamma", "1.0",
        "--price", "1.2", "--output", "json",
    ],
    "joint_fixed.csv": [
        "joint", "--buyer-mean-price", "1.05", "--buyer-sigma", "0.1",
        "--seller-fixed-price", "0.95", "--output", "csv",
    ],
    "joint_fixed.json": [
        "joint", "--buyer-mean-price", "1.05", "--buyer-sigma", "0.1",
        "--seller-fixed-price", "0.95", "--output", "json",
    ],
    "joint_grid.json": [
        "joint", "--buyer-mean-price", "1.05", "--buyer-sigma", "0.1",
        "--seller-mean-price", "0.95", "--seller-sigma", "0.1",
        "--gamma", "1.0", "--grid", "0.8:1.25:11", "--output", "json",
    ],
    "work.csv": [
        "work", "--mean-price", "1.0", "--sigma", "0.25",
        "--price1", "1.2", "--price2", "1.0", "--gamma", "1.0",
        "--output", "csv",
    ],
    "work.json": [
        "work", "--mean-price", "1.0", "--sigma", "0.25",
        "--price1", "1.2", "--price2", "1.0", "--gamma", "1.0",
        "--output", "json",
    ],
    "sample.csv": [
        "sample", "--trials", "5", "--buyer-mean-price", "1.05",
        "--buyer-sigma", "0.1", "--seller-mean-price", "0.95",
        "--seller-sigma", "0.1", "--seed", "3", "--output", "csv",
    ],
    "sample.json": [
        "sample", "--trials", "5", "--buyer-mean-price", "1.05",
        "--buyer-sigma", "0.1", "--seller-mean-price", "0.95",
        "--seller-sigma", "0.1", "--seed", "3", "--output", "json",
    ],
}


def mask_timing(text: str) -> str:
    """The text with the wall_time_ms value, the one varying field, masked."""
    return _WALL_TIME.sub('"wall_time_ms": 0', text)


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a JSON number (RFC 8259)")


def strict_json(text: str):
    """Parse a JSON output, refusing the NaN and Infinity that json.loads
    accepts by default."""
    return json.loads(text, parse_constant=_reject_constant)


def uncovered() -> list[str]:
    """Each "<command> <format>" of ``COMMANDS`` that no case pins."""
    covered = {(argv[0], argv[argv.index("--output") + 1]) for argv in CASES.values()}
    return [f"{command} {fmt}" for command in COMMANDS for fmt in ("json", "csv")
            if (command, fmt) not in covered]


def emit(argv: list[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = qprop_main(argv)
    if code != 0:
        raise RuntimeError(f"golden command failed with exit code {code}: {argv}")
    return buffer.getvalue()


def drifted() -> dict[str, str]:
    """Freshly rendered text of every case that differs from its golden file."""
    out = {}
    for name, argv in CASES.items():
        text = emit(argv)
        if name.endswith(".json"):        # a NaN or Infinity is never pinned
            try:
                strict_json(text)
            except ValueError as exc:
                raise RuntimeError(f"golden/{name}: {exc}")
        path = GOLDEN_DIR / name
        old = path.read_text(encoding="utf-8") if path.exists() else None
        if old is None or mask_timing(old) != mask_timing(text):
            out[name] = text
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description="Regenerate or check the CLI goldens.")
    parser.add_argument("--check", action="store_true",
                        help="report goldens that drifted and write nothing")
    args = parser.parse_args()
    changed = drifted()
    if args.check:
        missing = uncovered()
        for name in changed:
            print(f"golden/{name} drifted")
        for pair in missing:
            print(f"no golden case for {pair}")
        print(f"{len(CASES) - len(changed)} of {len(CASES)} goldens match")
        return 1 if changed or missing else 0
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, text in changed.items():
        (GOLDEN_DIR / name).write_text(text, encoding="utf-8", newline="")
        print(f"wrote golden/{name} ({len(text)} bytes)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
