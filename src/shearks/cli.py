"""Command-line entry point.

Verbs: simulate, sweep-mass, rate, check, resume, inspect.  Every verb but
inspect takes --config FILE plus any number of --key value overrides, which
are applied after the file's own assignments (same key = value grammar, so
unknown keys are still rejected).  ``inspect FILE.pksn`` checks a
checkpoint's CRC and prints its header, mass and L2 norms.  Exit codes: 0
success, 2 config error, 3 numerical abort (unresolved), 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, parse_config
from .scenarios import dispatch
from .seriesio import CheckpointError, read_checkpoint
from .spectral import l2_norm, total_mass

VERBS = {
    "simulate": "simulate",
    "sweep-mass": "sweep_mass",
    "rate": "rate_fit",
    "check": "check",
    "resume": "simulate",
}


def _collect_overrides(extras: list[str]) -> list[str]:
    lines = []
    i = 0
    while i < len(extras):
        flag = extras[i]
        if not flag.startswith("--") or i + 1 >= len(extras):
            raise ConfigError(f"overrides must come as --key value pairs, got {extras[i:]}")
        lines.append(f"{flag[2:]} = {extras[i + 1]}")
        i += 2
    return lines


def _inspect(path: Path) -> int:
    """Print a checkpoint's header, mass and L2 norms once its CRC checks."""
    try:
        state, A = read_checkpoint(path)
    except CheckpointError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4
    grid = state.n.grid
    print(f"dim = {grid.dim}  grid = {'x'.join(map(str, grid.shape))}  t = {state.t:.17g}  "
          f"A = {A:.17g}  drift = {state.frame.drift:.17g}  "
          f"t_last_remap = {state.frame.t_last_remap:.17g}")
    u_l2 = l2_norm(state.u) if state.u is not None else 0.0
    print(f"mass = {total_mass(state.n):.17g}  n_l2 = {l2_norm(state.n):.17g}  "
          f"u_l2 = {u_l2:.17g}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shearks",
        description="Pseudo-spectral chemotaxis-fluid bench with Couette shear",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in VERBS:
        p = sub.add_parser(verb)
        p.add_argument("--config", type=Path, default=None,
                       help="key = value configuration file")
        if verb == "resume":
            p.add_argument("checkpoint", type=Path)
    sub.add_parser("inspect").add_argument("checkpoint", type=Path)

    args, extras = parser.parse_known_args(argv)
    if args.verb == "inspect":
        if extras:
            print(f"config error: inspect takes no overrides, got {extras}", file=sys.stderr)
            return 2
        return _inspect(args.checkpoint)
    try:
        text = args.config.read_text() if args.config else ""
    except OSError as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return 4

    try:
        lines = [text, f"scenario = {VERBS[args.verb]}"]
        lines.extend(_collect_overrides(extras))
        cfg = parse_config("\n".join(lines))
        resume_from = args.checkpoint if args.verb == "resume" else None
        code, summary = dispatch(cfg, resume_from=resume_from)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except CheckpointError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 4

    if args.verb == "simulate" or args.verb == "resume":
        reason = f" ({summary['reason']})" if summary["reason"] else ""
        print(f"status = {summary['status']}{reason}  t_final = {summary['t_final']:.6g}  "
              f"dropped_u = {summary['dropped_u']:.3e}  series = {summary['series']}")
    elif args.verb == "sweep-mass":
        for row in summary["rows"]:
            print(f"mass = {row['mass']:.6g}  status = {row['status']}")
        print(f"bracket = {summary['bracket']}")
    elif args.verb == "rate":
        print(f"slope = {summary['slope']:.4f}  intercept = {summary['intercept']:.4f}")
        for row in summary["per_A"]:
            print(f"A = {row['A']:.3g}  rate = {row['rate']:.6g}")
    return code


if __name__ == "__main__":
    sys.exit(main())
