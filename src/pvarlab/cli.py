"""Command-line front end: variation, moduli, integrals, verification, sweeps.

Exit codes: 0 success (verify: all checks pass), 1 failed checks or runtime
errors, 2 usage errors (bad flags, malformed input, p out of range).
"""

from __future__ import annotations

import argparse
import json
import sys

from .grid import (
    Exponent,
    Grid1,
    Grid2,
    gen_gn,
    gen_product,
    gen_series_f,
    gen_sine,
    gen_staircase,
    gen_tent_scaled,
    load_csv,
    save_csv,
)
from .harness import SWEEP_FAMILIES, run_suite, sharpness_sweep, sweep_rows_to_csv
from .mixednorm import phi_profile, psi_profile, w_p
from .modulus import MIXED_TABLE_CAP, modulus_1d, modulus_iso_2d, modulus_mixed
from .pvar1d import pvar_cyclic, pvar_oracle
from .smoothness import FieldContext, integral_I, integral_J, integral_K
from .vitali2d import certified_vitali_method, vitali_ascent, vitali_finest, vitali_oracle

USAGE_ERROR = 2


class CliError(Exception):
    """A usage-level problem; reported on stderr with exit code 2."""


def _checked(fn, *args, **kwargs):
    """fn(*args, **kwargs), with the ValueError by which fn refuses its
    input (a p out of range, a grid above a size cap) as a usage error."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _exponent(value: float, need_gt_1: bool = False) -> Exponent:
    p = _checked(Exponent, value)
    if need_gt_1 and p.p == 1.0:
        raise CliError("p must exceed 1 for the weighted smoothness integrals")
    return p


def _list(text: str | None, kind, flag: str, preset: tuple) -> tuple:
    """The comma-separated values of a list flag, or preset if it is absent."""
    if text is None:
        return preset
    try:
        return tuple(kind(v) for v in text.split(","))
    except ValueError as exc:
        raise CliError(f"{flag}: {exc}") from exc


def _seed(text: str) -> int:
    """argparse type of the --seed flags: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _load(path: str) -> Grid1 | Grid2:
    try:
        return load_csv(path)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load grid {path!r}: {exc}") from exc


def _need_1d(g) -> Grid1:
    if not isinstance(g, Grid1):
        raise CliError("this command needs a 1-D grid (single-row CSV)")
    return g


def _need_2d(g) -> Grid2:
    if not isinstance(g, Grid2):
        raise CliError("this command needs a 2-D grid")
    return g


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, args) -> None:
    _write(json.dumps(payload, indent=2) + "\n", args.out)


# ---------------------------------------------------------------- commands


def cmd_pvar(args) -> int:
    g = _need_1d(_load(args.grid))
    p = _exponent(args.p)
    if args.oracle:
        value = _checked(pvar_oracle, g, p)
        payload = {"p": p.p, "value": value, "method": "oracle"}
    else:
        value, part = pvar_cyclic(g, p)
        payload = {
            "p": p.p,
            "value": value,
            "partition": list(part.indices),
            "method": "exact-dp",
        }
    _emit(payload, args)
    return 0


def cmd_vitali(args) -> int:
    f = _need_2d(_load(args.grid))
    p = _exponent(args.p)
    method = certified_vitali_method(f, p) if args.method == "auto" else args.method
    if method == "oracle":
        value = _checked(vitali_oracle, f, p)
        payload = {"p": p.p, "value": value, "method": "oracle"}
    elif method == "finest":
        payload = {
            "p": p.p,
            "value": vitali_finest(f, p),
            "method": "finest",
            "exact": p.p == 1.0,
        }
    else:
        r = vitali_ascent(f, p, seed=args.seed)
        payload = {
            "p": p.p,
            "value": r.value,
            "method": "ascent",
            "certified": "lower bound",
            "converged": r.converged,
            "rows": list(r.net.rows.indices),
            "cols": list(r.net.cols.indices),
        }
    _emit(payload, args)
    return 0


def cmd_modulus(args) -> int:
    g = _load(args.grid)
    p = _exponent(args.p)
    if isinstance(g, Grid1):
        table = modulus_1d(g, p)
        values = table.values[None, :]
        steps = (0.0, table.step)
    elif args.kind == "iso":
        table = _checked(modulus_iso_2d, g, p, cap=args.cap)
        values = table.values[None, :]
        steps = (0.0, table.step)
    else:
        table = _checked(modulus_mixed, g, p, cap=args.cap)
        values = table.values
        steps = table.steps
    if args.format == "json":
        _emit({"p": p.p, "steps": list(steps), "values": values.tolist()}, args)
    else:
        lines = [",".join(repr(float(v)) for v in row) for row in values]
        _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_integrals(args) -> int:
    g = _load(args.grid)
    p = _exponent(args.p, need_gt_1=True)
    if isinstance(g, Grid1):
        payload = {"p": p.p, "J": integral_J(modulus_1d(g, p)).to_dict()}
    else:
        table = _checked(modulus_mixed, g, p, cap=args.cap)
        payload = {
            "p": p.p,
            "K": integral_K(table).to_dict(),
            "I": integral_I(table).to_dict(),
            "J_iso": integral_J(modulus_iso_2d(g, p, cap=args.cap)).to_dict(),
        }
    _emit(payload, args)
    return 0


def cmd_wp(args) -> int:
    ctx = FieldContext(_need_2d(_load(args.grid)))
    p = _exponent(args.p)
    payload = {
        "p": p.p,
        "w_p": w_p(ctx, p),
        "phi": phi_profile(ctx, p).samples.tolist(),
        "psi": psi_profile(ctx, p).samples.tolist(),
    }
    _emit(payload, args)
    return 0


def cmd_verify(args) -> int:
    if args.suite != "all":
        raise CliError(f'unknown suite {args.suite!r}; the only suite is "all"')
    report = run_suite(args.seed)
    _emit(report.to_dict(), args)
    n_fail = sum(not c["pass"] for c in report.checks)
    sys.stderr.write(f"{len(report.checks)} checks, {n_fail} failed\n")
    return 0 if report.all_pass else 1


def cmd_sweep(args) -> int:
    p_preset, n_preset = SWEEP_FAMILIES[args.family]
    p_grid = _list(args.p_list, float, "--p-list", p_preset)
    n_grid = _list(args.n_list, int, "--n-list", n_preset)
    rows = _checked(sharpness_sweep, args.family, p_grid, n_grid, size=args.size, seed=args.seed)
    if args.format == "json":
        _emit({"rows": rows}, args)
    else:
        _write(sweep_rows_to_csv(rows), args.out)
    return 0


def cmd_gen(args) -> int:
    n, m, N = args.n, args.m, args.N
    if args.family == "sineprod":
        # gen_sine's messages name its frequency n, which reads as --n
        if m < 1:
            raise CliError(f"--m must be at least 1, got {m}")
        if N % (4 * m):
            raise CliError(f"N={N} must be a multiple of 4m={4 * m} (--m {m})")
    make = {
        "tent": lambda: gen_tent_scaled(n, N),
        "sine": lambda: gen_sine(n, N),
        "bump": lambda: gen_gn(n, N),
        "staircase": lambda: gen_staircase(N),
        "series": lambda: gen_series_f(n, _exponent(args.p), N),
        "sineprod": lambda: gen_product(gen_sine(n, N), gen_sine(m, N)),
    }[args.family]
    save_csv(_checked(make), args.out)
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pvarlab",
        description="p-variation and smoothness diagnostics on periodic grids",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p_parser):
        p_parser.add_argument("--grid", required=True, help="CSV grid file")
        p_parser.add_argument("--p", type=float, default=2.0, help="variation index")
        p_parser.add_argument("--out", help="write output here instead of stdout")

    sp = sub.add_parser("pvar", help="cyclic p-variation of a 1-D grid")
    common(sp)
    sp.add_argument("--oracle", action="store_true", help="brute-force all partitions")
    sp.set_defaults(fn=cmd_pvar)

    sp = sub.add_parser("vitali", help="Vitali p-variation of a 2-D grid over nets")
    common(sp)
    sp.add_argument("--method", choices=("auto", "finest", "ascent", "oracle"), default="auto")
    sp.add_argument("--seed", type=_seed, default=0)
    sp.set_defaults(fn=cmd_vitali)

    sp = sub.add_parser("modulus", help="modulus-of-continuity table")
    common(sp)
    sp.add_argument("--kind", choices=("mixed", "iso"), default="mixed")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--cap", type=int, default=MIXED_TABLE_CAP)
    sp.set_defaults(fn=cmd_modulus)

    sp = sub.add_parser("integrals", help="certified enclosures of the smoothness integrals")
    common(sp)
    sp.add_argument("--cap", type=int, default=MIXED_TABLE_CAP)
    sp.set_defaults(fn=cmd_integrals)

    sp = sub.add_parser("wp", help="mixed-norm functional of the section profiles")
    common(sp)
    sp.set_defaults(fn=cmd_wp)

    sp = sub.add_parser("verify", help="run the full inequality suite")
    sp.add_argument("--seed", type=_seed, default=7)
    sp.add_argument("--suite", default="all",
                    help='"all", the only suite (kept for existing command lines)')
    sp.add_argument("--out", help="write the JSON report here")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("sweep", help="sharpness-diagnostic sweep")
    sp.add_argument("--family", required=True, choices=tuple(SWEEP_FAMILIES))
    sp.add_argument("--p-list", dest="p_list",
                    help="comma-separated p values (default: the family's preset)")
    sp.add_argument("--n-list", dest="n_list",
                    help="comma-separated orders n (default: the family's preset)")
    sp.add_argument("--size", type=int, default=64)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("gen", help="write a generator to CSV")
    sp.add_argument("--family", required=True,
                    choices=("tent", "sine", "bump", "staircase", "series", "sineprod"))
    sp.add_argument("--n", type=int, default=1, help="frequency / truncation order")
    sp.add_argument("--m", type=int, default=1, help="second frequency (sineprod)")
    sp.add_argument("--N", type=int, required=True, help="grid resolution")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_gen)

    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except Exception as exc:  # noqa: BLE001 - runtime failure, not usage
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
