"""Command-line surface.

Subcommands: exact (single force value), curve (sweep to CSV), classic
(flat two-plate check), perturb (IR-cutoff demonstration), verify
(invariant suites), plot (CSV to SVG).  Owns every file format; the
physics modules stay print-free.

Exit codes: 0 success, 1 numerical or verification failure, 2 usage error.

Determinism contract: every command's output is a pure function of its
flags and input files; curve output in particular does not
depend on --jobs, which is still parsed (and must be >= 1) but has no
effect: every row is computed in-process.  Files are written atomically
(temp file, then rename) and use "\n" newlines regardless of platform.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, astuple, fields

from .errors import CasimirError, DomainError, PlateConfig, QuadratureSpec
from .stress_kernel import _K0_MAX, ForceResult, force_classic, force_exact, force_perturbative

# a curve row is a ForceResult: its fields name the CSV columns and cache keys
_ROW_FIELDS = tuple(f.name for f in fields(ForceResult))
_CSV_HEADER = ",".join(_ROW_FIELDS)


# ---------------------------------------------------------------------------
# Shared plumbing.


def _resolve_spec(args: argparse.Namespace) -> QuadratureSpec:
    """force_exact's settings from the flags of exact and curve."""
    return QuadratureSpec(rel_tol=args.rel_tol, kappa_max_policy=args.kappa_max)


def _read_text(path: str, what: str) -> str:
    """The text of an input file, line ends as written; one that is not UTF-8 is a DomainError."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{what} {path!r} is not UTF-8 text: {exc}")


def _write_atomic(path: str, data: str) -> None:
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".tmp-curve-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(data)
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _fmt(v: float) -> str:
    # repr of a Python float is the shortest round-trip decimal
    return repr(float(v))


# ---------------------------------------------------------------------------
# exact


def cmd_exact(args: argparse.Namespace) -> int:
    have_pair = args.a is not None or args.b is not None
    if (args.eta is None) == (not have_pair):
        raise DomainError("supply exactly one of --eta or the pair --a/--b")
    spec = _resolve_spec(args)
    a = None
    if args.eta is not None:
        eta = float(args.eta)
    else:
        if args.a is None or args.b is None:
            raise DomainError("--a and --b must be given together")
        cfg = PlateConfig(a=args.a, b=args.b)
        a, eta = cfg.a, cfg.eta
    r = force_exact(eta, spec)
    payload = r.as_dict()
    if a is not None:
        payload["t_xx"] = r.f_eta / (a * a)
    if args.json:
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"eta       = {_fmt(r.eta)}")
    print(f"f(eta)    = {_fmt(r.f_eta)}")
    print(f"err_est   = {_fmt(r.err_est)}")
    print(f"kappa_max = {_fmt(r.kappa_max)}")
    print(f"n_evals   = {r.n_evals}")
    if a is not None:
        print(f"T_xx      = {_fmt(payload['t_xx'])}   (a = {_fmt(a)}, hbar = c = 1)")
    return 0


# ---------------------------------------------------------------------------
# curve


def _curve_grid(eta_min: float, eta_max: float, points: int, spacing: str) -> list[float]:
    if points < 2:
        raise DomainError(f"need at least 2 points, got {points}")
    if not (0.0 <= eta_min < eta_max) or not math.isfinite(eta_max):
        raise DomainError(f"need 0 <= eta_min < eta_max, got [{eta_min!r}, {eta_max!r}]")
    if spacing == "log":
        if eta_min <= 0.0:
            raise DomainError("log spacing requires eta_min > 0")
        ratio = eta_max / eta_min
        grid = [eta_min * ratio ** (i / (points - 1)) for i in range(points)]
    else:
        step = (eta_max - eta_min) / (points - 1)
        grid = [eta_min + step * i for i in range(points)]
    if any(y <= x for x, y in zip(grid, grid[1:])):
        raise DomainError("grid is not strictly increasing; reduce points or widen the range")
    return grid


def _load_cache(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    try:
        data = json.loads(_read_text(path, "cache file"))
    except json.JSONDecodeError as exc:
        raise DomainError(f"cache file {path!r} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise DomainError(f"cache file {path!r} must hold a JSON object")
    return data


def _cached_row(entry, eta: float, path: str, key: str) -> tuple:
    """A cache entry's row, refused unless its fields are finite numbers with its key's eta."""
    row = tuple(entry.get(k) for k in _ROW_FIELDS) if isinstance(entry, dict) else (None,)
    numbers = all(type(v) in (int, float) and math.isfinite(v) for v in row)
    if not numbers or type(row[-1]) is not int:
        raise DomainError(f"cache file {path!r}: row {key!r} must hold finite numbers, "
                          f"got {entry!r}")
    if row[0] != eta:
        raise DomainError(f"cache file {path!r}: row {key!r} holds eta={row[0]!r}, "
                          f"not its key's {eta!r}")
    return row


def cmd_curve(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args)
    grid = _curve_grid(args.eta_min, args.eta_max, args.points, args.spacing)
    if args.jobs < 1:
        raise DomainError(f"--jobs must be >= 1, got {args.jobs}")

    cache = _load_cache(args.cache) if args.cache else {}
    fp = spec.fingerprint()
    rows: dict[float, tuple] = {}
    misses: list[float] = []
    for eta in grid:
        key = f"{eta!r}|{fp}"
        if key in cache:
            rows[eta] = _cached_row(cache[key], eta, args.cache, key)
        else:
            misses.append(eta)

    for eta in misses:
        r = force_exact(eta, spec)
        rows[eta] = astuple(r)
        cache[f"{eta!r}|{fp}"] = r.as_dict()

    lines = [_CSV_HEADER]
    for eta in grid:
        *values, n_evals = rows[eta]
        lines.append(",".join([*map(_fmt, values), str(int(n_evals))]))
    _write_atomic(args.out, "\n".join(lines) + "\n")
    if args.cache:
        _write_atomic(args.cache, json.dumps(cache, sort_keys=True) + "\n")
    print(f"wrote {len(grid)} rows to {args.out}" + (f" ({len(misses)} computed, {len(grid) - len(misses)} cached)" if args.cache else ""))
    return 0


# ---------------------------------------------------------------------------
# classic / perturb


# classic's own exit rule, looser than verify's classic_two_plate_value row (default
# tolerance only): rel_diff reads 8.1e-14 at --rel-tol 1e-2 ... 1e-6 and 2.1e-16
# at 1e-9 ... 1e-14 (a = 0.5, 1, 2), which exit 0; a force 1e-7 off exits 1
_CLASSIC_REL_MAX = 1e-8


def cmd_classic(args: argparse.Namespace) -> int:
    a = args.a
    numeric = force_classic(a, args.rel_tol)
    analytic = -math.pi / (24.0 * a * a)
    rel = abs(numeric - analytic) / abs(analytic)
    print(f"numeric   = {_fmt(numeric)}")
    print(f"analytic  = {_fmt(analytic)}   (-pi/(24 a^2))")
    print(f"rel_diff  = {_fmt(rel)}")
    return 0 if rel <= _CLASSIC_REL_MAX else 1


def cmd_perturb(args: argparse.Namespace) -> int:
    a, b, k_min = args.a, args.b, args.k_min
    v1 = force_perturbative(a, b, k_min)
    half = k_min / 2.0
    if half == 0.0:
        raise DomainError(f"--k-min {k_min!r} is too small: its half k_min/2 underflows to 0")
    v2 = force_perturbative(a, b, half)
    print(f"k_min     = {_fmt(k_min)}  ->  {_fmt(v1)}")
    print(f"k_min/2   = {_fmt(half)}  ->  {_fmt(v2)}")
    print(f"increase  = {_fmt(v2 - v1)}")
    print(f"ab/(2 pi) * ln 2 = {_fmt(a * b * math.log(2.0) / (2.0 * math.pi))}   (expected deep-IR step)")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify  # loads the oracles; verify.run refuses an unknown suite

    checks = verify.run(args.suite)
    all_passed = all(c.passed for c in checks)
    if args.json:
        print(
            json.dumps(
                {
                    "suite": args.suite,
                    "checks": [asdict(c) for c in checks],
                    "all_passed": all_passed,
                },
                sort_keys=True,
            )
        )
    else:
        for c in checks:
            tag = "PASS" if c.passed else "FAIL"
            extra = f"   ({c.detail})" if c.detail else ""
            print(f"[{tag}] {c.name}: measured={c.measured:.3e} threshold={c.threshold:.3e}{extra}")
        print(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed")
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# plot


def _read_curve_csv(path: str) -> list[tuple]:
    text = _read_text(path, "curve CSV")
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines or lines[0] != _CSV_HEADER:
        raise DomainError(f"{path!r} is not a curve CSV (expected header {_CSV_HEADER!r})")
    if len(lines) < 2:
        raise DomainError(f"{path!r} has no data rows")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(_ROW_FIELDS):
            raise DomainError(f"malformed CSV row: {ln!r}")
        try:
            row = (*map(float, parts[:-1]), int(parts[-1]))
        except ValueError:
            raise DomainError(f"malformed CSV row: {ln!r}")
        if not all(map(math.isfinite, row)):
            raise DomainError(f"CSV row with a value that is not finite: {ln!r}")
        rows.append(row)
    return rows


def _axis_transform(vals: list[float], log: bool, what: str) -> list[float]:
    if not log:
        return list(vals)
    if min(vals) <= 0.0:
        raise DomainError(f"log {what} axis needs strictly positive values")
    return [math.log10(v) for v in vals]


def _render_svg(rows: list[tuple], log_x: bool, log_y: bool) -> str:
    width, height = 800.0, 520.0
    ml, mr, mt, mb = 75.0, 25.0, 25.0, 55.0
    xs = _axis_transform([r[0] for r in rows], log_x, "x")
    ys = _axis_transform([r[1] for r in rows], log_y, "y")
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5

    def px(x: float) -> float:
        return ml + (x - x0) / (x1 - x0) * (width - ml - mr)

    def py(y: float) -> float:
        return height - mb - (y - y0) / (y1 - y0) * (height - mt - mb)

    def tick_label(t: float, log: bool) -> str:
        return f"{10.0 ** t:.4g}" if log else f"{t:.4g}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{ml:.2f}" y1="{height - mb:.2f}" x2="{width - mr:.2f}" y2="{height - mb:.2f}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{ml:.2f}" y1="{mt:.2f}" x2="{ml:.2f}" y2="{height - mb:.2f}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for i in range(5):
        tx = x0 + (x1 - x0) * i / 4.0
        ty = y0 + (y1 - y0) * i / 4.0
        parts.append(
            f'<line x1="{px(tx):.2f}" y1="{height - mb:.2f}" x2="{px(tx):.2f}" '
            f'y2="{height - mb + 5.0:.2f}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px(tx):.2f}" y="{height - mb + 18.0:.2f}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{tick_label(tx, log_x)}</text>'
        )
        parts.append(
            f'<line x1="{ml - 5.0:.2f}" y1="{py(ty):.2f}" x2="{ml:.2f}" y2="{py(ty):.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{ml - 8.0:.2f}" y="{py(ty) + 4.0:.2f}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{tick_label(ty, log_y)}</text>'
        )
    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    parts.append(
        f'<polyline fill="none" stroke="#1f6fb4" stroke-width="1.5" points="{pts}"/>'
    )
    xlabel = "eta (log scale)" if log_x else "eta"
    ylabel = "f(eta) (log scale)" if log_y else "f(eta)"
    parts.append(
        f'<text x="{(ml + width - mr) / 2.0:.2f}" y="{height - 12.0:.2f}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{(mt + height - mb) / 2.0:.2f}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 16 {(mt + height - mb) / 2.0:.2f})">'
        f"{ylabel}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_plot(args: argparse.Namespace) -> int:
    rows = _read_curve_csv(args.input)
    svg = _render_svg(rows, args.log_x, args.log_y)
    _write_atomic(args.output, svg)
    print(f"wrote {args.output} ({len(rows)} points)")
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casimir-plate",
        description="Vacuum stress on a single plate in a linear confining background.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rel = argparse.ArgumentParser(add_help=False)
    rel.add_argument("--rel-tol", type=float, default=QuadratureSpec.rel_tol,
                     help="quadrature relative tolerance (default 1e-9)")
    tol = argparse.ArgumentParser(add_help=False, parents=[rel])
    tol.add_argument("--kappa-max", type=float, default=None,
                     help="momentum scale k0 of the half-line rule's nodes kappa = k0 u, at most "
                          f"{_K0_MAX!r} (default max(eta^(1/6), eta^(-1/3)))")

    p = sub.add_parser("exact", parents=[tol], help="force coefficient at one eta")
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--a", type=float, default=None, help="plate height")
    p.add_argument("--b", type=float, default=None, help="potential slope")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("curve", parents=[tol], help="sweep eta and write a CSV")
    p.add_argument("--eta-min", type=float, required=True)
    p.add_argument("--eta-max", type=float, required=True)
    p.add_argument("--points", type=int, default=25)
    p.add_argument("--spacing", choices=("log", "lin"), default="log")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; has no effect (rows are computed in-process)")
    p.add_argument("--cache", default=None, help="JSON result cache, keyed by eta and tolerance")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("classic", parents=[rel], help="flat two-plate force against -pi/(24 a^2)")
    p.add_argument("--a", type=float, required=True)
    p.set_defaults(func=cmd_classic)

    p = sub.add_parser("perturb", help="IR-cutoff dependence of the perturbative estimate")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--k-min", type=float, required=True)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", default="all", help="suite name, or all (default)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("plot", help="render a curve CSV as an SVG chart")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--log-x", action="store_true")
    p.add_argument("--log-y", action="store_true")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return int(args.func(args))
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CasimirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
