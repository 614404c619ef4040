"""Command-line surface.

Exit codes: 0 success, 1 user/input error (usage errors included), 2 internal
consistency failure (or a failed verification report).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .errors import OrbitPairsError
from .oracle import _is_prime, verify
from .orbits import n_lambda, n_lambdas
from .posets import OrderIdeal, Partition, lattice, partitions_of
from .qpoly import QPolynomial, format_poly, latex_poly
from .quiver import r_n1, type_sum
from .refined import orbit_census, refined_matrix

REFINED_LIMIT = 8


def _poly_out(p: QPolynomial, args, den: int = 1) -> str:
    if args.latex:
        return latex_poly(p, den)
    return format_poly(p, den)


def _json_rows(header: list[str], rows: list[list[str]]) -> list[dict]:
    return [dict(zip(header, row)) for row in rows]


def _emit_rows(header: list[str], rows: list[list[str]], args) -> str:
    if args.json:
        return json.dumps(_json_rows(header, rows), indent=1)
    if args.csv:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(header)
        w.writerows(rows)
        return buf.getvalue().rstrip("\n")
    if args.latex:
        lines = ["\\begin{tabular}{|" + "c|" * len(header) + "}", "\\hline",
                 " " + " & ".join(h.replace("\\", r"\textbackslash{}") for h in header) + "\\\\",
                 "\\hline"]
        for row in rows:
            lines.append(" $ " + " $ & $ ".join(row) + " $\\\\")
        lines += ["\\hline", "\\end{tabular}"]
        return "\n".join(lines)
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    out = [" | ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in rows:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def _emit_with_total(header: list[str], rows: list[list[str]], label: str,
                     total: QPolynomial, args) -> str:
    """The rows and a 'label: total' line; with --json, one object of both."""
    if args.json:
        return json.dumps({"rows": _json_rows(header, rows),
                           label: format_poly(total)}, indent=1)
    return f"{_emit_rows(header, rows, args)}\n{label}: {_poly_out(total, args)}"


# --at refuses a Q past this many bits before any primality test: a prime just
# below 2**2048 takes 0.4 s to recognise on a 2-vCPU VM, and each Miller-Rabin
# witness costs about the cube of Q's bit length.
_AT_BITS = 2048


def _iroot(q: int, k: int) -> int:
    """floor(q ** (1/k)) for q >= 1: the root of q's top bits, shifted up
    and rounded above, then Newton's method, which falls monotonically from
    any start at or above the root and stops on it."""
    s = q.bit_length() // k // 2
    if not s:
        r = 1
        while (r + 1) ** k <= q:
            r += 1
        return r
    x = (_iroot(q >> (k * s), k) + 1) << s
    while True:
        y = ((k - 1) * x + q // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _is_prime_power(q: int) -> bool:
    """q = p**k for a prime p and k >= 1.  The first k, from q's bit length
    down, with q = r**k gives q's highest perfect power, and its base r is
    not itself a perfect power, so q is a prime power iff r is prime."""
    if q < 2:
        return False
    for k in range(q.bit_length(), 0, -1):
        r = _iroot(q, k)
        if r ** k == q:
            return _is_prime(r)
    return False


def cmd_nlambda(args) -> int:
    if args.at is not None and args.at.bit_length() > _AT_BITS:
        raise ValueError(f"Q has {args.at.bit_length()} bits, past the {_AT_BITS}-bit budget"
                         " of the prime power test")
    if args.at is not None and not _is_prime_power(args.at):
        raise ValueError(f"Q = {args.at} is not a prime power, so no ring has residue field"
                         " of that size")
    lam = Partition.parse(args.partition)
    poly = n_lambda(lam)
    # Rendered in full before printing, so that a value too long to render
    # leaves no partial output.
    if args.json:
        obj = {"partition": str(lam), **poly.to_json()}
        if args.at is not None:
            obj["at"] = {"q": args.at, "value": poly(args.at)}
        out = json.dumps(obj)
    else:
        out = _poly_out(poly, args)
        if args.at is not None:
            out += f"\nat q={args.at}: {poly(args.at)}"
    print(out)
    return 0


def cmd_table(args) -> int:
    rows = []
    shapes = partitions_of(args.n)
    for lam, poly in zip(shapes, n_lambdas(shapes)):
        name = "(" + ", ".join(str(p) for p in lam.expand()) + ")"
        if args.json:
            rows.append([str(lam), poly.to_json()["coeffs"]])
        else:
            rows.append([name, _poly_out(poly, args)])
    header = ["partition", "coeffs" if args.json else "orbit count"]
    print(_emit_rows(header, rows, args))
    return 0


def cmd_census(args) -> int:
    lam = Partition.parse(args.partition)
    I = OrderIdeal.parse(args.max)
    census = orbit_census(lam, I)
    rows = [[_poly_out(a, args), _poly_out(n, args)]
            for a, n in sorted(census.items(), key=lambda e: (e[0].degree, e[0].coeffs))]
    total = sum(census.values(), QPolynomial())
    print(_emit_with_total(["cardinality", "number of orbits"], rows, "total", total, args))
    return 0


def cmd_refined(args) -> int:
    lam = Partition.parse(args.partition)
    if lam.weight > REFINED_LIMIT and not args.force:
        raise ValueError(
            f"|lambda| = {lam.weight} exceeds the refined limit {REFINED_LIMIT}"
            " (use --force to override)")
    ideals = lattice(lam).ideals
    matrix = refined_matrix(lam)
    rows = []
    grand = QPolynomial()
    for I in ideals:
        row = [f"[{I}]"]
        row_sum = QPolynomial()
        for L in ideals:
            entry = matrix[(I, L)]
            row.append(_poly_out(entry, args))
            row_sum = row_sum + entry
            grand = grand + entry
        row.append(_poly_out(row_sum, args))
        rows.append(row)
    header = ["first \\ second"] + [f"[{L}]" for L in ideals] + ["row sum"]
    print(_emit_with_total(header, rows, "grand total", grand, args))
    return 0


def cmd_quiver(args) -> int:
    poly = r_n1(args.n)
    obj = {"n": args.n, **poly.to_json()}
    if args.breakdown:
        header = ["type", "classes", "orbit count"]
        terms, ok = type_sum(args.n, poly)
        if not ok:
            raise OrbitPairsError(f"R_{args.n},1: the type sum differs from {poly}")
        rows = [[str(t), _poly_out(c, args, d), _poly_out(m, args)] for t, c, d, m in terms]
        if args.json:
            print(json.dumps({"rows": _json_rows(header, rows), **obj}, indent=1))
            return 0
        print(_emit_rows(header, rows, args))
    print(json.dumps(obj) if args.json else _poly_out(poly, args))
    return 0


def cmd_verify(args) -> int:
    lam = Partition.parse(args.partition)
    report = verify(lam, args.p)
    if args.json:
        print(json.dumps(report, indent=1))
    else:
        for check in report["checks"]:
            tag = "PASS" if check["pass"] else "FAIL"
            print(f"{tag} {check['name']}")
            if not check["pass"]:
                print(f"  expected: {check['expected']}")
                print(f"  actual:   {check['actual']}")
    return 0 if report["pass"] else 2


def cmd_conjecture(args) -> int:
    if args.n_max < 1:
        raise ValueError("n_max must be positive")
    bad = []
    for n in range(1, args.n_max + 1):
        shapes = partitions_of(n)
        for lam, poly in zip(shapes, n_lambdas(shapes)):
            if not poly.has_nonnegative_coefficients():
                bad.append((lam, poly))
    if bad:
        for lam, poly in bad:
            print(f"negative coefficient: n_({lam}) = {poly}")
        return 2
    print(f"no negative coefficients in any n_lambda for |lambda| <= {args.n_max}")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with usage errors exiting 1 like any other bad
    input rather than 2, which is kept for internal consistency failures.
    Subparsers are made of the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="orbitpairs",
        description="Exact orbit counting for pairs in finite modules over "
                    "discrete valuation rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_formats(p):
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true")
        fmt.add_argument("--csv", action="store_true")
        fmt.add_argument("--latex", action="store_true")

    p = sub.add_parser("nlambda", help="number of orbits of pairs for one shape")
    p.add_argument("partition")
    p.add_argument("--at", type=int, metavar="Q")
    add_formats(p)
    p.set_defaults(func=cmd_nlambda)

    p = sub.add_parser("table", help="orbit counts for all partitions of n")
    p.add_argument("n", type=int)
    add_formats(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("census", help="stabilizer-orbit cardinality census")
    p.add_argument("partition")
    p.add_argument("--max", required=True, metavar="POINTS",
                   help="maximal points of the ideal, e.g. '1:4,0:1'")
    add_formats(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("refined", help="orbit-pair matrix over element orbits")
    p.add_argument("partition")
    p.add_argument("--force", action="store_true")
    add_formats(p)
    p.set_defaults(func=cmd_refined)

    p = sub.add_parser("quiver", help="quiver representation count R_{n,1}")
    p.add_argument("n", type=int)
    p.add_argument("--breakdown", action="store_true")
    add_formats(p)
    p.set_defaults(func=cmd_quiver)

    p = sub.add_parser("verify", help="brute-force comparison at q = p")
    p.add_argument("partition")
    p.add_argument("p", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("conjecture", help="scan for negative coefficients")
    p.add_argument("n_max", type=int)
    p.set_defaults(func=cmd_conjecture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory: the input is too large", file=sys.stderr)
        return 1
    except OrbitPairsError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
