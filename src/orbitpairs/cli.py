"""Command-line surface.

Exit codes: 0 success, 1 user/input error, 2 internal consistency failure
(or a failed verification report).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from itertools import chain

from .errors import OrbitPairsError
from .oracle import verify
from .orbits import n_lambda, orbit_census
from .posets import OrderIdeal, Partition, lattice, partitions_of
from .qpoly import QPolynomial, ZERO, format_poly, latex_poly
from .quiver import c_tau, enumerate_types, n_tau, r_n1
from .refined import refined_matrix

REFINED_LIMIT = 8


class ResultStore:
    """File-backed cache of computed orbit-pair counts, keyed by the
    canonical (capped) partition string, read on opening and written once
    by save().  A corrupt file, or an entry whose value is not monic of
    degree lambda_1 with integer coefficients, is dropped with a warning."""

    def __init__(self, path=None):
        self.path = path
        self.entries: dict[str, list] = {}
        self._added = False
        if path is None:
            return
        try:
            with open(path) as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("cache root must be an object")
        except FileNotFoundError:
            return
        except (ValueError, OSError) as exc:
            print(f"warning: ignoring corrupt cache {path}: {exc}", file=sys.stderr)
            return
        for key, coeffs in data.items():
            try:
                lam = Partition.parse(key)
                if not (isinstance(coeffs, list) and all(type(c) is int for c in coeffs)
                        and coeffs[-1:] == [1] and len(coeffs) == lam.largest + 1):
                    raise ValueError(f"not a monic integer polynomial of degree {lam.largest}")
                self.entries[str(lam)] = coeffs
            except ValueError as exc:
                print(f"warning: dropping cache entry {key!r}: {exc}", file=sys.stderr)

    def get(self, lam: Partition):
        entry = self.entries.get(str(lam))
        if entry is None:
            return None
        return QPolynomial.from_json({"coeffs": entry})

    def __setitem__(self, lam: Partition, poly: QPolynomial):
        self.entries[str(lam)] = poly.to_json()["coeffs"]
        self._added = True

    def save(self):
        """Write the entries, if any were added, to a temporary file renamed
        over the cache, so an interrupted write leaves the old file intact."""
        if self.path is None or not self._added:
            return
        tmp = f"{self.path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                json.dump(self.entries, fh, indent=1, sort_keys=True)
            os.replace(tmp, self.path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, self.path) from exc
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)


def _poly_out(p: QPolynomial, args) -> str:
    if args.latex:
        return latex_poly(p)
    return format_poly(p)


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
        lines = ["\\begin{tabular}{|" + "c|" * len(header) + "}", "\\hline"]
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


# Miller-Rabin to these bases decides primality for every n < 3.3e24.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2 or any(n % a == 0 for a in _WITNESSES):
        return n in _WITNESSES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    for a in _WITNESSES:
        x = pow(a, (n - 1) >> s, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Trial division tries every divisor below 2**_TRIAL_BITS.
_TRIAL_BITS = 16


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
    """q = p**k for a prime p and k >= 1.  The first divisor d > 1 of q that
    trial division finds is prime, and q must be a power of it.  Past
    2**_TRIAL_BITS, every prime factor of q is larger, so q = r**k with k > 1
    needs k <= (bit length - 1) / _TRIAL_BITS; trying prime k suffices, as an
    r**(a*b) is an (r**b)**a."""
    if q < 2:
        return False
    for d in chain((2,), range(3, 1 << _TRIAL_BITS, 2)):
        if d * d > q:
            return True
        if q % d == 0:
            while q % d == 0:
                q //= d
            return q == 1
    for k in range(2, (q.bit_length() - 1) // _TRIAL_BITS + 1):
        if _is_prime(k):
            r = _iroot(q, k)
            if r ** k == q:
                return _is_prime_power(r)
    return _is_prime(q)


def cmd_nlambda(args) -> int:
    if args.at is not None and not _is_prime_power(args.at):
        raise ValueError(f"Q = {args.at} is not a prime power, so no ring has residue field"
                         " of that size")
    lam = Partition.parse(args.partition)
    store = ResultStore(args.cache)
    try:
        poly = n_lambda(lam, store)
    finally:
        store.save()
    # Rendered in full before printing, so that a value too long to render
    # leaves no partial output.
    if args.json:
        obj = {"partition": str(lam), **poly.to_json()}
        if args.at is not None:
            obj["at"] = {"q": args.at, "value": int(poly(args.at))}
        out = json.dumps(obj)
    else:
        out = _poly_out(poly, args)
        if args.at is not None:
            out += f"\nat q={args.at}: {poly(args.at)}"
    print(out)
    return 0


def cmd_table(args) -> int:
    store = ResultStore(args.cache)
    rows = []
    try:
        for lam in partitions_of(args.n):
            poly = n_lambda(lam, store)
            name = "(" + ", ".join(str(p) for p in lam.expand()) + ")"
            if args.json:
                rows.append([str(lam), poly.to_json()["coeffs"]])
            else:
                rows.append([name, _poly_out(poly, args)])
    finally:
        store.save()
    header = ["partition", "coeffs" if args.json else "orbit count"]
    print(_emit_rows(header, rows, args))
    return 0


def cmd_census(args) -> int:
    lam = Partition.parse(args.partition)
    I = OrderIdeal.parse(args.max)
    census = orbit_census(lam, I)
    rows = [[format_poly(a), format_poly(n)]
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
            row.append(format_poly(entry))
            row_sum = row_sum + entry
            grand = grand + entry
        row.append(format_poly(row_sum))
        rows.append(row)
    header = ["first \\ second"] + [f"[{L}]" for L in ideals] + ["row sum"]
    print(_emit_with_total(header, rows, "grand total", grand, args))
    return 0


def cmd_quiver(args) -> int:
    poly = r_n1(args.n)
    obj = {"n": args.n, **poly.to_json()}
    if args.breakdown:
        header = ["type", "classes", "orbit count"]
        types = [(str(tau), c_tau(tau), n_tau(tau)) for tau in enumerate_types(args.n)]
        if sum((c * m for _, c, m in types), ZERO) != poly:
            raise OrbitPairsError(f"R_{args.n},1: the type sum differs from {poly}")
        rows = [[tau, format_poly(c), format_poly(m)] for tau, c, m in types]
        if args.json:
            print(json.dumps({"rows": _json_rows(header, rows), **obj}, indent=1))
            return 0
        print(_emit_rows(header, rows, args))
    print(json.dumps(obj) if args.json else _poly_out(poly, args))
    return 0


def cmd_verify(args) -> int:
    lam = Partition.parse(args.partition)
    mode = "full-endos" if args.full_endos else "quick"
    report = verify(lam, args.p, mode)
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
        for lam in partitions_of(n):
            poly = n_lambda(lam)
            if not poly.has_nonnegative_coefficients():
                bad.append((lam, poly))
    if bad:
        for lam, poly in bad:
            print(f"negative coefficient: n_({lam}) = {poly}")
        return 2
    print(f"no negative coefficients in any n_lambda for |lambda| <= {args.n_max}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--cache", metavar="FILE")
    add_formats(p)
    p.set_defaults(func=cmd_nlambda)

    p = sub.add_parser("table", help="orbit counts for all partitions of n")
    p.add_argument("n", type=int)
    p.add_argument("--cache", metavar="FILE")
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
    p.add_argument("--full-endos", action="store_true")
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
    except OrbitPairsError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
