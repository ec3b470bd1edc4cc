"""Inputs, operations and output checks of the three benchmark workloads.

A workload turns a seed into a list of operations, each plain JSON data
that carries its own expected output, so a session process receives only
generated inputs.  Every operation's output is checked after it is timed:

* eta-deep: Delta_N for N = 1..10 below q^1000 through qmodular.eta.delta,
  in a seeded order.  Expected: a SHA-256 over the exact coefficients.
* registry-400: each of the 37 registered identities checked at q^400, in
  registration order (together, identities.check_all(400)); the seed
  changes nothing.  Expected: a passing report and a SHA-256 over both
  expanded sides.
* reduce-session: one client sending reduce requests the way the CLI
  issues them.  Each request is the text of a seeded rational combination
  of the whole basis of M_w(Gamma0(N)), so its coordinates are known.
  The spaces (N <= 10, even w <= 24, nonzero dimension) are drawn
  uniformly with replacement, from STREAM_SEED rather than the run's seed
  so that every seed asks for the same multiset of spaces; the run's seed
  sets their order and the coordinates.  That about 40% of the requests
  repeat a space is an assumption of uniform traffic, not measured traffic.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"

WORKLOADS = ("eta-deep", "registry-400", "reduce-session")

# workload -> (full size, tiny size used by the tests).  The size is the
# expansion bound for eta-deep and registry-400 and the number of requests
# for reduce-session.
SIZES = {"eta-deep": (1000, 60), "registry-400": (400, 40), "reduce-session": (150, 12)}
# reduce-session's spaces: levels 1..TOP_LEVEL, even weights up to TOP_WEIGHT,
# drawn from this fixed seed
TOP_LEVEL, TOP_WEIGHT = 10, 24
STREAM_SEED = 0


def import_qmodular():
    """Import qmodular and its CLI module, as the `qmodular` command does,
    from this checkout's src/, never from an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qmodular
    import qmodular.cli

    where = Path(qmodular.__file__).resolve().parent.parent
    if where != SRC:
        raise ImportError(f"qmodular imported from {where}, expected {SRC}")
    return qmodular


def series_digest(series_list) -> str:
    """SHA-256 over the bound and the exact (exponent, numerator,
    denominator) triples of every nonzero coefficient, series by series."""
    h = hashlib.sha256()
    for s in series_list:
        h.update(f"bound {s.bound}\n".encode())
        for i, c in enumerate(s.coeffs):
            if c:
                c = Fraction(c)
                e = Fraction(s.val + i, s.den)
                h.update(f"{e} {c.numerator} {c.denominator}\n".encode())
    return h.hexdigest()


def make_ops(workload: str, seed: int, size: int | None = None) -> list:
    """The seeded operations of one workload at the given size (default:
    the full size), each with its expected output."""
    full = SIZES[workload][0]
    size = full if size is None else size
    rng = random.Random(seed)
    if workload == "eta-deep":
        expected = _digests(workload, size)
        levels = list(range(1, 11))
        rng.shuffle(levels)
        return [{"level": n, "prec": size, "digest": expected[str(n)]} for n in levels]
    if workload == "registry-400":
        expected = _digests(workload, size)
        # registration order, as check_all runs them: identities share
        # torsion atoms, and the order decides which check pays for them
        names = import_qmodular().identities.names()
        return [{"name": n, "prec": size, "digest": expected[n]} for n in names]
    if workload == "reduce-session":
        return _reduce_requests(rng, size)
    raise ValueError(f"unknown workload {workload!r}")


def _digests(workload, size):
    table = json.loads(DIGESTS.read_text())
    return table[workload][str(size)]


def _reduce_requests(rng, requests):
    qm = import_qmodular()
    from qmodular.expr import Sum

    spaces = [
        (n, w)
        for n in range(1, TOP_LEVEL + 1)
        for w in range(2, TOP_WEIGHT + 1, 2)
        if qm.dimension(n, w) > 0
    ]
    stream = random.Random(STREAM_SEED).choices(spaces, k=requests)
    rng.shuffle(stream)
    ops = []
    for n, w in stream:
        skel = qm.basis_skeleton(n, w)
        coords = [
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
            for _ in skel
        ]
        ops.append(
            {
                "expr": qm.print_expr(Sum(list(zip(coords, skel)))),
                "level": n,
                "weight": w,
                "coords": [[c.numerator, c.denominator] for c in coords],
            }
        )
    return ops


class Runner:
    """Runs and checks one workload's operations in this process.

    For registry-400 it keeps the two sides each identity check expands
    (through the expand_expr that identities looks up), so that they can
    be digested after the check is timed."""

    def __init__(self, workload: str):
        import_qmodular()
        from qmodular import cli, eta, identities

        self.workload = workload
        self._sides = []
        self._restore = None
        if workload == "eta-deep":
            self.run = lambda op: eta.delta(op["level"], op["prec"])
        elif workload == "registry-400":
            expand = identities.expand_expr

            def expand_and_keep(e, prec):
                s = expand(e, prec)
                self._sides.append(s)
                return s

            identities.expand_expr = expand_and_keep
            self._restore = (identities, "expand_expr", expand)
            self.run = lambda op: identities.check(op["name"], op["prec"])
        elif workload == "reduce-session":
            self.run = lambda op: _reduce_request(cli, op)
        else:
            raise ValueError(f"unknown workload {workload!r}")

    def check(self, op, out) -> bool:
        """True when the operation's output is the expected one."""
        if self.workload == "eta-deep":
            return series_digest([out]) == op["digest"]
        if self.workload == "registry-400":
            sides, self._sides = self._sides, []
            return out.passed and series_digest(sides) == op["digest"]
        return out == [Fraction(p, q) for p, q in op["coords"]]

    def discard(self):
        """Forget what a failed operation left behind."""
        self._sides = []

    def close(self):
        if self._restore is not None:
            setattr(*self._restore)
            self._restore = None


def _reduce_request(cli, op):
    """One `qmodular reduce --expr ... --level N --weight w` request, through
    the names the CLI calls: parse, expand to the default bound, reduce."""
    e = cli.parse_expr(op["expr"])
    level, wt = op["level"], op["weight"]
    f = cli.expand_expr(e, cli.dimension(level, wt) + 6)
    return cli.reduce(f, level, wt)


def record_digests(workload: str, size: int) -> dict:
    """Digests of the current code's outputs for one workload and size."""
    runner = Runner(workload)
    try:
        if workload == "eta-deep":
            return {
                str(n): series_digest([runner.run({"level": n, "prec": size})])
                for n in range(1, 11)
            }
        out = {}
        for name in import_qmodular().identities.names():
            report = runner.run({"name": name, "prec": size})
            if not report.passed:
                raise RuntimeError(f"{name} fails at q^{size}")
            out[name] = series_digest(runner._sides)
            runner.discard()
        return out
    finally:
        runner.close()


if __name__ == "__main__":
    # Rewrites digests.json from the code in ../src:
    #   python3 perfbench/workloads.py
    table = {
        w: {str(size): record_digests(w, size) for size in SIZES[w]}
        for w in ("eta-deep", "registry-400")
    }
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
