"""Miller's recurrence against binary powering, per power shape.

QSeries.pow raises a series to the n-th power by Miller's recurrence or, for
n >= 2, by binary powering, and QSeries.by_squaring chooses the route.  This
script captures every pow call with n >= 2 that the three perfbench
workloads make (eta-deep, registry-400 and reduce-session at seed 1, each
from a cold cache), adds the synthetic shapes of the sweep in CHANGES.md
and the grid the route rule is fitted on, and times pow on each distinct
(series, n) by both routes, the choice forced; the two results must be
equal.

    PYTHONPATH=src python tests/kernel_sweep.py [--quick]

prints one row per shape: L (the compressed length, len(nums) over the
stride), the nonzero count, the coefficient bit size, n, the steps of binary
powering, the time of each route (the least of its runs), the route
by_squaring picks, the one the nonzero-count rule it replaced
(nnz > 32 * steps) picked, and how much slower the picked route is than the
faster one.  A summary per set gives its total under both rules against
the best possible, and how many shapes the rule routes more than 5% slower
than the faster route.  --quick captures eta-deep only, at its test size
(below q^60), adds four synthetic shapes and times each route once: a
check that both routes agree, not a measurement.  The exit status is
nonzero when two routes disagree.  pytest does not collect this file.
"""

import random
import sys
import time
from pathlib import Path

from qmodular.eta import euler_product
from qmodular.qseries import QSeries, _stride

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (perfbench/workloads.py)

REAL_POW = QSeries.pow
REAL_ROUTE = QSeries.by_squaring


def steps(n):
    """Kronecker products of binary powering for n >= 2."""
    return n.bit_length() + bin(n).count("1") - 2


def count_rule(f, n):
    """The route rule by_squaring replaced: more than 32 nonzero terms per
    step of binary powering."""
    return n >= 2 and len(f.nums) - f.nums.count(0) > 32 * steps(n)


def capture(workload, size=None):
    """The distinct (series, n) with n >= 2 that pow is called on while one
    seed-1 session of the workload runs from a cold cache, in call order."""
    seen = {}

    def spy(self, n):
        if isinstance(n, int) and n >= 2 and self.nums:
            seen.setdefault((self, n), None)
        return REAL_POW(self, n)

    from qmodular import levels

    levels.expand_cache_clear()
    runner = workloads.Runner(workload)
    QSeries.pow = QSeries.__pow__ = spy
    try:
        for op in workloads.make_ops(workload, 1, size):
            runner.run(op)
    finally:
        QSeries.pow = QSeries.__pow__ = REAL_POW
        runner.close()
    return list(seen)


def dense(length, bits, seed):
    """A dense int series of the given length and coefficient bit size."""
    rng = random.Random(seed)
    nums = [rng.choice((-1, 1)) * (rng.getrandbits(bits) | 1 << (bits - 1)) for _ in range(length)]
    return QSeries.build(1, 0, nums, length)


def synthetic():
    """The shapes of the crossover sweep in CHANGES.md: dense powers of 8, 64
    and 200 bits, and long sparse Euler factors."""
    return [
        (dense(40, 8, 1), 2),
        (dense(40, 8, 1), 3),
        (dense(64, 64, 2), 2),
        (dense(64, 64, 2), 3),
        (dense(128, 64, 3), 6),
        (dense(128, 64, 3), 24),
        (dense(400, 64, 4), 24),
        (dense(128, 200, 5), 6),
        (dense(400, 200, 6), 3),
        (dense(400, 200, 6), 24),
        (euler_product(1, 999), 24),
        (euler_product(1, 500), 16),
    ]


def grid():
    """The grid the constants of by_squaring are fitted on, with the
    workload shapes: dense series of 12 to 400 terms and 1 to 200 bits, and
    Euler factors E(q^m) below q^100, q^300 and q^1000."""
    shapes = []
    for length in (12, 16, 24, 32, 48, 64, 96, 128, 200, 400):
        for bits in (1, 4, 16, 64, 200):
            f = dense(length, bits, 7 * length + bits)
            shapes += [(f, n) for n in (2, 3, 4, 6, 8, 12, 24)]
    for m in (1, 2, 3, 5):
        for top in (100, 300, 1000):
            f = euler_product(m, top)
            shapes += [(f, n) for n in (2, 3, 4, 6, 8, 12, 16, 24)]
    return shapes


def timed(f, n, squaring):
    """(time in s, result) of one f.pow(n) by the given route."""
    QSeries.by_squaring = lambda self, k: squaring
    try:
        t0 = time.perf_counter()
        out = REAL_POW(f, n)
        return time.perf_counter() - t0, out
    finally:
        QSeries.by_squaring = REAL_ROUTE


def measure(f, n, quick):
    """One row: the shape, both times, and the routes picked.  The routes
    run in turn, for about 0.1 s each (at least 5 runs; 1 when quick), and
    each time is the least of its runs."""
    nums = f.nums
    t = _stride(nums) or len(nums)
    short = nums[::t]
    miller, want = timed(f, n, False)
    square, got = timed(f, n, True)
    runs = 0 if quick else max(4, min(1000, int(0.1 / max(miller, square, 1e-6))))
    for _ in range(runs):
        miller = min(miller, timed(f, n, False)[0])
        square = min(square, timed(f, n, True)[0])
    return {
        "L": len(short),
        "nnz": len(short) - short.count(0),
        "bits": max(abs(x) for x in short).bit_length(),
        "n": n,
        "steps": steps(n),
        "miller": miller,
        "square": square,
        "rule": REAL_ROUTE(f, n),
        "count": count_rule(f, n),
        "agree": want == got,
    }


def picked(row, key):
    return row["square"] if row[key] else row["miller"]


def main(argv):
    quick = "--quick" in argv
    if quick:
        sets = [("eta-deep", capture("eta-deep", workloads.SIZES["eta-deep"][1])), ("synthetic", synthetic()[:4])]
    else:
        sets = [(w, capture(w)) for w in workloads.WORKLOADS]
        sets += [("synthetic", synthetic()), ("grid", grid())]
    head = f"{'set':<15}{'L':>6}{'nnz':>6}{'bits':>6}{'n':>5}{'steps':>6}"
    print(head + f"{'miller ms':>11}{'square ms':>11}  rule  count  loss")
    bad = 0
    for name, shapes in sets:
        rows = [measure(f, n, quick) for f, n in shapes]
        for r in rows:
            bad += not r["agree"]
            loss = picked(r, "rule") / min(r["miller"], r["square"]) - 1
            print(
                f"{name:<15}{r['L']:>6}{r['nnz']:>6}{r['bits']:>6}{r['n']:>5}{r['steps']:>6}"
                f"{1e3 * r['miller']:>11.3f}{1e3 * r['square']:>11.3f}"
                f"  {'sq' if r['rule'] else 'mi':>4}  {'sq' if r['count'] else 'mi':>5}"
                f"  {100 * loss:>3.0f}%{'' if r['agree'] else '  ROUTES DIFFER'}"
            )
        total = {key: 1e3 * sum(picked(r, key) for r in rows) for key in ("rule", "count")}
        best = 1e3 * sum(min(r["miller"], r["square"]) for r in rows)
        slow = sum(picked(r, "rule") > 1.05 * min(r["miller"], r["square"]) for r in rows)
        print(
            f"# {name}: {len(rows)} shapes, total ms: rule {total['rule']:.2f}, "
            f"count rule {total['count']:.2f}, best {best:.2f}; "
            f"{slow} shapes more than 5% slower than the faster route"
        )
    if bad:
        print(f"{bad} shapes where the two routes differ", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
