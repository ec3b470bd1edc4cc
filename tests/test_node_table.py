"""The interning table of expression nodes holds its nodes weakly: once a
session drops what it parsed and expanded, the table is back to the size it
had before.  CI runs this file in a process of its own as well, where that
size is the one right after import, so no other test can hide a leak."""

import gc

from qmodular import expr
from qmodular.cli import parse_expr
from qmodular.levels import expand_cache_clear, expand_expr


def test_the_table_keeps_no_dropped_expression():
    expand_cache_clear()
    gc.collect()
    before = len(expr._NODES)
    kept = []
    for k in range(2000):
        e = parse_expr(f"{k + 1}/7*(E(2,2,0) + {k}*wp(1,0,2))^{1 + k % 40}*Delta(2)")
        kept.append((e, expand_expr(e, 4)))
    assert len({id(e) for e, _ in kept}) == 2000
    assert len(expr._NODES) >= before + 2000
    del kept, e
    expand_cache_clear()
    gc.collect()
    assert len(expr._NODES) == before
