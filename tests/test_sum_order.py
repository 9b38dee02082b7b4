"""Every sl(2) sum in `core` and `integrals` is added left to right.

The one generator of those sums writes them as t_0 + t_1 + ..., so that a
stacked row, a one-point call and the GL2 kernel give the same bits.  A sum
whose order the library does not fix would break that without failing any
one evaluation: `np.add.reduce` and `np.sum` add pairwise from eight terms
(complex ones from four), BLAS dots and `@` block and fuse, `einsum` and
`np.vecdot` may do either, and the builtin `sum` compensates its float sums
from Python 3.12 on.  This check keeps all of them out of both modules.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "superint"
# Callables whose order of addition the library does not fix, by the name
# they are reached under: np.sum, x.sum(), np.dot, x.dot(), np.vecdot,
# np.einsum, the builtin sum and math.fsum.
UNORDERED = {"sum", "dot", "vecdot", "einsum", "fsum"}


def unordered_sums(source: str) -> list[str]:
    """`line: what` for every use of an unordered sum in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        what = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            what = "@"
        elif isinstance(node, ast.Attribute):
            if node.attr in UNORDERED:
                what = f".{node.attr}"
            elif node.attr == "reduce" and isinstance(node.value, ast.Attribute) \
                    and node.value.attr == "add":
                what = "add.reduce"
        elif isinstance(node, ast.Name) and node.id in UNORDERED:
            what = node.id
        if what is not None:
            found.append((node.lineno, what))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_the_check_finds_every_unordered_sum():
    source = "\n".join([
        "a = np.add.reduce(x, axis=-1)", "b = np.sum(x)", "c = x.sum(-1)", "d = np.dot(x, y)",
        "e = np.vecdot(x, y)", "f = x @ y", "g @= y", "h = np.einsum('i,i', x, y)",
        "i = sum(x)", "j = math.fsum(x)", "REDUCE = np.add.reduce",
        "ok = np.minimum.reduce(x, axis=None) + np.add.accumulate(x) + x[0] * y[0] + x[1]",
    ])
    assert [hit.split(": ")[0] for hit in unordered_sums(source)] == \
        [str(line) for line in range(1, 12)]


@pytest.mark.parametrize("module", ["core.py", "integrals.py"])
def test_sl2_modules_add_only_left_to_right(module):
    assert unordered_sums((SRC / module).read_text()) == []
