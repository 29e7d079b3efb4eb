"""A classical message is an int: bit strings are built or parsed only where a
report or an error message is formatted, so no bit-string codec can creep back
between a strategy and its referee."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "smplab"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))

# (module, top-level function or class) that may hold a codec, or (module, None)
# for a whole module
ALLOWED = {
    ("smp", "bitstring"),  # the one formatter
    ("transforms", "derandomize_alice"),  # its failure names a Bob message as bits
    ("cli", None),  # report rows
}

_TEMPLATE_BINARY = re.compile(r"\{[^{}]*:[^{}]*b\}")


def _binary_spec(node) -> bool:
    """A format spec, constant or f-string, ending in ``b``."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and node.value.endswith("b")
    if isinstance(node, ast.JoinedStr) and node.values:
        return _binary_spec(node.values[-1])
    return False


def _codec(node) -> str | None:
    """What bit-string codec ``node`` is, or None."""
    if isinstance(node, ast.FormattedValue):
        return "f-string spec ending in b" if _binary_spec(node.format_spec) else None
    if not isinstance(node, ast.Call):
        return None
    func, args = node.func, node.args
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    base = [k.value for k in node.keywords if k.arg == "base"] + args[1:2]
    if name == "int" and any(isinstance(b, ast.Constant) and b.value == 2 for b in base):
        return "int(..., 2)"
    if name == "format" and isinstance(func, ast.Name) and len(args) == 2 and _binary_spec(args[1]):
        return "format spec ending in b"
    if (name == "format" and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Constant) and isinstance(func.value.value, str)
            and _TEMPLATE_BINARY.search(func.value.value)):
        return "str.format spec ending in b"
    if name in ("bitstring", "bin"):
        return f"{name}(...)"
    return None


def codecs(source: str):
    """(top-level name, line, codec) of every bit-string codec in ``source``."""
    for top in ast.parse(source).body:
        scope = getattr(top, "name", None)
        for node in ast.walk(top):
            what = _codec(node)
            if what is not None:
                yield scope, node.lineno, what


@pytest.mark.parametrize("module", MODULES)
def test_no_bit_string_codec_outside_reports_and_records(module):
    found = [
        (scope, line, what)
        for scope, line, what in codecs((SRC / f"{module}.py").read_text())
        if (module, scope) not in ALLOWED and (module, None) not in ALLOWED
    ]
    assert found == []


def test_every_allowed_place_holds_a_codec():
    # an exception that no longer codes anything is stale and must go
    held = {(m, s) for m in MODULES for s, _, _ in codecs((SRC / f"{m}.py").read_text())}
    held |= {(m, None) for m, _ in held}
    assert ALLOWED <= held


def test_the_guard_sees_each_codec():
    source = '''
def f(v, s, w):
    a = int(s, 2)
    b = int(s, base=2)
    c = format(v, f"0{w}b")
    d = format(v, "08b")
    e = f"{v:0{w}b}"
    g = f"{v:b}"
    h = "{:08b}".format(v)
    i = bitstring(v, w)
    j = smp.bitstring(v, w)
    k = bin(v)
    return int(s), int(s, 10), format(v, "08x"), f"{v:>8}", "{}".format(v)
'''
    assert sorted(line for _, line, _ in codecs(source)) == list(range(3, 13))
