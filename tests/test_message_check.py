"""One refusal text for a classical message: ``smp.check_message`` alone
formats "message ... is not an int in [0, 2^bits)", so the library's checks
cannot drift apart, and every check names an over-long int by its length."""

import ast
from pathlib import Path

import pytest

from smplab.codes import encode, hadamard_code
from smplab.smp import validate_distribution

SRC = Path(__file__).resolve().parents[1] / "src" / "smplab"
TEXT = "is not an int in [0, 2^"


def formatters(source: str):
    """Dotted names of the functions in ``source`` whose own body holds an
    f-string with the refusal text (a nested function counts on its own)."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, scope + [child.name])
            elif isinstance(child, ast.JoinedStr) and any(
                isinstance(v, ast.Constant) and TEXT in v.value for v in child.values
            ):
                yield ".".join(scope)
            else:
                yield from visit(child, scope)

    return list(visit(ast.parse(source), []))


def test_one_function_formats_the_refusal():
    found = [
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in formatters(path.read_text())
    ]
    assert found == ["smp.check_message"]


def test_the_guard_sees_each_formatter():
    source = '''
def f(msg, bits):
    raise ValueError(f"message {msg!r} is not an int in [0, 2^{bits})")

class C:
    def g(self, x, n):
        def inner():
            return f"message {x} is not an int in [0, 2^{n})"
        return "is not an int in [0, 2^" + str(n)
'''
    assert formatters(source) == ["f", "C.g.inner"]


@pytest.mark.parametrize("call, bits", [
    (lambda: validate_distribution({1 << 20000: 1.0}, 3), 3),
    (lambda: encode(hadamard_code(2), 1 << 20000), 2),
], ids=["law", "codeword"])
def test_over_long_message_is_named_by_its_bit_length(call, bits):
    # 2^20000 has 6,021 decimal digits, past Python's int-to-str limit
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == f"message of 20001 bits is not an int in [0, 2^{bits})"
