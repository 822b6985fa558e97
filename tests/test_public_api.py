"""The package's public surface: each module's __all__, stated once,
and the input checks of its public functions."""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import pytest

import mersexp
from mersexp import (
    BitSequence,
    ExponentFamily,
    FieldContext,
    Residue,
    SignedPowerForm,
    canonical_form,
    ext_euclid_inverse,
    family_exponent,
    fold_mod,
    gold_invertible,
    is_invertible,
    kasami_invertible,
    matrix_of_sequence,
    solve_carries,
    to_bits,
)
from mersexp.sbox import power_map, verify_compositional_inverse

MODULES = ("residues", "carry", "orderings", "closed_form", "sbox")
SRC = Path(mersexp.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def _module(name):
    return importlib.import_module(f"mersexp.{name}")


def test_package_all_is_the_module_alls():
    expected = [name for m in MODULES for name in _module(m).__all__]
    assert mersexp.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_every_public_name_is_its_modules_object():
    for m in MODULES:
        module = _module(m)
        for name in module.__all__:
            assert getattr(mersexp, name) is getattr(module, name), name


def test_sibling_imports_are_public():
    # a public name that one module imports from another is in the
    # other's __all__, so no module depends on an unlisted name
    missing = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            if node.module is None:  # from . import <module>
                continue
            exported = _module(node.module).__all__
            missing += [
                f"{path.name}: {node.module}.{alias.name}"
                for alias in node.names
                if not alias.name.startswith(("_", "*"))
                and alias.name not in exported
            ]
    assert missing == []


def _quick_tour():
    text = README.read_text()
    section = text[text.index("## Library quick tour"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def _expected(comment):
    # the longest prefix of a comment that is a Python literal
    text = comment.lstrip("#").strip()
    for end in range(len(text), 0, -1):
        try:
            return ast.literal_eval(text[:end])
        except (ValueError, SyntaxError):
            continue
    raise AssertionError(f"no value in comment {comment!r}")


def test_readme_quick_tour_values():
    source = _quick_tour()
    comments = {
        tok.start[0]: tok.string
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace = {}
    checked = []
    for stmt in ast.parse(source).body:
        comment = comments.get(stmt.end_lineno)
        if isinstance(stmt, ast.Expr) and comment is not None:
            got = eval(compile(ast.Expression(stmt.value), "README", "eval"),
                       namespace)
            assert got == _expected(comment), ast.unparse(stmt)
            checked.append(got)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert checked == [
        78, 4, "KASAMI_GCD1_E6K5", ((0, 0, 1, 0, 1, 1, 1),), 3, 2
    ]


_GF16 = FieldContext(4)
_GOLD1 = canonical_form(ExponentFamily("gold", 1))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: fold_mod(5, 1), "ring parameter must be >= 2, got 1",
                 id="fold_mod n < 2"),
    pytest.param(lambda: fold_mod(-1, 5),
                 "fold_mod expects a non-negative integer",
                 id="fold_mod x < 0"),
    pytest.param(lambda: fold_mod(5, 3.0), "n must be an integer, got 3.0",
                 id="fold_mod n not an integer"),
    pytest.param(lambda: family_exponent(ExponentFamily("gold", 1), 5.0),
                 "n must be an integer, got 5.0",
                 id="family_exponent n not an integer"),
    pytest.param(lambda: is_invertible(3, 5.0),
                 "n must be an integer, got 5.0",
                 id="is_invertible n not an integer"),
    pytest.param(lambda: is_invertible(3.0, 5),
                 "l must be an integer, got 3.0",
                 id="is_invertible l not an integer"),
    pytest.param(lambda: is_invertible(3, 1),
                 "ring parameter must be >= 2, got 1",
                 id="is_invertible n < 2"),
    pytest.param(lambda: BitSequence(2.0, b"\0\1"),
                 "n must be an integer, got 2.0",
                 id="BitSequence n not an integer"),
    pytest.param(lambda: gold_invertible(3, 7.0),
                 "n must be an integer, got 7.0",
                 id="gold_invertible n not an integer"),
    pytest.param(lambda: gold_invertible(3.0, 7),
                 "r must be an integer, got 3.0",
                 id="gold_invertible r not an integer"),
    pytest.param(lambda: kasami_invertible(3.0, 7),
                 "r must be an integer, got 3.0",
                 id="kasami_invertible r not an integer"),
    pytest.param(lambda: ext_euclid_inverse(3.0, 5),
                 "l must be an integer, got 3.0",
                 id="ext_euclid_inverse l not an integer"),
    pytest.param(lambda: matrix_of_sequence([0, 1], 3, 1),
                 "expected 3 values, got 2", id="matrix_of_sequence length"),
    pytest.param(lambda: power_map(0, _GF16),
                 "exponent must be positive, got 0", id="power_map l < 1"),
    pytest.param(lambda: verify_compositional_inverse(1, 0, _GF16),
                 "exponents must be positive",
                 id="verify_compositional_inverse exponent < 1"),
    # is_irreducible turns down a polynomial of degree 3 as a degree-4 one
    pytest.param(lambda: FieldContext(4, 0b1011),
                 "0b1011 is not a monic irreducible of degree 4",
                 id="is_irreducible wrong degree"),
    pytest.param(lambda: FieldContext(3.0), "n must be an integer, got 3.0",
                 id="FieldContext n not an integer"),
    pytest.param(lambda: FieldContext(5, 37.0),
                 "reduction_polynomial must be an integer, got 37.0",
                 id="FieldContext polynomial not an integer"),
    pytest.param(lambda: SignedPowerForm(((0, 1), (0, 2))),
                 "duplicate exponent 0",
                 id="SignedPowerForm repeated exponent"),
    pytest.param(lambda: SignedPowerForm(((0, 1), (1, -1))),  # 1 - 2
                 "the represented integer must be positive",
                 id="SignedPowerForm value <= 0"),
    pytest.param(lambda: solve_carries(
                     _GOLD1, to_bits(Residue(5, 1)), to_bits(Residue(6, 1))),
                 "length mismatch: a has 5 bits, s has 6",
                 id="solve_carries n mismatch"),
])
def test_input_checks(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
