import ast
from pathlib import Path

import pytest

import modmi
from modmi import errors
from modmi.errors import DataError, FormatError, InfeasibleError, ModmiError, located


class TestLocated:
    def test_prefixes_the_message(self):
        with pytest.raises(DataError) as info:
            with located("stream 's'"):
                raise DataError("bad value")
        assert str(info.value) == "stream 's': bad value"

    def test_keeps_the_type_by_default(self):
        with pytest.raises(InfeasibleError) as info:
            with located(Path("x.fmx")):
                raise InfeasibleError("infeasible k")
        assert type(info.value) is InfeasibleError
        assert str(info.value) == "x.fmx: infeasible k"

    def test_converts_to_as_type(self):
        with pytest.raises(FormatError) as info:
            with located("report: config", FormatError):
                raise DataError("seed must be >= 0")
        assert type(info.value) is FormatError
        assert str(info.value) == "report: config: seed must be >= 0"

    def test_does_not_chain(self):
        with pytest.raises(DataError) as info:
            with located("where"):
                raise DataError("inner")
        assert info.value.__cause__ is None
        assert info.value.__suppress_context__

    def test_no_effect_without_an_error(self):
        with located("where", FormatError):
            value = 1
        assert value == 1

    @pytest.mark.parametrize(
        "exc", [OSError(2, "No such file"), ValueError("not modmi"), MemoryError()]
    )
    def test_other_exceptions_pass_untouched(self, exc):
        with pytest.raises(type(exc)) as info:
            with located("where", FormatError):
                raise exc
        assert info.value is exc
        assert str(info.value) == str(exc)


def _modmi_re_raises(path: Path) -> list[int]:
    """Lines of the ``except ... as name`` clauses in ``path`` that catch a
    ModmiError subclass and raise again (the CLI's handlers only print)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ExceptHandler) or node.name is None:
            continue
        if not any(isinstance(inner, ast.Raise) for inner in ast.walk(node)):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        for expr in caught:
            name = expr.attr if isinstance(expr, ast.Attribute) else getattr(expr, "id", None)
            cls = getattr(errors, name or "", None)
            if isinstance(cls, type) and issubclass(cls, ModmiError):
                found.append(node.lineno)
    return found


def test_only_located_rewrites_a_caught_modmi_error():
    """``errors.located`` is the one place an error gets its source: no other
    module binds a caught ModmiError to raise it again under a new message."""
    package = Path(modmi.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "errors.py")
    assert len(modules) >= 9
    offenders = {p.name: lines for p in modules if (lines := _modmi_re_raises(p))}
    assert offenders == {}
