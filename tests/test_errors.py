import ast
import builtins
import math
from pathlib import Path

import numpy as np
import pytest

import modmi
from modmi import errors, infotheory
from modmi.errors import DataError, FormatError, InfeasibleError, ModmiError, check_bool, check_int
from modmi.errors import check_positive, located, printable, read_object


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


@pytest.mark.parametrize(
    "obj, message",
    [
        ([], "doc must be an object"),
        ("{}", "doc must be an object"),
        (None, "doc must be an object"),
        ({"a": 1}, "doc is missing 'b'"),
        ({"b": 1}, "doc is missing 'a'"),
    ],
)
def test_read_object_refuses_a_non_object_or_a_missing_key(obj, message):
    with pytest.raises(FormatError) as info:
        read_object(obj, "doc", ["a", "b"])
    assert str(info.value) == message


def test_read_object_returns_the_object_itself():
    obj = {"a": 1, "extra": None}
    assert read_object(obj, "doc", ["a"]) is obj
    assert read_object({}, "doc") == {}


@pytest.mark.parametrize("raw", [None, 5, ["{}"]], ids=["None", "int", "list"])
def test_a_report_that_is_not_text_is_a_format_error(raw):
    with pytest.raises(FormatError) as info:
        modmi.InfoReport.from_json(raw)
    assert str(info.value) == (
        "report: invalid JSON: the JSON object must be str, bytes or bytearray, "
        f"not {type(raw).__name__}"
    )


def _modmi_re_raises(path: Path) -> list[int]:
    """Lines of the ``except`` clauses in ``path``, with or without ``as
    name``, that catch a ModmiError subclass and raise again (the CLI's
    handlers only print)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
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
    module catches a ModmiError to raise it again under a new message."""
    package = Path(modmi.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "errors.py")
    assert len(modules) >= 9
    offenders = {p.name: lines for p in modules if (lines := _modmi_re_raises(p))}
    assert offenders == {}


@pytest.mark.parametrize(
    "value, text",
    [
        ("a b/it's \"q\"/é日.txt", "a b/it's \"q\"/é日.txt"),
        (Path("x/y.fmx"), "x/y.fmx"),
        ("bad\nz.txt", "'bad\\nz.txt'"),
        (Path("x\r\n/\u2028\x00"), "'x\\r\\n/\\u2028\\x00'"),
    ],
)
def test_printable_shows_a_string_that_does_not_print_as_its_repr(value, text):
    assert printable(value) == text


def _is_path(node) -> bool:
    """Whether ``node`` is ``path``, ``<expr>.path``, a join ``<expr> / <expr>``
    or ``str()`` of one of them."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "str" and node.args:
        node = node.args[0]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return True
    return getattr(node, "id", None) == "path" or getattr(node, "attr", None) == "path"


def _raw_paths(path: Path) -> list[int]:
    """Lines in ``path`` that put a path into a message without ``printable``:
    as a field of an f-string, or as an argument of located, read_json,
    read_object or check_keys, which start a message with it."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.JoinedStr):
            exprs = [value.value for value in node.values if isinstance(value, ast.FormattedValue)]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
            "located", "read_json", "read_object", "check_keys"
        ):
            exprs = node.args
        else:
            continue
        found += [node.lineno for expr in exprs if _is_path(expr)]
    return sorted(found)


def test_every_path_in_a_message_goes_through_printable():
    """A path can hold a line break, which would split an ``error:`` line, so
    every message shows a path by ``errors.printable``."""
    package = Path(modmi.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 10
    offenders = {p.name: lines for p in modules if (lines := _raw_paths(p))}
    assert offenders == {}


# The words of the JSON object rules, which only errors.read_object and
# errors.check_keys put into a message.
OBJECT_RULE_WORDS = ("is missing", "missing field", "must be an object", "unknown key")


def _object_rule_words(path: Path) -> list[int]:
    """Lines in ``path`` with a string, other than a docstring, that holds
    one of OBJECT_RULE_WORDS."""
    tree = ast.parse(path.read_text())
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and node.body
        and isinstance(node.body[0], ast.Expr)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in docstrings and any(word in node.value for word in OBJECT_RULE_WORDS)
    )


def test_only_errors_words_the_object_rules():
    """The manifest and report readers share ``errors.read_object`` and
    ``errors.check_keys``: no other module writes its own message for a value
    that is not a JSON object, lacks a key or holds an unknown one."""
    package = Path(modmi.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "errors.py")
    assert len(modules) >= 9
    offenders = {p.name: lines for p in modules if (lines := _object_rule_words(p))}
    assert offenders == {}


def _number_rule_spellings(path: Path) -> list[int]:
    """Lines in ``path`` that spell the rule for what counts as a number: a
    call of ``is_numpy``, an ``isinstance`` test against ``bool`` (alone or in
    a tuple) or an ``except OverflowError:`` clause."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ExceptHandler):
            if getattr(node.type, "id", None) == "OverflowError":
                found.append(node.lineno)
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name == "is_numpy":
                found.append(node.lineno)
            elif name == "isinstance" and len(node.args) == 2:
                types = node.args[1]
                names = [getattr(t, "id", None) for t in getattr(types, "elts", [types])]
                if "bool" in names:
                    found.append(node.lineno)
    return sorted(found)


def test_only_errors_spells_the_number_rule():
    """``errors`` is the one place that says what counts as a number: no other
    module tests for numpy scalars, tells a bool from an int or catches the
    overflow of an integer too large for a float."""
    package = Path(modmi.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "errors.py")
    assert len(modules) >= 9
    offenders = {p.name: lines for p in modules if (lines := _number_rule_spellings(p))}
    assert offenders == {}


def _array_freezes(path: Path) -> list[int]:
    """Lines in ``path``, outside ``ingestion.frozen_array``, that lay out or
    freeze an array: a call of ``setflags`` or ``ascontiguousarray``, or an
    assignment to ``flags.writeable``."""
    tree = ast.parse(path.read_text())
    helper = set()
    for node in tree.body:
        if path.name == "ingestion.py" and getattr(node, "name", None) == "frozen_array":
            helper = {id(inner) for inner in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if id(node) in helper:
            continue
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            if name in ("setflags", "ascontiguousarray"):
                found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "writeable":
            if isinstance(node.ctx, ast.Store):
                found.append(node.lineno)
    return sorted(found)


def test_only_frozen_array_freezes_an_array():
    """``ingestion.frozen_array`` is the one way an array enters a frozen
    type: no other function makes an array contiguous or read-only."""
    package = Path(modmi.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 10
    offenders = {p.name: lines for p in modules if (lines := _array_freezes(p))}
    assert offenders == {}


def _type_checks(path: Path) -> list[int]:
    """Lines in ``path`` of an ``if`` that raises when ``not isinstance(x, T)``
    holds, where a class of ``T`` is not a builtin (``str`` or ``dict`` is)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.If) or not any(
            isinstance(inner, ast.Raise) for stmt in node.body for inner in ast.walk(stmt)
        ):
            continue
        for test in ast.walk(node.test):
            if not (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)):
                continue
            call = test.operand
            if getattr(getattr(call, "func", None), "id", None) != "isinstance":
                continue
            types = getattr(call.args[1], "elts", [call.args[1]])
            classes = [getattr(builtins, getattr(t, "id", ""), None) for t in types]
            if not all(isinstance(cls, type) for cls in classes):
                found.append(node.lineno)
    return sorted(found)


def test_only_check_type_words_the_type_rule():
    """``errors.check_type`` is the one place that refuses a value not of a
    modmi class (``streams[1] must be a StreamSpec, got dict``): no other
    module tests ``not isinstance`` against a class that is not a builtin
    and raises.  The information functions share one input rule."""
    package = Path(modmi.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "errors.py")
    assert len(modules) >= 9
    offenders = {p.name: lines for p in modules if (lines := _type_checks(p))}
    assert offenders == {}
    assert not hasattr(infotheory, "_check_aligned")


def _numpy_types(codes: str) -> list[type]:
    return sorted({np.dtype(code).type for code in codes}, key=lambda t: t.__name__)


# A value -> what check_int, check_positive and check_bool return for it, in
# that order; None where the check raises DataError.
NUMBER_RULE_CASES = [
    *[(t(3), (3, 3.0, None)) for t in _numpy_types(np.typecodes["AllInteger"])],
    *[(t(1.5), (None, 1.5, None)) for t in _numpy_types(np.typecodes["Float"])],
    *[(t(1.5), (None, None, None)) for t in _numpy_types(np.typecodes["Complex"])],
    (np.bool_(True), (None, None, True)),
    (np.str_("1"), (None, None, None)),
    (True, (None, None, True)),
    (0, (0, None, None)),
    (1.5, (None, 1.5, None)),
    (10**400, (10**400, None, None)),
    (math.nan, (None, None, None)),
    (math.inf, (None, None, None)),
    (-math.inf, (None, None, None)),
    ("1", (None, None, None)),
    (None, (None, None, None)),
]


@pytest.mark.parametrize(
    "value, expected",
    NUMBER_RULE_CASES,
    ids=[f"{type(value).__name__}-{str(value)[:8]}" for value, _ in NUMBER_RULE_CASES],
)
def test_the_checks_take_numbers_by_one_rule(value, expected):
    """Every numpy integer, floating, complex and bool scalar type and the
    Python edge cases: a bool is never a number, a float must be finite, an
    integer too large for a float is no real, and what passes is returned as
    a Python value."""
    rules = ("must be an integer", "must be finite and > 0 (a number, not a bool)", "must be a bool")
    for check, want, rule in zip((check_int, check_positive, check_bool), expected, rules):
        if want is None:
            with pytest.raises(DataError) as info:
                check(value, "x")
            assert str(info.value) == f"x {rule}, got {value!r}"
        else:
            got = check(value, "x")
            assert got == want and type(got) is type(want)



_LABELS = modmi.LabelSequence([0, 1, 0, 1], 2, 25.0)
_FEATURES = modmi.FeatureMatrix([[0.0], [1.0], [0.0], [1.0]], 25.0)
_CODEBOOK = modmi.Codebook([[0.0], [1.0]], 0)
_MANIFEST = modmi.Manifest(
    25.0, [modmi.StreamSpec(n, f"{n}.lbl", "labels", 25.0) for n in ("t", "s")]
)


def _wrong_kind_slots(tmp: Path) -> dict:
    """Each public argument that takes a stream, a codebook, a pmf or a config
    -> (a call that gives it a value and right-kind values everywhere else,
    its kind, the name its error starts with).  A list argument takes the
    value as its last item; ``tmp`` is where the writers write."""
    lab = _LABELS
    return {
        "entropy.streams": (lambda w: modmi.entropy([lab, w]), "labels", "streams[1]"),
        "mutual_information.a": (lambda w: modmi.mutual_information(w, lab), "labels", "a"),
        "mutual_information.b": (lambda w: modmi.mutual_information(lab, w), "labels", "b"),
        "conditional_entropy.a": (lambda w: modmi.conditional_entropy(w, [lab]), "labels", "a"),
        "conditional_entropy.given": (
            lambda w: modmi.conditional_entropy(lab, [lab, w]), "labels", "given[1]"
        ),
        "conditional_mutual_information.streams": (
            lambda w: modmi.conditional_mutual_information([lab, w], lab), "labels", "streams[1]"
        ),
        "conditional_mutual_information.given": (
            lambda w: modmi.conditional_mutual_information([lab, lab], w), "labels", "given"
        ),
        "multivariate_mi_recursive.streams": (
            lambda w: modmi.multivariate_mi_recursive([lab, lab, w]), "labels", "streams[2]"
        ),
        "trivariate_mmi.v": (lambda w: modmi.trivariate_mmi(w, lab, lab), "labels", "v"),
        "trivariate_mmi.t": (lambda w: modmi.trivariate_mmi(lab, w, lab), "labels", "t"),
        "trivariate_mmi.s": (lambda w: modmi.trivariate_mmi(lab, lab, w), "labels", "s"),
        "pair_quantities.t": (lambda w: modmi.pair_quantities(w, lab), "labels", "t"),
        "pair_quantities.s": (lambda w: modmi.pair_quantities(lab, w), "labels", "s"),
        "info_diagram.v": (lambda w: modmi.info_diagram(w, lab, lab), "labels", "v"),
        "info_diagram.t": (lambda w: modmi.info_diagram(lab, w, lab), "labels", "t"),
        "info_diagram.s": (lambda w: modmi.info_diagram(lab, lab, w), "labels", "s"),
        "resample_nearest.stream": (lambda w: modmi.resample_nearest(w, 25.0), "either", "stream"),
        "align.streams": (lambda w: modmi.align([lab, w], 25.0), "either", "streams[1]"),
        "write_feature_matrix.m": (
            lambda w: modmi.write_feature_matrix(w, tmp / "m.fmx"), "features", "m"
        ),
        "write_labels.s": (lambda w: modmi.write_labels(w, tmp / "s.lbl"), "labels", "s"),
        "fit.x": (lambda w: modmi.fit(w, 2), "features", "x"),
        "assign.cb": (lambda w: modmi.assign(w, _FEATURES), "codebook", "cb"),
        "assign.x": (lambda w: modmi.assign(_CODEBOOK, w), "features", "x"),
        "save_codebook.cb": (lambda w: modmi.save_codebook(w, tmp / "c.kmc"), "codebook", "cb"),
        "oracle_quantities.pmf": (lambda w: modmi.oracle_quantities(w), "pmf", "pmf"),
        "sample_discrete.pmf": (lambda w: modmi.sample_discrete(w, 4, 0), "pmf", "pmf"),
        "exhaustive_stream.pmf": (lambda w: modmi.exhaustive_stream(w), "pmf", "pmf"),
        "analyze.config": (lambda w: modmi.analyze(_MANIFEST, w), "config", "config"),
        "sweep_clusters.config": (
            lambda w: modmi.sweep_clusters(_MANIFEST, w, [2]), "config", "config"
        ),
    }


def _wrong_values(kind: str) -> list:
    """What a ``kind`` argument is given instead: the other kind of stream (a
    string where there is none, nothing where either kind is right), an empty
    dict and a list of symbols."""
    other = {"labels": [_FEATURES], "features": [_LABELS], "either": []}.get(kind, ["x"])
    return [*other, {}, [0, 1, 0, 1]]


_WRONG_KIND_CASES = [
    pytest.param(slot, i, id=f"{slot}-{type(value).__name__}")
    for slot, (_, kind, _) in _wrong_kind_slots(Path()).items()
    for i, value in enumerate(_wrong_values(kind))
]


@pytest.mark.parametrize("slot, index", _WRONG_KIND_CASES)
def test_a_wrong_kind_argument_raises_a_modmi_error_naming_it(slot, index, tmp_path):
    """A value of another kind ends in a ModmiError whose message starts with
    the argument's name, not in an AttributeError or TypeError, and no file
    is written."""
    call, kind, name = _wrong_kind_slots(tmp_path)[slot]
    with pytest.raises(ModmiError) as info:
        call(_wrong_values(kind)[index])
    assert str(info.value).startswith(f"{name} must be a"), str(info.value)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda w: modmi.entropy(w), "streams"),
        (lambda w: modmi.conditional_entropy(_LABELS, w), "given"),
        (lambda w: modmi.conditional_mutual_information(w, _LABELS), "streams"),
        (lambda w: modmi.multivariate_mi_recursive(w), "streams"),
        (lambda w: modmi.align(w, 25.0), "streams"),
        (lambda w: modmi.sweep_clusters(_MANIFEST, None, w), "ks"),
    ],
    ids=["entropy", "conditional_entropy", "conditional_mi", "multivariate_mi", "align", "sweep"],
)
@pytest.mark.parametrize("value", [_LABELS, {}], ids=["stream", "dict"])
def test_a_list_argument_takes_a_tuple_or_list(call, name, value):
    with pytest.raises(DataError) as info:
        call(value)
    assert str(info.value) == f"{name} must be a tuple or list, got {type(value).__name__}"
