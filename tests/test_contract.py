"""The CLI's exit-code contract, on configs drawn over the documented domain and its edges.

Each drawn config file runs through ``solve``, a 3-point ``sweep`` of one
scalar around its configured value, ``opt-tau --tau-cap 2`` and, with
``[mc] n_periods = 20`` appended, ``simulate --paths 200``, in process.
Every call must exit 0, 2, 3, 4 or 6 (see ``cli``), or 5 for ``simulate``,
whose report then says its check failed; let no exception or warning
escape; and leave stdout empty when it exits neither 0 nor 5, and stderr
empty when it does. An exit 2, 3 or 4
must come from the matching error family, so its stderr starts with that
family's prefix. An exit 3 must come from a named validation: after its
prefix, and a sweep's ``at grid point ...: ``, its stderr is the message of
one of the package's raise sites of a ParameterError class, whose fields
match any text.

The draws follow the domain of each field: n <= 3 assets with columns of
sigma scaled by e^U(-4, 2), r in [0, 0.2], gamma = 1 or in (0, 1), alpha in
(0, 1) or -e^U(-3, 3), and tau, delta and x0 log-uniform over many decades.
One field in about ten takes an edge instead: 0, -1, a tiny or huge
number, or a non-finite one. The draws are derandomised, so the test is
the same on every run; a longer profile (raise ``max_examples``) runs by
hand, and each of its finds becomes an explicit example.
"""

import ast
import contextlib
import io
import math
import re
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from periodic_portfolio import cli, errors

from conftest import FAMILY_EXITS, HUGE_SAMPLES, LONG_A_STEP, NOT_UTF8, STEEP, TINY_DELTA, TINY_LOWER_BOUND

CONTRACT_CODES = {
    cli.EXIT_OK,
    cli.EXIT_CONFIG,
    cli.EXIT_ASSUMPTION,
    cli.EXIT_NONCONVERGENCE,
    cli.EXIT_NO_PROPOSITION,
}
FAMILY_PREFIXES = dict(FAMILY_EXITS.values())  # exit 2, 3 or 4 only from its error family
EDGES = (0.0, -1.0, 1e-300, 1e300, math.inf, -math.inf, math.nan)
SCALARS = ("tau", "gamma", "x0", "delta", "alpha")


def parameter_messages() -> re.Pattern:
    """The messages of every ``raise`` of a ParameterError class in the package, as one pattern."""
    names, todo = set(), [errors.ParameterError]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo += cls.__subclasses__()
    messages = []
    for path in Path(errors.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and getattr(node.exc.func, "id", None) in names:
                message = node.exc.args[0]
                parts = message.values if isinstance(message, ast.JoinedStr) else [message]
                assert all(isinstance(p, (ast.Constant, ast.FormattedValue)) for p in parts), (path.name, node.lineno)
                messages.append("".join(re.escape(p.value) if isinstance(p, ast.Constant) else ".+" for p in parts))
    assert len(messages) > 20
    return re.compile("|".join(f"(?:{m})" for m in messages))


PARAMETER_MESSAGES = parameter_messages()
GRID_POINT = re.compile(r"^at grid point \w+=\S+: ")  # the prefix a sweep adds to a point's error


@st.composite
def numbers(draw, lo: float, hi: float, log: bool = False) -> float:
    """U(lo, hi), or e^U(lo, hi) if ``log``, and an edge one time in ten."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(EDGES))
    value = draw(st.floats(lo, hi))
    return math.exp(value) if log else value


@st.composite
def config_texts(draw) -> bytes:
    n = draw(st.integers(1, 3))
    scale = [math.exp(draw(st.floats(-4.0, 2.0))) for _ in range(n)]
    sigma = [
        [
            (draw(st.floats(0.05, 0.6)) if i == j else draw(st.floats(-0.2, 0.2)) if j < i else 0.0) * scale[j]
            for j in range(n)
        ]
        for i in range(n)
    ]
    r = draw(numbers(0.0, 0.2))
    mu = [r + draw(st.floats(-0.4, 0.4)) * scale[i] for i in range(n)]
    fields = {
        "utility": draw(st.sampled_from(("power", "log"))),
        "mu": " ".join(map(repr, mu)),
        "sigma": " ".join(repr(v) for row in sigma for v in row),
        "r": repr(r),
        "tau": repr(draw(numbers(math.log(1e-4), math.log(3000.0), log=True))),
        "gamma": repr(1.0 if draw(st.booleans()) else draw(numbers(1e-3, 1.0))),
        "delta": repr(draw(numbers(-6.0, 2.0, log=True))),
        "x0": repr(draw(numbers(-10.0, 10.0, log=True))),
    }
    if fields["utility"] == "power":
        positive = draw(st.booleans())
        fields["alpha"] = repr(draw(numbers(1e-3, 0.999)) if positive else -draw(numbers(-3.0, 3.0, log=True)))
    return "".join(f"{key} = {value}\n" for key, value in fields.items()).encode()


def power_config(**fields) -> bytes:
    """A power config file of ``fields``: tuples space-separated, numbers by repr."""
    text = "utility = power\n"
    for key, value in fields.items():
        text += f"{key} = {' '.join(map(repr, value)) if isinstance(value, tuple) else repr(value)}\n"
    return text.encode()


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(text=config_texts(), parameter=st.sampled_from(SCALARS))
@example(text=NOT_UTF8, parameter="tau")
@example(text=power_config(**TINY_LOWER_BOUND), parameter="tau")  # an a-priori lower bound on A* far below tol
@example(  # alpha gamma rounds to 0 while a (1 - gamma) > 0: the u-grid's step took 1 / (alpha gamma)
    text=power_config(
        mu=(0.25, 0.0, 0.0), sigma=(0.5, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.5),
        r=0.0, tau=1e-300, gamma=1e-300, delta=1.0, x0=1.0, alpha=-1e-300,
    ),
    parameter="tau",
)
@example(text=power_config(**HUGE_SAMPLES), parameter="tau")  # the squares of the Monte Carlo values overflow
@example(text=power_config(**TINY_DELTA), parameter="delta")  # an upper bound on A* whose denominator rounds to 0
@example(text=power_config(**STEEP, tau=1.0, x0=1e300), parameter="x0")  # V(x0) underflows: exit 4
@example(text=power_config(**STEEP, tau=5.0, x0=1e-180), parameter="x0")  # x0^beta overflows, V(x0) does not
@example(text=power_config(**LONG_A_STEP), parameter="tau")  # a long first A step: the y* start stays in float64
def test_every_call_keeps_the_exit_code_contract(tmp_path_factory, text, parameter):
    work = tmp_path_factory.mktemp("contract")
    config = work / "drawn.cfg"
    config.write_bytes(text)
    simulated = work / "simulated.cfg"
    simulated.write_bytes(text + b"\n[mc]\nn_periods = 20\n")
    value = 1.0
    for line in text.decode("utf-8", errors="replace").splitlines():
        key, _, raw = line.partition(" = ")
        if key == parameter:
            value = float(raw)
    grid = sorted({0.5 * value, value, 2.0 * value}) if math.isfinite(value) else [1.0, 2.0, 3.0]
    spec = work / "spec.sweep"
    spec.write_text(
        f"[sweep]\nparameter = {parameter}\ngrid = {' '.join(map(repr, grid))}\noutputs = a_star v_x0\n"
    )
    calls = (
        ["solve", "--config", str(config)],
        ["sweep", "--config", str(config), "--sweep", str(spec), "--out", str(work / "out.csv")],
        ["opt-tau", "--config", str(config), "--tau-cap", "2"],
        ["simulate", "--config", str(simulated), "--paths", "200"],
    )
    for argv in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(argv)
        reported = {cli.EXIT_OK, cli.EXIT_MISMATCH} if argv[0] == "simulate" else {cli.EXIT_OK}
        assert code in CONTRACT_CODES | reported, (argv[0], code)
        assert not caught, (argv[0], [str(w.message) for w in caught])
        if code in reported:
            assert err == "", (argv[0], code, err)
        else:
            assert out == "", (argv[0], code, out)
        if code in FAMILY_PREFIXES:
            assert err.startswith(FAMILY_PREFIXES[code]), (argv[0], code, err)
        if code == cli.EXIT_ASSUMPTION:
            message = err.removeprefix(FAMILY_PREFIXES[code]).removesuffix("\n")
            if argv[0] == "sweep":
                message = GRID_POINT.sub("", message, count=1)
            assert PARAMETER_MESSAGES.fullmatch(message), (argv[0], err)
