"""Every run of the six commands ends in exit 0, 1 or 2: bad input exits 2
and writes nothing, every other run writes a strict-JSON report, and no
exception escapes ``main``.

The configs of ``integrate``, ``equilibrium`` and ``involutive`` draw group
presets and specs, every coefficient form, wrong types and magnitudes from
subnormal to 1e308.  Coordinates stay at 0, near 1 or at +-1e308, and scales
skip the range between 100 and 1e300: a field there that oscillates, or a
state near 1e10 whose rounding makes the field jump, takes more steps than a
test can wait for.  ``check-group`` and ``check-gauge`` draw their flags and a
group spec from a fixed list, and ``counterexample`` small ladders."""

import json
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import example, given, settings

from horoflow.cli import main

KINDS = {"non_finite_rhs", "non_finite_state", "step_underflow", "monitor_violation",
         "non_finite_value"}

WRONG = st.sampled_from([None, "1", True, [], {}, [1.0], {"a": 1}])
SCALES = st.sampled_from([0.0, 1.0, -1.0, 0.5, -2.5, 10.0, 100.0, 1e-10, 1e-300, 5e-324,
                          1e300, 1e308, -1e308])
COORDINATES = st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, -0.25, 1e-300, -1e-300, 5e-324,
                               1e308, -1e308])
# group specs, as JSON text with C for a drawn bracket constant: presets, R^2,
# the Heisenberg algebra (the preset when C = 2) and a step-3 algebra, whose
# law holds C^2, so that a large C takes it past the float range
GROUPS = ["null", '"heisenberg"', '{"layers": [2]}',
          '{"layers": [2, 1], "brackets": [{"i": 1, "j": 2, "coeffs": [{"k": 3, "c": C}]}]}',
          '{"layers": [2, 1, 1], "brackets": [{"i": 1, "j": 2, "coeffs": [{"k": 3, "c": C}]}, '
          '{"i": 1, "j": 3, "coeffs": [{"k": 4, "c": C}]}]}']
BAD_GROUPS = ['"engel"', '{"layers": [2.5]}', "7", '{"layers": [2, 0]}']
FORMS = ["constant", "monomial", "distance_to_point", "sin_coordinate"]
AXIS_FORMS = ["axis_distance", "axis_distance_inf"]


@st.composite
def configs(draw):
    """A command and its config as JSON text.  A noisy config puts a wrong
    type or value in about one place in eight."""
    noisy = draw(st.booleans())

    def pick(strategy, wrong=WRONG):
        return draw(wrong if noisy and draw(st.integers(0, 7)) == 0 else strategy)

    def point(dim):
        return pick(st.lists(COORDINATES, min_size=dim, max_size=dim),
                    st.one_of(WRONG, st.lists(COORDINATES, min_size=dim + 1, max_size=dim + 1)))

    def coefficient(dim):
        form = pick(st.sampled_from(FORMS + AXIS_FORMS if heis else FORMS),
                    st.sampled_from(["bogus", *AXIS_FORMS]))
        entry = {"form": form}
        if form == "constant":
            entry["value"] = pick(SCALES)
        elif form == "monomial":
            entry["exponents"] = pick(st.lists(st.integers(0, 3), min_size=dim, max_size=dim),
                                      st.sampled_from([[1.5] * dim, [-1] * dim, [1]]))
            entry["scale"] = pick(SCALES)
        elif form == "distance_to_point":
            entry["point"] = point(dim)
        elif form == "sin_coordinate":
            entry["index"] = pick(st.integers(1, dim), st.sampled_from([0, 1.5, dim + 1]))
            entry["scale"] = pick(SCALES)
        return pick(st.just(entry), st.one_of(WRONG, st.just({**entry, "scael": 1.0})))

    def field(dim, count, indexed):
        """A spec of ``count`` coefficients, over X_1..X_count if ``indexed``
        (else over the first layer, which has ``count`` fields)."""
        spec = {"coefficients": [coefficient(dim) for _ in range(count)]}
        if indexed:
            spec["indices"] = pick(st.just(list(range(1, count + 1))),
                                   st.sampled_from([[0] * count, [1.5] * count, [dim + 1]]))
        return pick(st.just(spec))

    command = draw(st.sampled_from(["integrate", "equilibrium", "involutive"]))
    text = pick(st.sampled_from(GROUPS), st.sampled_from(BAD_GROUPS))
    c = draw(st.sampled_from([2.0, 1.0]) | SCALES)
    dim = {GROUPS[2]: 2, GROUPS[4]: 4}.get(text, 3)
    heis = text in GROUPS[:2] or text == GROUPS[3] and c == 2.0
    cfg = {"group": json.loads(text.replace("C", json.dumps(c))),
           "horizon": pick(st.sampled_from([1.0, 0.5, 2.0, 1e-10, 1e-300, 1e-320, 5e-324]),
                           st.sampled_from([0.0, -1.0, "1", None])),
           "integrator": pick(st.just({
               "dense_output_grid": pick(st.sampled_from([2, 8, 9, 17, 65]),
                                         st.sampled_from([1, 1.5, "9", True])),
               "abs_tol": pick(st.sampled_from([1e-10, 1e-6, 1e-300, 5e-324, 1e308]),
                               st.sampled_from([0.0, -1.0, "x"])),
               "max_step": pick(st.sampled_from([1.0, 0.1, 1e308]),
                                st.sampled_from([0.0, "x"]))}))}
    if command == "involutive":
        # a first-layer vector spans a commuting module; e_1 and e_2 commute
        # only when the group is abelian
        basis = pick(st.sampled_from([[[1.0, 0.0]], [[0.0, 1.0]], [[1.0, -2.5]],
                                      [[1.0, 0.0], [0.0, 1.0]]]),
                     st.sampled_from([[[1.0, 0.0], [2.0, 0.0]], [[0.0, 0.0, 1.0]], [[1.0]]]))
        cfg["basis"] = [b + [0.0] * (dim - len(b)) if len(b) == 2 else b for b in basis]
        cfg["field"] = field(dim, len(basis), indexed=True)
        cfg["x0"] = point(dim)
    elif command == "equilibrium":
        cfg["field"] = field(dim, 2, indexed=False)
        cfg["equilibrium_point"] = point(dim)
        cfg["box"] = pick(st.just({"lo": [-1.0] * dim, "hi": [1.0] * dim}),
                          st.just({"lo": [0.0] * dim, "hi": [1.0] * dim}))
        cfg["initial_points"] = pick(st.just([point(dim) for _ in range(draw(st.integers(1, 3)))]))
        cfg["samples"] = pick(st.sampled_from([1, 10, 50, 20.0]), st.sampled_from([0, 1.5, "10"]))
        cfg["seed"] = pick(st.integers(0, 3))
    else:
        cfg["field"] = field(dim, 2, indexed=draw(st.booleans()))
        cfg["x0"] = point(dim)
        if draw(st.booleans()):
            cfg["domain"] = pick(st.just({"lo": [-2.0] * dim, "hi": [2.0] * dim}))
    return command, json.dumps(cfg)


def linear_growth(start):
    """x1' = 1000 x1 at the origin: its Gronwall bound overflows a float."""
    return json.dumps({"group": "heisenberg",
                       "field": {"coefficients": [{"form": "monomial", "exponents": [1, 0, 0],
                                                   "scale": 1000},
                                                  {"form": "constant", "value": 0.0}]},
                       "equilibrium_point": [0, 0, 0], "box": {"lo": [-1, -1, -1],
                                                               "hi": [1, 1, 1]},
                       "initial_points": [start], "samples": 50,
                       "integrator": {"dense_output_grid": 65}})


def refuse(name):
    raise ValueError(f"report.json holds {name}")


def run_ends_in_an_exit_code_and_a_strict_report(argv, files=()):
    """Run ``main(argv + ["--out", <out>])``, with each ``{name}`` in ``argv``
    the path of a file named ``name`` holding its text from ``files``."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files:
            (Path(tmp) / name).write_text(text)
        out = Path(tmp) / "out"
        code = main([a.format_map({name: str(Path(tmp) / name) for name, _ in files})
                     for a in argv] + ["--out", str(out)])
        assert code in (0, 1, 2)
        if code == 2:
            assert not out.exists()
            return
        report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
        # the exhibit's verdict is its own key; a failure report's is "passed"
        assert report.get("nonuniqueness_certified", report.get("passed")) is (code == 0)
        assert "failure" not in report or report["failure"]["kind"] in KINDS


@settings(max_examples=150)
@given(case=configs())
@example(case=("equilibrium", linear_growth([0.001, 0, 0])))
@example(case=("equilibrium", linear_growth([0, 0, 0])))
def test_every_config_ends_in_an_exit_code_and_a_strict_report(case):
    command, text = case
    run_ends_in_an_exit_code_and_a_strict_report([command, "--config", "{config}"],
                                                 [("config", text)])


def filiform(step):
    """The filiform spec of ``step``: [e1, e_k] = e_(k+1) for k = 2..step."""
    return json.dumps({"layers": [2] + [1] * (step - 1), "brackets": [
        {"i": 1, "j": k, "coeffs": [{"k": k + 1, "c": 1}]} for k in range(2, step + 1)]})


# group spec files: Heisenberg, filiform steps 2-7, abelian, a bracket whose
# products overflow, and specs that are not JSON, not an object or not a graded
# algebra; None passes no --group
GROUP_FILES = [None, '{"layers": [2, 1], "brackets": [{"i": 1, "j": 2, "coeffs": [{"k": 3, '
               '"c": 2}]}]}', *map(filiform, range(2, 8)), '{"layers": [3]}',
               '{"layers": [2, 1], "brackets": [{"i": 1, "j": 2, "coeffs": [{"k": 3, '
               '"c": 1e308}]}]}', *BAD_GROUPS, "{", "[]",
               '{"layers": [2, 1], "brackets": [{"i": 1, "j": 2}]}',
               '{"layers": [2, 1], "brackets": [{"i": 2, "j": 1, "coeffs": [{"k": 1, "c": 1}]}]}']
# a flag value that argparse refuses in about one draw in ten
COUNTS = st.integers(0, 9).flatmap(lambda k: st.sampled_from(["-1", "1.5", "x", "1_0"]) if k == 0
                                   else st.integers(0, 300).map(str))
TAUS = ["0.2", "1", "1e-300", "-1", "0", "1.5", "nan", "inf"]


@settings(max_examples=150)
@given(command=st.sampled_from(["check-group", "check-gauge"]), group=st.sampled_from(GROUP_FILES),
       samples=COUNTS, seed=COUNTS, gauge=st.sampled_from(["koranyi", "smooth"]))
@example(command="check-gauge", group=GROUP_FILES[9], samples="50", seed="0", gauge="smooth")
@example(command="check-group", group=GROUP_FILES[7], samples="300", seed="0", gauge="koranyi")
def test_every_sampled_check_ends_in_an_exit_code_and_a_strict_report(command, group, samples,
                                                                      seed, gauge):
    argv = [command, "--samples", samples, "--seed", seed]
    argv += ["--gauge", gauge] if command == "check-gauge" else []
    argv += [] if group is None else ["--group", "{group}"]
    run_ends_in_an_exit_code_and_a_strict_report(argv, [] if group is None else [("group", group)])


# rungs and tau that LadderSpec accepts in about half of the draws
@settings(max_examples=120)
@given(variant=st.sampled_from(["time", "autonomous"]),
       rungs=st.integers(4, 8) | st.integers(0, 8), grid=st.integers(0, 64),
       tau=st.sampled_from(TAUS[:3]) | st.sampled_from(TAUS))
def test_every_small_ladder_ends_in_an_exit_code_and_a_strict_report(variant, rungs, grid, tau):
    run_ends_in_an_exit_code_and_a_strict_report(
        ["counterexample", "--variant", variant, "--rungs", str(rungs), "--grid", str(grid),
         "--tau", tau])
