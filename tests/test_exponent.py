import itertools
import math
import time
from fractions import Fraction

import pytest

from deltasum import exponent
from deltasum.cli import main
from deltasum.errors import (
    BudgetExceeded,
    Infeasible,
    InfeasiblePoint,
    OutOfRange,
    ShapeMismatch,
    Unbounded,
)
from deltasum.exponent import (
    MAX_CANDIDATES,
    BoundProblem,
    OptimizationResult,
    _integer_rows,
    _solve_square,
    constraint,
    evaluate_bound,
    form,
    minimize_max,
    paper_bound_problem,
    parse_problem_file,
    staged_elimination,
)
from deltasum.scan import Lcg

try:
    from hypothesis import Phase, given, settings
    from hypothesis import strategies as st
except ImportError:  # a test extra: without it only the drawn-problem oracles skip
    st = None

OPT_POINT = (Fraction(20, 77), Fraction(9, 77), Fraction(1, 154))
OPT_VALUE = Fraction(115, 154)


def test_form_evaluations():
    prob = paper_bound_problem()
    t5, t6 = prob.forms[4], prob.forms[5]
    anywhere = (Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))
    assert t6(anywhere) == Fraction(3, 4) - Fraction(1, 14)
    assert t5((Fraction(20, 77), Fraction(0), Fraction(1, 154))) == Fraction(115, 154)
    # T5 at the optimum: 1 + 1/154 - 20/77 = 115/154
    assert Fraction(1) + Fraction(1, 154) - Fraction(20, 77) == Fraction(115, 154)


def test_optimum_point_is_feasible():
    prob = paper_bound_problem()
    assert prob.feasible(OPT_POINT)
    # strict versions of the strict paper constraints hold too
    assert OPT_POINT[1] < OPT_POINT[0]
    assert OPT_POINT[2] < Fraction(1, 2)
    assert OPT_POINT[1] < Fraction(1, 2)


def test_minimize_max_reproduces_the_optimum():
    result = minimize_max(paper_bound_problem())
    assert result.value == OPT_VALUE
    assert result.point == OPT_POINT
    assert result.point[2] == Fraction(1, 154)
    assert result.value == Fraction(3, 4) - Fraction(1, 308)
    assert set(result.active_terms) == {1, 2, 4, 5}


def test_staged_elimination_trace():
    result, trace = staged_elimination(paper_bound_problem(), return_trace=True)
    const, coeff_xp, coeff_theta = trace["xL_of_xP_theta"]
    assert (const, coeff_xp, coeff_theta) == (Fraction(-1, 6), Fraction(1), Fraction(11, 3))
    mid = trace["intermediate_form"]
    assert mid.constant == Fraction(7, 12)
    assert mid.coeff_theta == Fraction(31, 6)
    assert mid.coeff_xP == Fraction(1, 2)
    assert mid.coeff_xL == 0
    xp_const, xp_theta = trace["xP_of_theta"]
    assert (xp_const, xp_theta) == (Fraction(5, 18), Fraction(-25, 9))
    assert trace["theta"] == Fraction(1, 154)
    # 13/18 + 34 theta/9 = 3/4 - theta/2  at theta = 1/154
    theta = trace["theta"]
    assert Fraction(13, 18) + Fraction(34, 9) * theta == Fraction(3, 4) - theta / 2


def test_staged_equals_lp_bitwise():
    lp = minimize_max(paper_bound_problem())
    staged = staged_elimination(paper_bound_problem())
    assert staged.point == lp.point
    assert staged.value == lp.value
    assert staged.active_terms == lp.active_terms


def test_unconstrained_growth_still_satisfied():
    free = minimize_max(paper_bound_problem(include_growth_constraint=False))
    constrained = minimize_max(paper_bound_problem())
    assert free.point == constrained.point
    xP, xL, theta = free.point
    assert 4 * theta + xL <= xP


def test_evaluate_bound():
    prob = paper_bound_problem()
    assert evaluate_bound(prob, OPT_POINT) == OPT_VALUE
    val = evaluate_bound(prob, (Fraction(1, 4), Fraction(1, 8), Fraction(0)))
    direct = max(f((Fraction(1, 4), Fraction(1, 8), Fraction(0))) for f in prob.forms)
    assert val == direct
    with pytest.raises(InfeasiblePoint):
        evaluate_bound(prob, (Fraction(0), Fraction(1), Fraction(0)))


def test_random_feasible_points_never_beat_optimum():
    prob = paper_bound_problem()
    rng = Lcg(53)
    checked = 0
    while checked < 1000:
        theta = Fraction(rng.below(200), 1600)          # [0, 1/8)
        xL = 2 * theta + Fraction(rng.below(100), 300)  # >= 2 theta
        xP = 4 * theta + xL + Fraction(1 + rng.below(100), 200)
        point = (xP, xL, theta)
        if not prob.feasible(point):
            continue
        assert evaluate_bound(prob, point) >= OPT_VALUE
        checked += 1


def test_perturbation_never_decreases_value():
    base = paper_bound_problem()
    for i in range(len(base.forms)):
        bumped = list(base.forms)
        f = bumped[i]
        bumped[i] = form(f.constant + Fraction(1, 1000), f.coeff_xP, f.coeff_xL,
                         f.coeff_theta)
        result = minimize_max(BoundProblem(tuple(bumped), base.constraints))
        assert result.value >= OPT_VALUE


def test_staged_requires_six_forms():
    prob = paper_bound_problem()
    with pytest.raises(ShapeMismatch):
        staged_elimination(BoundProblem(prob.forms[:4], prob.constraints))


def test_infeasible_problem_raises():
    from deltasum.errors import Infeasible
    from deltasum.exponent import constraint

    prob = BoundProblem(
        paper_bound_problem().forms,
        (constraint(1, 0, 0, -1), constraint(-1, 0, 0, -1)),  # xP <= -1 and xP >= 1
    )
    with pytest.raises(Infeasible):
        minimize_max(prob)


PROBLEM_TEXT = """
# the built-in six-term problem in the file grammar
form: 1/2 + 1/2*xP + 0*xL + 9*th
form: 5/8 + 1/4*xP + 1/4*xL + 17/4*th
form: 1/2 + 1*xP - 1/2*xL + 7*th
form: 3/4 - 1*xP + 1*xL + 3/2*th
form: 1 - 1*xP + 0*xL + 1*th
form: 3/4 + 0*xP + 0*xL - 1/2*th
st: -1*xP + 1*xL + 0*th <= 0
st: 0*xP + 0*xL + 1*th <= 1/2
st: 0*xP + -1*xL + 2*th <= 0
st: 0*xP + 1*xL + 0*th <= 1/2
st: 0*xP + 0*xL + -1*th <= 0
st: -1*xP + 1*xL + 4*th <= 0
"""


def test_parse_problem_file_round_trip():
    prob = parse_problem_file(PROBLEM_TEXT)
    assert len(prob.forms) == 6
    assert len(prob.constraints) == 6
    result = minimize_max(prob)
    assert result.value == OPT_VALUE
    assert result.point == OPT_POINT
    staged = staged_elimination(prob)
    assert staged.point == result.point


def test_parse_problem_file_errors():
    with pytest.raises(OutOfRange):
        parse_problem_file("nonsense: 1")
    with pytest.raises(OutOfRange):
        parse_problem_file("form: 1/2 + bogus")
    with pytest.raises(OutOfRange):
        parse_problem_file("st: 1*xP = 2")
    with pytest.raises(OutOfRange):
        parse_problem_file("")


# The Fraction route that integer vertex enumeration replaced, kept as its oracle.

def fraction_solve_square(rows):
    """Solve a square exact linear system given as [A | b] rows, or None."""
    n = len(rows)
    m = [[Fraction(v) for v in row] for row in rows]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [v - factor * w for v, w in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def fraction_pins(rows):
    """x_j <= 0 and -x_j <= 0 for each column j of (xP, xL, theta) that does
    not raise the rank of the columns before it."""
    def rank(cols):
        m = [[Fraction(row[j]) for j in cols] for row in rows]
        found = 0
        for col in range(len(cols)):
            pivot = next((i for i in range(found, len(m)) if m[i][col] != 0), None)
            if pivot is not None:
                m[found], m[pivot] = m[pivot], m[found]
                for i in range(found + 1, len(m)):
                    factor = m[i][col] / m[found][col]
                    m[i] = [v - factor * w for v, w in zip(m[i], m[found])]
                found += 1
        return found

    pins = []
    for j in range(3):
        if rank(range(j + 1)) == rank(range(j)):
            unit = [Fraction(int(i == j)) for i in range(3)]
            pins += [unit, [-v for v in unit]]
    return pins


def fraction_check_feasibility(prob):
    rows = [[c.a, c.b, c.c, c.bound] for c in prob.constraints]
    rows += [[*pin, 0] for pin in fraction_pins(rows)]
    for combo in itertools.combinations(rows, 3):
        point = fraction_solve_square(combo)
        if point is not None and all(a * point[0] + b * point[1] + c * point[2] <= bound
                                     for (a, b, c, bound) in rows):
            return tuple(point)
    raise Infeasible("no feasible point found for the constraint system")


def fraction_minimize_max(prob):
    rows = []
    for f in prob.forms:
        cP, cL, cT = f.coeffs()
        rows.append((cP, cL, cT, Fraction(-1), -f.constant))
    for con in prob.constraints:
        rows.append((con.a, con.b, con.c, Fraction(0), con.bound))
    if not any(r[3] != 0 for r in rows):
        raise Unbounded("no objective rows")
    rows += [(*pin, 0, 0) for pin in fraction_pins(rows)]

    def feasible_vertex(values):
        return all(a * values[0] + b * values[1] + c * values[2] + d * values[3] <= bound
                   for (a, b, c, d, bound) in rows)

    best = None
    for combo in itertools.combinations(range(len(rows)), 4):
        system = [[rows[i][0], rows[i][1], rows[i][2], rows[i][3], rows[i][4]] for i in combo]
        sol = fraction_solve_square(system)
        if sol is None:
            continue
        if not feasible_vertex(sol):
            continue
        if best is None or sol[3] < best[3]:
            best = sol
    if best is None:
        fraction_check_feasibility(prob)
        raise Unbounded("the epigraph has no feasible vertex")
    # Unbounded iff some ray r (row.r <= 0 for every row) has r[3] < 0; the
    # rows are pointed, so one with three rows tight and r[3] = -1 exists then.
    for combo in itertools.combinations(rows, 3):
        ray = fraction_solve_square([(*row[:4], 0) for row in combo] + [(0, 0, 0, 1, -1)])
        if ray is not None and all(sum(a * v for a, v in zip(row, ray)) <= 0 for row in rows):
            raise Unbounded("the max of the forms decreases without bound")
    point = (best[0], best[1], best[2])
    value = best[3]
    active = tuple(i for i, f in enumerate(prob.forms) if f(point) == value)
    return OptimizationResult(point, value, active)


def integer_solution(system):
    """_solve_square on the integer-scaled rows, as Fractions (None if singular)."""
    sol = _solve_square(_integer_rows(system))
    return None if sol is None else [Fraction(v, sol[1]) for v in sol[0]]


def epigraph_rows(prob):
    return ([(*f.coeffs(), -1, -f.constant) for f in prob.forms]
            + [(con.a, con.b, con.c, 0, con.bound) for con in prob.constraints])


def outcome(solve, prob):
    """The solver's result, or the class of the Infeasible/Unbounded it raised."""
    try:
        return solve(prob)
    except (Infeasible, Unbounded) as exc:
        return type(exc)


@pytest.mark.parametrize("growth, combos", [(True, 495), (False, 330)])
def test_integer_solves_equal_fraction_solves_on_every_paper_combination(growth, combos):
    prob = paper_bound_problem(include_growth_constraint=growth)
    systems = list(itertools.combinations(epigraph_rows(prob), 4))
    systems += itertools.combinations([(c.a, c.b, c.c, c.bound) for c in prob.constraints], 3)
    assert len(systems) == combos + (20 if growth else 10)
    expected = [fraction_solve_square(system) for system in systems]
    assert [integer_solution(system) for system in systems] == expected
    assert 0 < expected.count(None) < len(systems)  # both singular and regular systems


def _bumped(i):
    base = paper_bound_problem()
    bumped = list(base.forms)
    f = bumped[i]
    bumped[i] = form(f.constant + Fraction(1, 1000), f.coeff_xP, f.coeff_xL, f.coeff_theta)
    return BoundProblem(tuple(bumped), base.constraints)


# max(forms) = 0 on the whole unit box: all eight corners tie, and the first one wins
FLAT_BOX = BoundProblem((form(0),), tuple(constraint(*row) for row in (
    (1, 0, 0, 1), (-1, 0, 0, 0), (0, 1, 0, 1), (0, -1, 0, 0), (0, 0, 1, 1), (0, 0, -1, 0))))

ORACLE_PROBLEMS = ([paper_bound_problem(), paper_bound_problem(include_growth_constraint=False),
                    parse_problem_file(PROBLEM_TEXT), FLAT_BOX]
                   + [_bumped(i) for i in range(6)])


@pytest.mark.parametrize("prob", ORACLE_PROBLEMS)
def test_integer_lp_equals_fraction_oracle(prob):
    assert minimize_max(prob) == fraction_minimize_max(prob)
    assert prob.check_feasibility() == fraction_check_feasibility(prob)


# Problems without a vertex: xL is free in the first, xL and theta in the
# second and third.  The third decreases without bound as xP -> -infinity.
FREE_XL = BoundProblem((form(0, 0, 1), form(0, 0, -1)), tuple(constraint(*row) for row in (
    (1, 0, 0, -1), (-1, 0, 0, 3), (0, 0, 1, 1), (0, 0, -1, 1))))
FREE_XL_THETA = BoundProblem((form(1, 1), form(1, -1)), ())
DESCENDING = BoundProblem((form(0, 1),), (constraint(1, 0, 0, -1),))


def test_infeasible_and_unbounded_match_the_oracle():
    paper = paper_bound_problem()
    infeasible = BoundProblem(paper.forms, (constraint(1, 0, 0, -1), constraint(-1, 0, 0, -1)))
    unbounded = BoundProblem((form(0, 1), form(0, 2), form(1, 1)), ())
    for prob, want in ((infeasible, Infeasible), (unbounded, Unbounded), (DESCENDING, Unbounded),
                       (FREE_XL, OptimizationResult((-1, 0, 1), 0, (0, 1))),
                       (FREE_XL_THETA, OptimizationResult((0, 0, 0), 1, (0, 1)))):
        assert outcome(minimize_max, prob) == outcome(fraction_minimize_max, prob) == want
    for prob in (FREE_XL, FREE_XL_THETA, DESCENDING):
        assert prob.check_feasibility() == fraction_check_feasibility(prob)


@pytest.mark.parametrize("text, code, output", [
    ("form: 1*xL\nform: -1*xL\nst: 1*xP <= -1\nst: -1*xP <= 3\nst: 1*th <= 1\n"
     "st: -1*th <= 1\n", 0, "theta = 1\nexponent = 0\nxP = -1\nxL = 0\n"),
    ("form: 1 + 1*xP\nform: 1 - 1*xP\n", 0, "theta = 0\nexponent = 1\nxP = 0\nxL = 0\n"),
    ("form: 1*xP\nst: 1*xP <= -1\n", 2, "error: the max of the forms decreases without bound\n"),
], ids=["free-xL", "free-xL-theta", "descending"])
def test_optimize_problem_without_a_vertex(capsys, tmp_path, text, code, output):
    path = tmp_path / "free.prob"
    path.write_text(text)
    assert main(["optimize", "--problem", str(path), "--exact", "--no-cache"]) == code
    captured = capsys.readouterr()
    assert (captured.out if code == 0 else captured.err) == output


# The enumeration bound: at most MAX_CANDIDATES square systems, counted
# before the first solve.

class _Solved(Exception):
    """Raised in place of the first solve: the bound let the problem through."""


def _no_solve(monkeypatch):
    def first_solve(_):
        raise _Solved
    monkeypatch.setattr(exponent, "_solve_square", first_solve)


def _rows(count):
    """count rows (a, b, c, d) whose first three columns have rank 3, so no
    variable is pinned and the rows are all the candidates."""
    return [(i % 5 - 2, i % 3 - 1, i % 7 - 3, Fraction(i, 97)) for i in range(count)]


@pytest.mark.parametrize("count, solved", [(40, True), (41, False)])
def test_minimize_max_bounds_its_candidates_before_any_solve(monkeypatch, count, solved):
    assert (math.comb(count, 4) <= MAX_CANDIDATES) == solved
    _no_solve(monkeypatch)
    prob = BoundProblem(tuple(form(d, a, b, c) for a, b, c, d in _rows(count)), ())
    with pytest.raises(_Solved if solved else BudgetExceeded):
        minimize_max(prob)


@pytest.mark.parametrize("count, solved", [(85, True), (86, False)])  # C(85, 3) = 98,770
def test_check_feasibility_bounds_its_candidates_before_any_solve(monkeypatch, count, solved):
    _no_solve(monkeypatch)
    prob = BoundProblem((form(0),), tuple(constraint(*row) for row in _rows(count)))
    with pytest.raises(_Solved if solved else BudgetExceeded):
        prob.check_feasibility()


def test_optimize_problem_above_the_bound_exits_3(capsys, tmp_path):
    # 35 forms and the paper's six constraints: C(41, 4) = 101,270 systems
    path = tmp_path / "large.prob"
    forms = [f"form: {d} + {a}*xP + {b}*xL + {c}*th" for a, b, c, d in _rows(35)]
    constraints = [line for line in PROBLEM_TEXT.splitlines() if line.startswith("st:")]
    path.write_text("\n".join(forms + constraints) + "\n")
    start = time.perf_counter()
    assert main(["optimize", "--problem", str(path), "--no-cache"]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: 41 rows give 101270 candidate vertices, above the bound of 100000\n")


if st is not None:
    small_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
    quadruples = st.tuples(small_rationals, small_rationals, small_rationals, small_rationals)
    # No shrink phase: shrinking a failure runs every candidate through the slow
    # Fraction oracle and takes minutes; the failing example is reported unshrunk.
    NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)

    @settings(max_examples=60, deadline=None, phases=NO_SHRINK)
    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(small_rationals, min_size=n + 1, max_size=n + 1), min_size=n, max_size=n)))
    def test_integer_solve_matches_fraction_solve_on_drawn_systems(system):
        assert integer_solution(system) == fraction_solve_square(system)

    @settings(max_examples=20, deadline=None, phases=NO_SHRINK)  # the oracle is the slow part
    @given(st.lists(quadruples, min_size=3, max_size=8), st.lists(quadruples, max_size=6))
    def test_integer_lp_matches_fraction_oracle_on_drawn_problems(forms, cons):
        prob = BoundProblem(tuple(form(*f) for f in forms),
                            tuple(constraint(*c) for c in cons))
        assert outcome(minimize_max, prob) == outcome(fraction_minimize_max, prob)
        assert (outcome(BoundProblem.check_feasibility, prob)
                == outcome(fraction_check_feasibility, prob))


EXACT_LINES = "theta = 1/154\nexponent = 115/154\nxP = 20/77\nxL = 9/77\n"
FLOAT_LINES = ("theta = 0.006493506493506494\nexponent = 0.7467532467532467\n"
               "xP = 0.2597402597402597\nxL = 0.11688311688311688\n")
EXACT_JSON = ('{"theta": "1/154", "exponent": "115/154", "xP": "20/77", "xL": "9/77", '
              '"active_terms": [1, 2, 4, 5]')
FLOAT_JSON = ', "theta_float": 0.006493506493506494, "exponent_float": 0.7467532467532467}\n'
OPTIMIZE_PAPER_STDOUT = {
    ("--exact",): EXACT_LINES,
    ("--staged", "--exact"): EXACT_LINES,
    ("--exact", "--json"): EXACT_JSON + "}\n",
    ("--staged", "--exact", "--json"): EXACT_JSON + "}\n",
    (): FLOAT_LINES,
    ("--staged",): FLOAT_LINES,
    ("--json",): EXACT_JSON + FLOAT_JSON,
    ("--staged", "--json"): EXACT_JSON + FLOAT_JSON,
}


@pytest.mark.parametrize("flags", sorted(OPTIMIZE_PAPER_STDOUT))
def test_optimize_paper_stdout_pinned(capsys, flags):
    assert main(["optimize", "--paper", "--no-cache", *flags]) == 0
    assert capsys.readouterr().out == OPTIMIZE_PAPER_STDOUT[flags]
