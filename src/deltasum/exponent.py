"""Exact-rational min-max optimization of the subconvexity exponent.

The bound under study is a maximum of six terms M**(const + a*xP + b*xL +
c*theta) subject to linear constraints on (xP, xL, theta); minimizing the
worst exponent is a four-variable linear program over exact rationals.
Two independent solvers are provided and compared: vertex enumeration of
the epigraph polytope, and the staged pairwise elimination that equates
terms in a fixed order.  Strict inequalities among the constraints are
optimized over their closure; the returned optimum is checked against the
strict versions afterwards.

Vertex enumeration stays in integers: each row is scaled by the lcm of its
denominators, each square system is solved by fraction-free (Bareiss)
elimination over its determinant, and feasibility and the objective are
compared as integer numerators over that determinant.  Only the optimum
is converted to `Fraction`.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import Infeasible, InfeasiblePoint, InvalidValue, ShapeMismatch, Unbounded

VARS = ("xP", "xL", "th")


@dataclass(frozen=True)
class ExponentForm:
    """The exponent const + cP*xP + cL*xL + cT*theta of one bound term."""

    constant: Fraction
    coeff_xP: Fraction
    coeff_xL: Fraction
    coeff_theta: Fraction

    def __call__(self, point):
        xP, xL, th = point
        return self.constant + self.coeff_xP * xP + self.coeff_xL * xL + self.coeff_theta * th

    def coeffs(self):
        return (self.coeff_xP, self.coeff_xL, self.coeff_theta)


@dataclass(frozen=True)
class Constraint:
    """a*xP + b*xL + c*theta <= bound."""

    a: Fraction
    b: Fraction
    c: Fraction
    bound: Fraction

    def satisfied(self, point, strict=False):
        xP, xL, th = point
        lhs = self.a * xP + self.b * xL + self.c * th
        return lhs < self.bound if strict else lhs <= self.bound


def form(constant, cP=0, cL=0, cT=0):
    return ExponentForm(Fraction(constant), Fraction(cP), Fraction(cL), Fraction(cT))


def constraint(a, b, c, bound):
    return Constraint(Fraction(a), Fraction(b), Fraction(c), Fraction(bound))


@dataclass(frozen=True)
class BoundProblem:
    forms: tuple
    constraints: tuple

    def feasible(self, point, strict=False):
        return all(con.satisfied(point, strict) for con in self.constraints)

    def check_feasibility(self):
        """Find some feasible point by constraint-vertex probing."""
        rows = _integer_rows((con.a, con.b, con.c, con.bound) for con in self.constraints)
        for combo in itertools.combinations(rows, 3):
            sol = _solve_square(combo)
            if sol is not None and _satisfies(rows, *sol):
                nums, det = sol
                return tuple(Fraction(v, det) for v in nums)
        origin = (Fraction(0), Fraction(0), Fraction(0))
        if self.feasible(origin):
            return origin
        raise Infeasible("no feasible point found for the constraint system")


def paper_bound_problem(include_growth_constraint=True):
    """The built-in six-term bound problem and its constraints.

    Terms (exponents of M, with N pinned at exponent 3/2):
      T1 = 1/2 + 9t + xP/2          T4 = 3/4 + 3t/2 + xL - xP
      T2 = 5/8 + 17t/4 + xP/4 + xL/4   T5 = 1 + t - xP
      T3 = 1/2 + 7t + xP - xL/2     T6 = 3/4 - t/2
    Constraints: xL <= xP, t <= 1/2, 2t <= xL, xL <= 1/2, 0 <= t, and
    (optionally) the growth condition 4t + xL <= xP.
    """
    forms = (
        form(Fraction(1, 2), Fraction(1, 2), 0, 9),
        form(Fraction(5, 8), Fraction(1, 4), Fraction(1, 4), Fraction(17, 4)),
        form(Fraction(1, 2), 1, Fraction(-1, 2), 7),
        form(Fraction(3, 4), -1, 1, Fraction(3, 2)),
        form(1, -1, 0, 1),
        form(Fraction(3, 4), 0, 0, Fraction(-1, 2)),
    )
    cons = [
        constraint(-1, 1, 0, 0),             # xL <= xP
        constraint(0, 0, 1, Fraction(1, 2)),  # theta <= 1/2
        constraint(0, -1, 2, 0),             # 2 theta <= xL
        constraint(0, 1, 0, Fraction(1, 2)),  # xL <= 1/2
        constraint(0, 0, -1, 0),             # theta >= 0
    ]
    if include_growth_constraint:
        cons.append(constraint(-1, 1, 4, 0))  # 4 theta + xL <= xP
    return BoundProblem(forms, tuple(cons))


@dataclass(frozen=True)
class OptimizationResult:
    point: tuple
    value: Fraction
    active_terms: tuple


def _integer_rows(rows):
    """Each row of exact rationals scaled by the lcm of its denominators."""
    out = []
    for row in rows:
        row = [Fraction(v) for v in row]
        scale = math.lcm(*(v.denominator for v in row))
        out.append([v.numerator * (scale // v.denominator) for v in row])
    return out


def _solve_square(rows):
    """Solve a square integer system given as [A | b] rows, or None if singular.

    Bareiss elimination with row swaps, then back-substitution over the
    common denominator.  Returns (nums, det) with det > 0 and the solution
    x[i] = nums[i] / det; every division is exact.
    """
    n = len(rows)
    m = list(rows)  # rows are replaced, never changed in place
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        top = m[col]
        p = top[col]
        for r in range(col + 1, n):
            row = m[r]
            f = row[col]
            m[r] = [(p * v - f * w) // prev for v, w in zip(row, top)]
        prev = p
    det = prev
    nums = [0] * n
    for r in range(n - 1, -1, -1):
        row = m[r]
        acc = det * row[n] - sum(row[j] * nums[j] for j in range(r + 1, n))
        nums[r] = acc // row[r]
    if det < 0:
        det, nums = -det, [-v for v in nums]
    return nums, det


def _satisfies(rows, nums, det):
    """Every integer row a.x <= b holds at x = nums / det (det > 0)."""
    return all(sum(a * v for a, v in zip(row, nums)) <= row[-1] * det for row in rows)


def evaluate_bound(prob, point):
    """Max of all forms at a feasible point."""
    point = tuple(Fraction(v) for v in point)
    if not prob.feasible(point):
        raise InfeasiblePoint(f"{point} violates the constraints")
    return max(f(point) for f in prob.forms)


def minimize_max(prob):
    """Exact LP min of max(forms) by vertex enumeration of the epigraph.

    Rows of the epigraph polytope in variables (xP, xL, theta, t):
    each form gives coeffs.(xP,xL,th) - t <= -const, each constraint
    enters with a zero t-coefficient.  Every choice of four rows meeting
    in a point is solved exactly; the optimum is the best feasible vertex.
    """
    rows = [(*f.coeffs(), -1, -f.constant) for f in prob.forms]
    rows += [(con.a, con.b, con.c, 0, con.bound) for con in prob.constraints]
    if not any(r[3] != 0 for r in rows):
        raise Unbounded("no objective rows")
    rows = _integer_rows(rows)

    best = None  # (nums, det) of the first vertex with the least t = nums[3] / det
    for combo in itertools.combinations(rows, 4):
        sol = _solve_square(combo)
        if sol is None:
            continue
        nums, det = sol
        if best is not None and nums[3] * best[1] >= best[0][3] * det:
            continue
        if _satisfies(rows, nums, det):
            best = sol
    if best is None:
        prob.check_feasibility()  # raises Infeasible when the constraints are empty
        raise Unbounded("the epigraph has no feasible vertex")
    nums, det = best
    point = tuple(Fraction(v, det) for v in nums[:3])
    value = Fraction(nums[3], det)
    active = tuple(i for i, f in enumerate(prob.forms) if f(point) == value)
    return OptimizationResult(point, value, active)


def _solve_linear_forms(f, g, var_index):
    """Solve f(x) = g(x) for variable var_index as a linear form in the rest."""
    fc = (f.coeff_xP, f.coeff_xL, f.coeff_theta)
    gc = (g.coeff_xP, g.coeff_xL, g.coeff_theta)
    denom = fc[var_index] - gc[var_index]
    if denom == 0:
        raise ShapeMismatch("cannot equate the two terms in the requested variable")
    const = (g.constant - f.constant) / denom
    coeffs = [(gc[i] - fc[i]) / denom if i != var_index else Fraction(0) for i in range(3)]
    return const, coeffs


def _substitute(f, var_index, const, coeffs):
    fc = [f.coeff_xP, f.coeff_xL, f.coeff_theta]
    mult = fc[var_index]
    new_const = f.constant + mult * const
    new_coeffs = [fc[i] + mult * coeffs[i] if i != var_index else Fraction(0) for i in range(3)]
    return ExponentForm(new_const, new_coeffs[0], new_coeffs[1], new_coeffs[2])


def staged_elimination(prob, return_trace=False):
    """The pairwise elimination route to the optimum.

    On the six-term problem: equate T2 = T3 and solve for xL, substitute;
    equate the result with T5 and solve for xP, substitute; equate with
    T6 and solve for theta; back-substitute.  Returns the same point as
    minimize_max (the final result is checked for feasibility and for
    agreement of the achieved maximum).
    """
    if len(prob.forms) != 6:
        raise ShapeMismatch("staged elimination expects the six-term problem")
    t2, t3, t5, t6 = prob.forms[1], prob.forms[2], prob.forms[4], prob.forms[5]
    xl_const, xl_coeffs = _solve_linear_forms(t2, t3, 1)
    mid = _substitute(t2, 1, xl_const, xl_coeffs)
    xp_const, xp_coeffs = _solve_linear_forms(mid, _substitute(t5, 1, xl_const, xl_coeffs), 0)
    if xp_coeffs[1] != 0:
        raise ShapeMismatch("xP elimination left a dangling xL dependence")
    final = _substitute(mid, 0, xp_const, xp_coeffs)
    final6 = _substitute(_substitute(t6, 1, xl_const, xl_coeffs), 0, xp_const, xp_coeffs)
    denom = final.coeff_theta - final6.coeff_theta
    if denom == 0:
        raise ShapeMismatch("theta elimination degenerated")
    theta = (final6.constant - final.constant) / denom
    xP = xp_const + xp_coeffs[2] * theta
    xL = xl_const + xl_coeffs[0] * xP + xl_coeffs[2] * theta
    point = (xP, xL, theta)
    value = evaluate_bound(prob, point)
    active = tuple(i for i, f in enumerate(prob.forms) if f(point) == value)
    result = OptimizationResult(point, value, active)
    if not return_trace:
        return result
    trace = {
        "xL_of_xP_theta": (xl_const, xl_coeffs[0], xl_coeffs[2]),
        "intermediate_form": mid,
        "xP_of_theta": (xp_const, xp_coeffs[2]),
        "theta": theta,
    }
    return result, trace


_RATIONAL = r"[+-]?\d+(?:/\d+)?"
_TERM_RE = re.compile(rf"^({_RATIONAL})(?:\*(xP|xL|th))?$")


def _rational(text, line_no):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidValue(f"line {line_no}: {text!r} is not a rational number") from None


def _parse_linear(text, line_no):
    """Parse 'c + p*xP + l*xL + t*th' into (const, {var: coeff})."""
    normalized = text.replace(" ", "").replace("\t", "")
    normalized = normalized.replace("-", "+-")
    if normalized.startswith("+-"):
        normalized = normalized[1:]
    const = Fraction(0)
    coeffs = {v: Fraction(0) for v in VARS}
    for chunk in normalized.split("+"):
        if not chunk:
            continue
        got = _TERM_RE.match(chunk)
        if not got:
            raise InvalidValue(f"line {line_no}: cannot parse term {chunk!r}")
        value = _rational(got.group(1), line_no)
        var = got.group(2)
        if var is None:
            const += value
        else:
            coeffs[var] += value
    return const, coeffs


def parse_problem_file(text):
    """Problem description: 'form:' and 'st:' lines over exact rationals.

    form: c + p*xP + l*xL + t*th
    st:   a*xP + b*xL + c*th <= d
    """
    forms = []
    cons = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("form:"):
            const, coeffs = _parse_linear(line[len("form:"):], line_no)
            forms.append(ExponentForm(const, coeffs["xP"], coeffs["xL"], coeffs["th"]))
        elif line.startswith("st:"):
            body = line[len("st:"):]
            if "<=" not in body:
                raise InvalidValue(f"line {line_no}: constraint needs '<='")
            lhs, rhs = body.split("<=", 1)
            const, coeffs = _parse_linear(lhs, line_no)
            bound = _rational(rhs.replace(" ", ""), line_no) - const
            cons.append(Constraint(coeffs["xP"], coeffs["xL"], coeffs["th"], bound))
        else:
            raise InvalidValue(f"line {line_no}: expected 'form:' or 'st:'")
    if not forms:
        raise InvalidValue("problem file defines no forms")
    prob = BoundProblem(tuple(forms), tuple(cons))
    prob.check_feasibility()
    return prob
