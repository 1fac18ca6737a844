"""The explicit stepper and the quadrature shared by every solve in the package.

The adaptive method is the Dormand-Prince 8(5,3) pair of Hairer's DOP853
(Hairer, Norsett & Wanner, *Solving ODEs I*, 2nd ed., sections II.5 and
II.6; ``dop853.f``).  A step makes 12 right-hand-side evaluations: 11 new
stages and f(t + h, y8), which is the next step's first stage (FSAL).  Its
step size is set by the tolerance alone (capped by ``max_step`` and the
horizon).  The horizon is reached by stretching a step within 1 % of it
onto it rather than by a sliver step, as dop853 does, so a last step may
exceed ``max_step`` by up to 1 %.

Error estimate.  Per state entry, with e5 and e3 the 5th- and 3rd-order
embedded estimates divided by the entry's tolerance scale, the error is
h e5^2 / sqrt(e5^2 + 0.01 e3^2), Hairer's combined estimate; the step's
error is the max over every entry, so each system of a batched state meets
the tolerance it would meet alone.  The step controller uses the exponent
-1/8.

Interpolant.  Grid times inside an accepted step, and domain exits, are
read from the pair's 7th-order continuous extension (Hairer's ``contd8``).
It needs 3 more stages, which are evaluated only on steps that fill grid
times or are tested for a domain exit.  Domain exits are located by
bisection on that interpolant.  The step's error estimate does not bound
the interpolant's error between the step ends: on a rotation and on
single epsilon-ladder rungs that error was up to 37 times the estimate.  It
does follow the interpolant's last coefficient r7 (of theta^4 (1-theta)^3,
``dop853_dense``): on those problems it measured 0.0010-0.0016 times the
largest entry of |r7|.  So a step that fills grid times must also meet
``_DENSE_WEIGHT`` |r7| = 0.002 |r7| <= its error budget, entry by entry.
A uniformly tighter tolerance does not do the same job: at each share of
the tolerance tried from 1 down to 0.15, some single rung of the ladder
still read grid states more than its tolerance away from a tight solve.
Rejected steps cost 11 evaluations, or 15 if they fill grid times.

Guard.  Every step attempt, first try or retry, that is shorter than
``min_step`` or no longer moves t (t + h == t) raises
``StepUnderflowError``, as dop853's "step size too small" test does: past
it, y would keep changing at a frozen t, as it does on a finite-time
blow-up.  (dop853 stops at ten units of rounding of t.)  Every right-hand
side value with an inf or NaN entry raises ``NonFiniteRHSError`` at its
stage's time, and a non-finite accepted step end or filled grid state (a
finite slope can overflow) its subclass ``NonFiniteStateError`` at the
step's start.  That test is one dot product with a zero array, and it is
exact: 0 x is NaN exactly when x is inf or NaN and a signed zero otherwise,
so the dot is NaN exactly when some entry is not finite and a zero
otherwise.  It forms no sum of the entries themselves, so finite entries
near the float maximum cannot overflow it.

Local error is budgeted per unit time: a step of length h on a span of
length L may make an error of ``h / L`` times the tolerance, so the defects
of a whole solve add up to the tolerance scale (Shampine 1977, "error per
unit step").  The factor is floored at ``_BUDGET_FLOOR`` = 1 %: steps above
1 % of the span keep the per-unit-time budget, and shorter steps, which the
singular start t = 0 of the epsilon-ladder calls for, meet 1 % of the
tolerance, which stays well above rounding.  Without the floor the budget
shrinks with the step, so steps and budget drive each other down: at the
epsilon-ladder's tolerance of 1e-12 on a span of 0.3, a 5e-9 step would get
a local tolerance of about 2e-20, below the rounding of O(1) states, and an
8th-order pair stalls near t = 2e-8 on the autonomous ladder.  With the
floor the 8th-order pair does not stall.

Every solve takes its settings as one ``IntegratorConfig``, passed whole; the
config holds the only defaults of those settings and the only checks on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Callable, Sequence

import numpy as np

RHS = Callable[[float, np.ndarray], np.ndarray]

# Dormand-Prince 8(5,3) tableau, copied from Hairer's dop853.f.  Stage s is
# y + h A[s, :s] @ k[:s] over the stage slopes k at node C[s].  Stages 1-11
# make the step; row 12 holds the 8th-order weights, so stage 12 is the FSAL
# slope f(t + h, y8); stages 13-15 serve the continuous extension only.
_C = np.array([
    0.0, 0.526001519587677318785587544488e-1, 0.789002279381515978178381316732e-1,
    0.118350341907227396726757197510, 0.281649658092772603273242802490,
    1 / 3, 0.25, 4 / 13, 127 / 195, 0.6, 6 / 7, 1.0, 1.0, 0.1, 0.2, 7 / 9])
_A = np.zeros((16, 16))
for _s, _row in enumerate((
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
), start=1):
    _A[_s, list(_row)] = list(_row.values())
_B8 = _A[12, :12]
_E5 = np.zeros(12)  # 8th-order weights minus the 5th-order ones
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1)
_E3 = _B8.copy()  # 8th-order weights minus the 3rd-order ones (bhh1-3)
_E3[[0, 8, 11]] -= (0.244094488188976377952755905512,
                    0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1)
_STEP_W = np.stack([_B8, _E5, _E3])  # one product gives y8 - y and both estimates
# weights of the four highest terms of the continuous extension (dop853's
# d4*, d5*, d6*, d7*) over all 16 stage slopes
_D = np.zeros((4, 16))
for _i, _row in enumerate((
    (-0.84289382761090128651353491142e1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e1, 0.23846676565120698287728149680e1,
     0.21170345824450282767155149946e1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e2,
     -0.91946323924783554000451984436e1, -0.44360363875948939664310572000e1),
    (0.10427508642579134603413151009e2, 0.24228349177525818288430175319e3,
     0.16520045171727028198505394887e3, -0.37454675472269020279518312152e3,
     -0.22113666853125306036270938578e2, 0.77334326684722638389603898808e1,
     -0.30674084731089398182061213626e2, -0.93321305264302278729567221706e1,
     0.15697238121770843886131091075e2, -0.31139403219565177677282850411e2,
     -0.93529243588444783865713862664e1, 0.35816841486394083752465898540e2),
    (0.19985053242002433820987653617e2, -0.38703730874935176555105901742e3,
     -0.18917813819516756882830838328e3, 0.52780815920542364900561016686e3,
     -0.11573902539959630126141871134e2, 0.68812326946963000169666922661e1,
     -0.10006050966910838403183860980e1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e1, -0.60196695231264120758267380846e2,
     0.84320405506677161018159903784e2, 0.11992291136182789328035130030e2),
    (-0.25693933462703749003312586129e2, -0.15418974869023643374053993627e3,
     -0.23152937917604549567536039109e3, 0.35763911791061412378285349910e3,
     0.93405324183624310003907691704e2, -0.37458323136451633156875139351e2,
     0.10409964950896230045147246184e3, 0.29840293426660503123344363579e2,
     -0.43533456590011143754432175058e2, 0.96324553959188282948394950600e2,
     -0.39177261675615439165231486172e2, -0.14972683625798562581422125276e3),
)):
    _D[_i, [0] + list(range(5, 16))] = _row

_MAX_FACTOR = 5.0
_MIN_FACTOR = 0.2
_SAFETY = 0.9
_STRETCH = 1.01  # a last step within 1 % of the horizon is stretched onto it
_BUDGET_FLOOR = 0.01  # least share of the tolerance one step may spend (module docstring)
_DENSE_WEIGHT = 0.002  # weight of r7 in the interpolant error test (module docstring)
_EXIT_TOL = 1e-10  # width in time of the bracket that locates a domain exit


@dataclass(frozen=True)
class IntegratorConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_step: float = math.inf
    min_step: float = 1e-14
    dense_output_grid: int = 1025  # output grid points of a solve on [0, horizon]

    def __post_init__(self):
        # a bool is an int to Python, but never a tolerance, step or grid size
        for name in ("abs_tol", "rel_tol", "max_step", "min_step"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a number, not {value!r}")
        grid = self.dense_output_grid
        if isinstance(grid, bool) or not isinstance(grid, Integral):
            raise ValueError(f"dense_output_grid must be an integer, not {grid!r}")
        # written so that a NaN fails them
        if not (self.abs_tol > 0 and self.rel_tol >= 0):
            raise ValueError("tolerances must be positive")
        if not self.min_step <= self.max_step:
            raise ValueError("min_step must not exceed max_step")
        if self.dense_output_grid < 2:
            raise ValueError("dense output grid needs at least two points")

    @property
    def gate_tol(self) -> float:
        """The bound of every command's gate on a defect of its solves."""
        return 100.0 * self.abs_tol


class StepUnderflowError(RuntimeError):
    """A step attempt fell below ``min_step`` or no longer moved t."""

    def __init__(self, t: float, message: str | None = None):
        self.time = t
        super().__init__(message or f"step size underflow near t = {t:.12g} "
                                    "(stiffness or a singular right-hand side)")


class NonFiniteRHSError(RuntimeError):
    def __init__(self, t: float, message: str | None = None):
        self.time = t
        super().__init__(message or f"right-hand side produced a non-finite value at t = {t:.12g}")


class NonFiniteStateError(NonFiniteRHSError):
    """An accepted step's end state, or a grid state read from its step, is
    not finite; ``time`` is the step's start."""


@dataclass
class StepStats:
    steps: int = 0
    rejected: int = 0
    rhs_evals: int = 0
    min_step: float = math.inf
    min_step_t: float = math.nan  # start time of the smallest step
    max_step: float = 0.0

    def record(self, h: float, t: float) -> None:
        h = float(h)
        self.steps += 1
        if h < self.min_step:
            self.min_step, self.min_step_t = h, float(t)
        self.max_step = max(self.max_step, h)

    def as_dict(self) -> dict:
        return {
            "steps": self.steps,
            "rejected": self.rejected,
            "rhs_evals": self.rhs_evals,
            "min_step": self.min_step if self.steps else None,
            "min_step_t": self.min_step_t if self.steps else None,
            "max_step": self.max_step if self.steps else None,
        }


@dataclass
class Trajectory:
    """States at the output times, with the stats of the solve that made them."""

    times: np.ndarray
    states: np.ndarray
    stats: StepStats = field(default_factory=StepStats)
    exit_time: float | None = None  # the domain exit, where the solve stopped
    residual: float | None = None  # set by ``flow.integrate``

    @property
    def exited(self) -> bool:
        return self.exit_time is not None

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _checked(f: RHS, t: float, y: np.ndarray, stats: StepStats, slot: np.ndarray,
             zero: np.ndarray) -> None:
    """Store f(t, y) in the stage slope ``slot``; ``zero`` is a zero array of
    its size, for the finiteness test of the module docstring."""
    slot[...] = f(t, y)
    stats.rhs_evals += 1
    if np.vdot(slot, zero) != 0.0:
        raise NonFiniteRHSError(t)


def dop853_dense(y: np.ndarray, y8: np.ndarray, h: float, k: np.ndarray):
    """DOP853 continuous extension on one step of length h from y.

    ``k`` holds the 16 stage slopes: k[12] is the FSAL slope f(t+h, y8) and
    k[13:16] are the extension's own stages.  Returns a function of the step
    fraction theta (a number or a 1-D array) giving the seventh-order state
    at t + theta h, in Hairer's ``contd8`` form: it takes y and y8 at theta =
    0 and 1, with slopes k[0] and k[12] there.
    """
    dy = y8 - y
    r2 = h * k[0] - dy
    r3 = 2.0 * dy - h * (k[12] + k[0])
    r4, r5, r6, r7 = h * (_D @ k.reshape(16, -1)).reshape((4,) + y.shape)

    def at(theta):
        s = np.reshape(theta, np.shape(theta) + (1,) * y.ndim)
        s1 = 1.0 - s
        return y + s * (dy + s1 * (r2 + s * (r3 + s1 * (r4 + s * (r5 + s1 * (r6 + s * r7))))))
    return at


def _exit_solution(grid, states, g, stats, inside, dense, a, b):
    """Truncate at the domain exit, bisected on ``dense(t)`` to ``_EXIT_TOL`` from
    a time a inside the domain and b outside it; grid[:g] were reached inside."""
    while b - a > _EXIT_TOL:
        mid = 0.5 * (a + b)
        if inside(dense(mid)):
            a = mid
        else:
            b = mid
    t_exit = 0.5 * (a + b)
    times = np.append(grid[:g], t_exit)
    out = np.concatenate([states[:g], dense(t_exit)[None]])
    return Trajectory(times, out, stats, exit_time=t_exit)


def solve_to_grid(
    f: RHS,
    grid: Sequence[float],
    y0: Sequence[float],
    cfg: IntegratorConfig = IntegratorConfig(),
    inside: Callable[[np.ndarray], bool] | None = None,
) -> Trajectory:
    """Integrate y' = f(t, y) and return the states at every grid time.

    The state may have any shape; ``f`` receives and returns arrays of that
    shape, and must not keep the array it receives, which the next stage
    overwrites.  A state of shape (m, d) advances m systems together on one step
    sequence whose error norm is the max over every entry, so each system
    meets the tolerance it would meet alone.  ``cfg.dense_output_grid`` is
    not read: the grid is given.

    The steps follow the tolerance, and grid states between step ends come
    from the step's continuous extension.  If ``inside`` is given and the
    solution leaves the region, the returned arrays end at the exit time,
    located within ``_EXIT_TOL`` by bisection on the last step's interpolant.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing with at least two points")
    y = np.array(y0, dtype=float)
    if inside is not None and not inside(y):
        raise ValueError("initial state is outside the domain")

    stats = StepStats()
    states = np.empty((len(grid),) + y.shape)
    states[0] = y
    abs_tol, rel_tol = cfg.abs_tol, cfg.rel_tol
    max_step, min_step = cfg.max_step, cfg.min_step
    t, t_end = float(grid[0]), float(grid[-1])
    span = t_end - t
    h = min(max_step, float(grid[1] - grid[0]))
    k = np.empty((16,) + y.shape)
    kf = k.reshape(16, -1)  # flat view: stage s adds A[s, :s] @ kf[:s]
    zero = np.zeros(y.shape)
    zeros = np.zeros(states.shape)  # for the finiteness test of filled grid states
    # every stage's input is built in this one buffer, rounded as
    # y + h * (a_s @ k_s) would be: the product, then the scale, then the sum
    ys = np.empty(y.shape)
    ys_flat = ys.reshape(-1)
    # per stage s: its slope, its tableau row, the slopes it sums and its
    # node c_s (stage 12, the FSAL slope, is evaluated at y8 itself)
    stages = [(k[s], _A[s, :s], kf[:s], float(_C[s])) for s in range(1, 16)]
    step_stages, dense_stages = stages[:11], stages[12:]
    g = 1  # next grid time to fill

    def run_stages(todo, t, y, h):
        for slot, a_s, k_s, c_s in todo:
            np.matmul(a_s, k_s, out=ys_flat)  # ys = y + h * (a_s @ k_s)
            np.multiply(ys, h, out=ys)
            np.add(ys, y, out=ys)
            _checked(f, t + c_s * h, ys, stats, slot, zero)

    # overflow and invalid operations in f surface as NonFiniteRHSError from
    # the per-evaluation check rather than as floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        _checked(f, t, y, stats, k[0], zero)
        abs_y = np.abs(y)
        while t < t_end:
            rest = t_end - t
            h_try = min(h, max_step)
            if _STRETCH * h_try >= rest:
                h_try = rest
            # one attempted step, repeated with smaller h on rejection; local
            # error is budgeted per unit time, floored at _BUDGET_FLOOR of the
            # tolerance so that short steps keep a budget above rounding
            while True:
                if h_try < min_step or t + h_try == t:
                    raise StepUnderflowError(t)
                run_stages(step_stages, t, y, h_try)
                est = h_try * (_STEP_W @ kf[:12])  # y8 - y, then both estimates
                y8 = y + est[0].reshape(y.shape)
                abs_y8 = np.abs(y8)
                budget = max(h_try / span, _BUDGET_FLOOR)
                scale = (abs_tol + rel_tol * np.maximum(abs_y, abs_y8).ravel()) * budget
                e53 = est[1:] / scale
                e53 *= e53
                e5, e3 = e53
                den = np.sqrt(e5 + 0.01 * e3)
                err = float((e5 / np.where(den > 0.0, den, 1.0)).max())
                t_new = t_end if h_try == rest else t + h_try
                j = int(np.searchsorted(grid, t_new, side="right"))  # grid[g:j] lie in (t, t_new]
                filled = j > g or inside is not None
                if filled:
                    # a step read between its ends needs the FSAL slope and
                    # the extension's stages now, and must also bound the
                    # interpolant's error through its last coefficient r7
                    _checked(f, t + h_try, y8, stats, k[12], zero)
                    run_stages(dense_stages, t, y, h_try)
                    r7 = h_try * (_D[3] @ kf)
                    err = max(err, _DENSE_WEIGHT * float((np.abs(r7) / scale).max()))
                if err <= 1.0:
                    break
                stats.rejected += 1
                h_try *= max(_MIN_FACTOR, _SAFETY * err ** -0.125)
            stats.record(h_try, t)
            if filled:
                dense = dop853_dense(y, y8, h_try, k)
            if j > g:
                states[g:j] = dense((grid[g:j] - t) / h_try)
                if grid[j - 1] == t_new:
                    states[j - 1] = y8
            # tested before f is evaluated at y8 for the next step
            if np.vdot(y8, zero) != 0.0 or np.vdot(states[g:j], zeros[g:j]) != 0.0:
                raise NonFiniteStateError(t, f"non-finite state in the step from t = {t:.12g}")
            if not filled:
                _checked(f, t + h_try, y8, stats, k[12], zero)
            if inside is not None:
                n_in = g
                while n_in < j and inside(states[n_in]):
                    n_in += 1
                if n_in < j or not inside(y8):
                    a = grid[n_in - 1] if n_in > g else t
                    b = grid[n_in] if n_in < j else t_new
                    return _exit_solution(grid, states, n_in, stats, inside,
                                          lambda s: dense((s - t) / h_try), a, b)

            # FSAL: the slope at the step end starts the next step
            k[0] = k[12]
            y, abs_y, t, g = y8, abs_y8, t_new, j
            if err > 0:
                h = h_try * min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** -0.125))
            else:
                h = h_try * _MAX_FACTOR
    return Trajectory(grid.copy(), states, stats)


# --------------------------------------------------------------------------- quadrature


def cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative integral of samples by composite Simpson pairing.

    Even cumulative indices agree with classical composite Simpson; odd
    indices take the first half of the pair's quadratic.  A trailing odd
    interval uses the quadratic through the last three points.  Handles
    non-uniform spacing.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    if single:
        y = y[:, None]
    n = len(x)
    out = np.zeros_like(y)
    if n == 2:
        out[1] = 0.5 * (x[1] - x[0]) * (y[0] + y[1])
    elif n > 2:
        # quadratics through the points (i, i+1, i+2) for even i, plus (n-3,
        # n-2, n-1) for a trailing odd interval, of which only the second half
        # is used; the running sum over the halves in grid order is the
        # cumulative integral
        i = np.arange(0, n - 2, 2)
        if n % 2 == 0:
            i = np.append(i, n - 3)
        h1 = (x[i + 1] - x[i])[:, None]
        h2 = (x[i + 2] - x[i])[:, None]
        f0, d1, d2 = y[i], y[i + 1] - y[i], y[i + 2] - y[i]
        den = h1 * h2 * (h2 - h1)
        a = (d2 * h1 - d1 * h2) / den
        b = (d1 * h2 * h2 - d2 * h1 * h1) / den

        def F(s):  # antiderivative of a s^2 + b s + f0 from 0
            s2 = s * s
            return a * (s2 * s) / 3.0 + b * s2 / 2.0 + f0 * s

        m = (n - 1) // 2  # full pairs
        I1 = F(h1)
        I2 = F(h2) - I1
        halves = np.empty((n - 1, y.shape[1]))
        halves[0 : 2 * m : 2] = I1[:m]
        halves[1 : 2 * m : 2] = I2[:m]
        if n % 2 == 0:
            halves[-1] = I2[-1]
        np.cumsum(halves, axis=0, out=out[1:])
    return out[:, 0] if single else out


def integral_defect(values: np.ndarray, times: np.ndarray, states: np.ndarray) -> float:
    """Max-norm defect max |y - y0 - int f| of sampled states y against their
    sampled right-hand side f, integrated by ``cumulative_simpson``."""
    return float(np.max(np.abs(states - states[0] - cumulative_simpson(values, times))))
