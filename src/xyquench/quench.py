"""Linear quench schedule, Landau-Zener statistics, and a real-time two-level oracle.

The transverse field is ramped as B(t <= 0) = -t/tau_q, crossing the
critical point B = 1 at t = -tau_q.  Each (k, -k) pair crosses its own
avoided level crossing at B = cos k; the excitation probability of the
slow sweep is p_k ~ exp(-2 pi tau_q k^2), the expected kink number is the
sum of p_k, and a finite chain stays adiabatic only for
tau_q >> N^2 / (2 pi^3).  evolve_mode integrates one pair in real time;
its first call starts one daemon thread that computes the leaves of the
propagator tree (see _LeafWorker), and nothing else here starts one.
"""

from __future__ import annotations

import functools
import math
import os
import queue
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, momentum_grid, refuse_over_budget

# Default dt * max|H|, a quarter of the midpoint rule's old 0.05 steps: on the
# error table of tests/test_quench.py the Magnus-4 probability is no further
# from a converged reference than the midpoint one was.
_DEFAULT_STEP = 0.2
# Accuracy heuristic, not a stability bound: every step is exactly unitary.
# The largest dt * max|H| on a 0.1 grid at which Magnus-4 is no worse than the
# midpoint rule at its old limit 0.1 on the same table; at 0.4 one case is worse.
_MAX_STABLE_STEP = 0.3
_MAX_STEPS = 10**8  # step budget per pair and per table; refused up front, before any allocation
_CHUNK = 1 << 15  # steps multiplied per numpy chunk; memory does not grow with tau_q
# tree levels of at most this many products are multiplied in Python floats: one
# product costs about 0.35 us there, and a numpy level about 16 us at any width up to 64
_FLOAT_TOP = 32
_IDENTITY = np.array([[1.0], [0.0], [0.0], [0.0]])  # the padding leaf (w, x, y, z)


@dataclass(frozen=True)
class QuenchSchedule:
    """Linear ramp B(t) = -t/tau_q on t in [t_start, 0]: it always ends at B = 0."""

    tau_q: float
    t_start: float

    def __post_init__(self):
        if not self.tau_q > 0.0:
            raise ValueError(f"tau_q must be > 0, got {self.tau_q}")
        if not self.t_start < 0.0:
            raise ValueError(f"need t_start < 0, got t_start={self.t_start}")

    @classmethod
    def from_field(cls, tau_q: float, b_start: float = 5.0) -> "QuenchSchedule":
        """Window starting deep in the polarized regime, B(t_start) = b_start."""
        return cls(tau_q=tau_q, t_start=-b_start * tau_q)

    def covers(self, k: float) -> bool:
        """Whether the field window passes the pair's crossing B = cos k strictly inside."""
        return 0.0 < math.cos(k) < -self.t_start / self.tau_q


@dataclass(frozen=True, eq=False)
class KinkReport:
    """Excitation probabilities p_k over the signed grid -k_max .. k_max, and their sum."""

    p_k: np.ndarray
    kink_count: float
    threshold: float
    adiabatic: bool


@dataclass(frozen=True)
class EvolveResult:
    """Outcome of one real-time pair evolution."""

    probability: float
    norm_drift: float
    n_steps: int
    crossing_covered: bool


def lz_probability(k, tau_q):
    """Landau-Zener excitation probability p_k ~ exp(-2 pi tau_q k^2), in (0, 1]."""
    if not np.all(np.asarray(tau_q) >= 0.0):  # also refuses NaN
        raise ValueError(f"tau_q must be >= 0, got {tau_q}")
    return np.exp(-2.0 * np.pi * np.asarray(tau_q) * np.square(k))


def adiabatic_threshold(n_sites: int) -> float:
    """Finite-chain adiabaticity scale N^2 / (2 pi^3)."""
    return n_sites**2 / (2.0 * math.pi**3)


def kink_count(spec: ChainSpec, tau_q: float, safety_factor: float = 10.0) -> KinkReport:
    """Expected kink number: p_k summed over all +/-k grid modes.

    The report carries the threshold N^2/(2 pi^3); `adiabatic` is true for
    tau_q > safety_factor * threshold, quantifying the ">>" of the
    adiabatic condition.
    """
    if not safety_factor > 0.0:
        raise ValueError(f"safety_factor must be > 0, got {safety_factor}")
    k_pos = momentum_grid(spec)
    k_all = np.concatenate((-k_pos[::-1], k_pos))
    p_all = lz_probability(k_all, tau_q)
    threshold = adiabatic_threshold(spec.n_sites)
    return KinkReport(
        p_k=p_all,
        kink_count=float(np.sum(p_all)),
        threshold=threshold,
        adiabatic=bool(tau_q > safety_factor * threshold),
    )


def ramp_steps(k, alpha, schedule: QuenchSchedule, dt=None) -> tuple[int, float]:
    """The step rule of evolve_mode for one pair: (step count n, step length span / n).

    dt defaults to _DEFAULT_STEP / max|H|; ValueError names a dt that is not > 0 (NaN
    too), then refuses dt * max|H| >= _MAX_STABLE_STEP and a ramp over _MAX_STEPS steps.
    """
    b_start = -schedule.t_start / schedule.tau_q
    h_max = 2.0 * math.hypot(abs(math.cos(k)) + b_start, alpha * math.sin(k))
    if dt is None:
        dt = _DEFAULT_STEP / h_max
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if dt * h_max >= _MAX_STABLE_STEP:
        raise ValueError(
            f"unstable step size: dt*max|H| = {dt * h_max:g} must stay below {_MAX_STABLE_STEP}"
        )
    span = -schedule.t_start
    estimate = span / dt
    refuse_over_budget(estimate, _MAX_STEPS, "the ramp needs about", "steps per pair",
                       "use a smaller tau_q or a larger dt")
    n = int(math.ceil(estimate))
    return n, span / n


def evolve_mode(k, alpha, schedule: QuenchSchedule, dt=None) -> EvolveResult:
    """Integrate one (k, -k) pair through the ramp; excitation probability at t = 0.

    The pair spans {|00>, |11>} with Hamiltonian
    H_k(t) = -2(cos k - B(t)) Z + 2 alpha sin(k) X; the factor 2 is the
    pair splitting (exciting both quasiparticles costs 2 Lambda_k) and is
    what reproduces exp(-2 pi tau_q k^2) for alpha = 1 at small k.
    Each step is the fourth-order Magnus step with two Gauss points
    t_+- = t_0 + (1/2 +- sqrt(3)/6) dt (Blanes, Casas, Oteo & Ros,
    Phys. Rep. 470, 151 (2009)): exp(-i dt g.sigma) with
    g = (h_1 + h_2)/2 + (sqrt(3) dt/6) h_2 x h_1 for H_k = h.sigma.  On the
    linear ramp this is exact in closed form: the x and z parts are the
    midpoint field (cx, cz(t_0 + dt/2)), and the commutator adds the same
    y field cy = -cx dt^2/(3 tau_q) on every step.  The default step is
    dt * max|H| = _DEFAULT_STEP; ramp_steps sets the step count and
    refuses, before anything is allocated, an unstable dt or a ramp of
    more than _MAX_STEPS steps.  Each step is written as an SU(2)
    quaternion; the steps of each chunk of _CHUNK are multiplied pairwise
    as a tree (_chunk_product) and the product is applied to the state, so
    memory stays bounded however long the ramp.  The tree pairs steps
    (2i + 1)(2i), then those products the same way, with identity padding
    to a power of two; it stores the leaves in bit-reversed order so that
    every level reads contiguous halves and writes into one scratch buffer,
    64-byte aligned, that all calls share (_scratch).  The narrow levels
    at the top, of _FLOAT_TOP products or fewer, are multiplied in Python
    floats, where numpy's per-call cost would dominate.  The leaf kernel
    (_leaves: cz, lam, cos and sin, mostly libm) of chunk j + 1 runs on a
    daemon worker thread (_LeafWorker) while this thread divides by lam,
    pads and multiplies the tree of chunk j, in the other of two sets of
    rows; the first chunk's leaves are split by columns between the two
    threads.  Any layout with these pairs and these left-to-right sums
    gives the same bits, and no job is in flight when the call returns or
    raises.
    The state starts in the instantaneous ground state at t_start.  The
    result carries the probability |<excited(0)|psi(0)>|^2, the worst
    norm drift |<psi|psi> - 1| at the chunk ends, the step count, and
    whether the ramp covers the crossing.
    """
    c0 = math.cos(k)
    s = alpha * math.sin(k)
    b_start = -schedule.t_start / schedule.tau_q
    crossing_covered = schedule.covers(k)
    if not crossing_covered:
        warnings.warn(
            f"window B in [0, {b_start:g}] does not cover the crossing at "
            f"B = cos k = {c0:g}",
            stacklevel=2,
        )
    elif s == 0.0:
        warnings.warn(
            "no coupling at the crossing (alpha*sin k = 0): the sweep passes through "
            "an exact degeneracy",
            stacklevel=2,
        )

    n, dt = ramp_steps(k, alpha, schedule, dt)

    # Step i is exp(-i dt (cx X + cy Y + cz Z)) with cz = -2(cos k - B(t_i + dt/2)).
    cx = 2.0 * s
    cy = -cx * dt * dt / (3.0 * schedule.tau_q)
    h = math.hypot(cx, cy)
    field = (schedule.t_start, schedule.tau_q, c0, h, dt)
    psi0, psi1 = _pair_eigenvector(c0, s, b_start, excited=False)
    drift = 0.0
    with _LOCK:
        worker = _leaf_worker()
        work = _scratch()
        sets = (work, work[::-1])
        try:
            rows, order, m = _chunk_rows(sets, 0, n)
            cut = rows.shape[1] // 2  # the first chunk's leaves: upper columns on the worker
            worker.submit(rows, order, 0, slice(cut, None), *field)
            _leaves(rows, order, 0, slice(0, cut), *field)
            worker.wait()
            for lo in range(0, n, _CHUNK):
                nxt_lo = lo + _CHUNK
                if nxt_lo < n:  # the next chunk's leaves go to the other set while this tree runs
                    nxt = _chunk_rows(sets, nxt_lo, n)
                    worker.submit(nxt[0], nxt[1], nxt_lo, slice(None), *field)
                w, x, y, z = _chunk_product(rows, order, cx, cy, h, m)
                psi0, psi1 = (
                    complex(w, -z) * psi0 + complex(-y, -x) * psi1,
                    complex(y, -x) * psi0 + complex(w, z) * psi1,
                )
                drift = max(drift, abs(abs(psi0) ** 2 + abs(psi1) ** 2 - 1.0))
                if nxt_lo < n:
                    worker.wait()
                    rows, order, m = nxt
        finally:
            worker.drain()

    e0, e1 = _pair_eigenvector(c0, s, 0.0, excited=True)
    return EvolveResult(
        probability=float(abs(e0.conjugate() * psi0 + e1.conjugate() * psi1) ** 2),
        norm_drift=float(drift),
        n_steps=n,
        crossing_covered=crossing_covered,
    )


def _chunk_rows(sets, lo, n):
    """(rows, order, m) of the chunk that starts at step lo.

    rows is its set of leaf rows cut to the padded size, order the
    bit-reversed leaf order of that size (a read-only view), and m its
    step count.
    """
    m = min(_CHUNK, n - lo)
    size = 1 << (m - 1).bit_length()
    return sets[lo // _CHUNK % 2][:, :size], _bit_reversal()[::_CHUNK // size], m


def _leaves(rows, order, lo, cols, t_start, tau_q, c0, h, dt):
    """The leaf kernel: cz, lam = hypot(cz, h), cos and sin of lam dt, in columns cols.

    rows is one leaf set of the scratch (see _scratch); the leaf at column
    j is step lo + order[j].  It writes the set's w, z, lam and sin rows
    and reads nothing else of the scratch, so it can run on the worker
    thread while the tree of the other set runs.
    """
    w, z, lam, sin_a = rows[0, cols], rows[6, cols], rows[8, cols], rows[10, cols]
    np.copyto(z, order[cols])  # a cast in np.add would allocate buffers on this thread
    np.add(z, lo + 0.5, out=z)  # (lo + i) + 0.5, exact
    np.multiply(z, dt, out=z)
    np.add(z, t_start, out=z)  # t_mid
    np.divide(z, tau_q, out=z)
    np.add(z, c0, out=z)  # c0 - (-t_mid)/tau_q, bit for bit
    np.multiply(z, -2.0, out=z)
    np.hypot(z, h, out=lam)
    np.multiply(lam, dt, out=sin_a)
    np.cos(sin_a, out=w)
    np.sin(sin_a, out=sin_a)


def _chunk_product(rows, order, cx, cy, h, m):
    """SU(2) quaternion (w, x, y, z) of m steps whose leaves _leaves wrote, later steps on the left.

    The leaves are padded with identities to a power of two, size, and
    stored in bit-reversed step order, so the tree's pairs (2i, 2i + 1) sit
    at j and j + size/2: each level multiplies the contiguous upper half by
    the contiguous lower half into the other of two buffers.  Those are the
    set's (w, x, y, z) rows and, once the divisions by lam have consumed
    them, its lam and sin rows together with the other set's x and y rows,
    which the worker never writes.  Once a level holds _FLOAT_TOP products
    or fewer, the rest of the tree runs on Python floats (_quat_mul_float),
    with the same pairs.
    """
    size = rows.shape[1]
    q, lam, sin_a = rows[0:7:2], rows[8], rows[10]
    if h == 0.0:
        lam[lam == 0.0] = 1.0  # lam = 0 only where cz = h = 0
    np.divide(cx, lam, out=q[1])
    np.divide(cy, lam, out=q[2])
    np.divide(q[3], lam, out=q[3])
    np.multiply(q[1:], sin_a, out=q[1:])
    if m < size:
        np.copyto(q, _IDENTITY, where=order >= m)
    half = size // 2
    a, b, tmp = q, rows[7:11, :half], rows[7:11, half:]
    while size > 2 * _FLOAT_TOP:
        size //= 2
        _quat_mul(a[:, size:2 * size], a[:, :size], b[:, :size], tmp[:, :size])
        a, b = b, a
    top = list(zip(*a[:, :size].tolist()))
    while size > 1:
        size //= 2
        top = [_quat_mul_float(p, q) for p, q in zip(top[size:], top)]
    return top[0]


@functools.cache
def _scratch() -> np.ndarray:
    """The (12, _CHUNK) float scratch that every evolve_mode call shares, built on first use.

    It holds two sets of leaf rows, the set itself and the set read
    upside down (work[::-1]): in either, the rows 0, 2, 4, 6 are the
    quaternion (w, x, y, z) of a leaf, 8 is lam and 10 is sin(lam dt), and
    7-10 are the tree's scratch.  A chunk of padded size s uses columns
    :s; evolve_mode holds _LOCK while it uses the buffer.
    """
    return _aligned_scratch(12, _CHUNK)


def _aligned_scratch(rows: int, cols: int) -> np.ndarray:
    """Uninitialized float (rows, cols) scratch on a 64-byte boundary, whatever the heap did."""
    flat = np.empty(rows * cols + 7)  # numpy aligns to 16 bytes; 7 spare floats reach 64
    start = (-flat.ctypes.data % 64) // flat.itemsize
    return flat[start:start + rows * cols].reshape(rows, cols)


@functools.cache
def _bit_reversal() -> np.ndarray:
    """Read-only bit-reversed order of 0 .. _CHUNK - 1, built on first use, not at import.

    Reversing the bits of j * 2^b gives the reversed b fewer bits of j, so
    every 2^b-th entry is the order of a chunk of _CHUNK >> b steps.
    """
    order = np.zeros(1, dtype=np.min_scalar_type(_CHUNK))
    while order.size < _CHUNK:
        order = np.concatenate((2 * order, 2 * order + 1))
    order.flags.writeable = False
    return order


class _LeafWorker:
    """The daemon thread that runs _leaves jobs for the holder of _LOCK, one job at a time.

    numpy releases the GIL inside the long hypot, cos and sin loops, so
    the leaves of the next chunk overlap the tree of this one.  The worker
    calls nothing that perfbench binds.  An exception in a job is raised
    again by the wait that collects it, and the worker lives on.
    """

    def __init__(self):
        self._jobs = queue.SimpleQueue()
        self._done = threading.Event()
        self._done.set()
        self._error = None
        threading.Thread(target=self._serve, name="xyquench-leaves", daemon=True).start()

    def _serve(self):
        for args in iter(self._jobs.get, None):
            try:
                _leaves(*args)
            except BaseException as exc:
                self._error = exc
            self._done.set()

    def submit(self, *args):
        """Start a job; the one before it must have been waited for."""
        self._done.clear()
        self._jobs.put(args)

    def wait(self):
        """Block until the job is done; raise what it raised."""
        self._done.wait()
        exc, self._error = self._error, None
        if exc is not None:
            raise exc

    def drain(self):
        """Block until no job is in flight, dropping its error.

        A signal's exception (KeyboardInterrupt) that arrives meanwhile is
        raised once the job is done, so that no caller leaves a job writing
        into the scratch.
        """
        caught = None
        while not self._done.is_set():
            try:
                self._done.wait()
            except BaseException as exc:
                caught = exc
        self._error = None
        if caught is not None:
            raise caught


_LOCK = threading.Lock()


@functools.cache
def _leaf_worker() -> _LeafWorker:
    """The process's leaf worker, started by the first evolve_mode call, not at import."""
    return _LeafWorker()


def _after_fork_in_child():
    """A forked child has the parent's scratch but not its worker thread: start afresh."""
    global _LOCK
    _LOCK = threading.Lock()
    _leaf_worker.cache_clear()


os.register_at_fork(after_in_child=_after_fork_in_child)


def _quat_mul(p, q, out, tmp):
    """SU(2) product p q (q acts first) of quaternion rows (w, x, y, z), written into out.

    A unit quaternion stands for U = w I - i (x X + y Y + z Z).  Each row
    is summed left to right as
    w = pw qw - px qx - py qy - pz qz,  x = pw qx + qw px + py qz - pz qy,
    y = pw qy + qw py + pz qx - px qz,  z = pw qz + qw pz + px qy - py qx,
    one term of all four rows at a time (a product is computed with its
    factors swapped where that lets rows share a call; IEEE products
    commute).  p, q, out and tmp are (4, n) arrays; out and tmp must not
    overlap p, q or each other.
    """
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    np.multiply(pw, q, out=out)
    np.multiply(px, qx, out=tmp[0])
    np.multiply(p[1:], qw, out=tmp[1:])
    np.subtract(out[0], tmp[0], out=out[0])
    np.add(out[1:], tmp[1:], out=out[1:])
    for row, (a, b) in enumerate(((py, qy), (py, qz), (pz, qx), (px, qy))):
        np.multiply(a, b, out=tmp[row])
    np.subtract(out[0], tmp[0], out=out[0])
    np.add(out[1:], tmp[1:], out=out[1:])
    for row, (a, b) in enumerate(((pz, qz), (pz, qy), (px, qz), (py, qx))):
        np.multiply(a, b, out=tmp[row])
    np.subtract(out, tmp, out=out)
    return out


def _quat_mul_float(p, q):
    """_quat_mul of one pair of (w, x, y, z) tuples in Python floats, with the same bits."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (pw * qw - px * qx - py * qy - pz * qz,
            pw * qx + px * qw + py * qz - pz * qy,
            pw * qy + py * qw + pz * qx - px * qz,
            pw * qz + pz * qw + px * qy - py * qx)


def _pair_eigenvector(c0, s, b, excited):
    """Normalized eigenvector of cz Z + cx X with cz = -2(c0 - b), cx = 2s."""
    cz = -2.0 * (c0 - b)
    cx = 2.0 * s
    lam = math.hypot(cz, cx)
    if lam == 0.0:
        raise ValueError("degenerate endpoint: instantaneous eigenbasis undefined")
    target = lam if excited else -lam
    # (cz - target) v0 + cx v1 = 0; pick the numerically stable branch.
    if abs(cz - target) >= abs(cz + target):
        v0, v1 = cx, target - cz
    else:
        v0, v1 = target + cz, cx
    nrm = math.hypot(v0, v1)
    return complex(v0 / nrm), complex(v1 / nrm)
