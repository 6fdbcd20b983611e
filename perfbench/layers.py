"""Per-layer measurements taken from outside the program.

The tracer replaces each traced function, wherever a prepost module holds
it, by a wrapper that records a span; nothing in ``src/prepost`` changes.
A span's self time is its duration minus the durations of the spans opened
inside it, so self times of nested layers add up to the outermost span.
Spans are aggregated per name as they close, which keeps a long traced run
at constant memory.

The import-time and scaling measurements run the program's own calls in a
fresh subprocess and at fixed problem sizes respectively.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import subprocess
import sys
import time
from collections import defaultdict

# layer -> (module that defines the callables, traced names). A class name
# traces its constructions. The layer names are the package modules; the
# SVD is traced at numpy.linalg because every caller reaches it as
# ``np.linalg.svd``, and the dense exponentials as the ``expm`` name bound
# in prepost.qcore.
TRACED = {
    "config": ("prepost.config", ["load_config"]),
    "cli": ("prepost.cli", ["main"]),
    "liouville": ("prepost.liouville", [
        "integrate", "modified_liouville_rhs", "burst_rhs",
        "weak_moments", "burst_interaction", "product_env_ket",
        "continuous_interaction", "closed_form_spin",
    ]),
    "twostate": ("prepost.twostate", [
        "schmidt_spectrum", "purity", "effective_density", "TwoState",
        "from_conditions", "prob_pre_post", "prob_pre_only", "prob_env_post_only",
    ]),
    "numpy.linalg": ("numpy.linalg", ["svd"]),
    "spinbath": ("prepost.spinbath", [
        "exact_reduced_two_state", "brute_force_reduced", "decoherence_factor",
        "env_postselected_two_states", "effective_density_xy", "random_params",
    ]),
    "qcore": ("prepost.qcore", ["evolve", "tensor", "random_unitary", "random_hermitian", "expm"]),
    "verify": ("prepost.verify", [
        "verify_spinbath_exact", "verify_probability", "verify_parsel", "verify_perturbative",
    ]),
}

SPAN_NAMES = [f"{layer}.{name}" for layer, (_mod, names) in TRACED.items() for name in names]


def replace_everywhere(orig, new, extra_modules=()) -> list:
    """Rebind ``orig`` to ``new`` wherever a prepost module holds it.

    Covers module globals, so ``from .x import f`` copies are caught, and
    the values of module-level dicts such as verify's scenario table.
    Returns undo records for :func:`undo_replacements`.
    """
    undo = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "prepost" or name.startswith("prepost."))]
    for mod in modules + list(extra_modules):
        namespace = vars(mod)
        tables = [namespace] + [v for v in list(namespace.values()) if type(v) is dict]
        for table in tables:
            for key, val in list(table.items()):
                if val is orig:
                    table[key] = new
                    undo.append((table, key, orig))
    return undo


def undo_replacements(undo: list):
    for table, key, orig in reversed(undo):
        table[key] = orig


class Tracer:
    """Span aggregates per traced name: calls and self time in seconds."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.trajectory_states = 0
        self.missing = []
        self._open = []  # child time accumulated by each open span
        self._restore = []

    def _wrap(self, name, fn, on_result=None):
        calls, self_s, open_spans, clock = self.calls, self.self_s, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                children = open_spans.pop()
                calls[name] += 1
                self_s[name] += span - children
                if open_spans:
                    open_spans[-1] += span
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_states(self, traj):
        self.trajectory_states += len(traj.times)

    def install(self):
        """Wrap every traced callable that exists; record the ones that do not."""
        self.missing = []
        for layer, (mod_name, names) in TRACED.items():
            mod = importlib.import_module(mod_name)
            for name in names:
                obj = getattr(mod, name, None)
                span = f"{layer}.{name}"
                if obj is None:
                    self.missing.append(span)
                elif isinstance(obj, type):
                    init = obj.__init__
                    obj.__init__ = self._wrap(span, init)
                    self._restore.append(functools.partial(setattr, obj, "__init__", init))
                else:
                    hook = self._count_states if span == "liouville.integrate" else None
                    undo = replace_everywhere(obj, self._wrap(span, obj, hook), [mod])
                    self._restore.append(functools.partial(undo_replacements, undo))

    def uninstall(self):
        for restore in reversed(self._restore):
            restore()
        self._restore = []

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


def import_times_ms(src: str, repeats: int = 3) -> dict:
    """Median cumulative import times from ``-X importtime`` in fresh interpreters.

    ``import.prepost_cli_ms`` is everything ``import prepost.cli`` loads
    (the package, its dependencies and the cli module);
    ``import.scipy_linalg_ms`` is the scipy.linalg share of it, 0 when the
    program no longer imports it.
    """
    code = f"import sys; sys.path.insert(0, {src!r}); import prepost.cli"
    cli_ms, scipy_ms = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            capture_output=True, text=True, timeout=120, check=True,
        )
        top, scipy_linalg = 0, 0
        for line in proc.stderr.splitlines():
            # "import time: <self us> | <cumulative us> | <indent><module>"
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            raw, cumulative = parts[2], int(parts[1])
            name = raw.strip()
            depth = (len(raw) - len(raw.lstrip()) - 1) // 2
            if depth == 0 and (name == "prepost" or name.startswith("prepost.")):
                top += cumulative
            if name == "scipy.linalg":
                scipy_linalg = cumulative
        cli_ms.append(top / 1000.0)
        scipy_ms.append(scipy_linalg / 1000.0)
    return {
        "import.prepost_cli_ms": statistics.median(cli_ms),
        "import.scipy_linalg_ms": statistics.median(scipy_ms),
    }


def _median_ms(fn, budget_s: float = 0.2, max_reps: int = 200) -> float:
    """Median wall time of ``fn()`` in ms, repeated within a time budget.

    One untimed call goes first: the first BLAS call on long vectors in a
    process can stall while OpenBLAS starts its threads.
    """
    fn()
    times = []
    spent = 0.0
    while len(times) < max_reps and (not times or spent < budget_s):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return 1000.0 * statistics.median(times)


def scaling_ms(rng) -> dict:
    """Cost of the bath-size-dependent kernels at fixed sizes."""
    from prepost import liouville as lv
    from prepost import spinbath as sb
    from prepost.qcore import SIGMA_Z

    from workloads import product_conditions

    out = {}
    for n in (8, 12, 16, 18):
        pre, post = product_conditions(rng, n)
        spec = lv.burst_interaction(0.5, 0.04, [SIGMA_Z] * n, lv.product_env_ket(pre), lv.product_env_ket(post))
        out[f"scaling.weak_moments_n{n}_ms"] = _median_ms(lambda: lv.weak_moments(spec))
    for n in (4, 8, 12):
        p = sb.random_params(rng, n)
        t = float(rng.uniform(0.0, p.t_final))
        out[f"scaling.brute_force_reduced_n{n}_ms"] = _median_ms(lambda: sb.brute_force_reduced(p, t))
        out[f"scaling.exact_reduced_two_state_n{n}_ms"] = _median_ms(lambda: sb.exact_reduced_two_state(p, t))
    return out
